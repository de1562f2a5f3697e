"""Smoke test of the benchmark itself, every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
TIMEOUT_S = 600


def run(cwd, *args):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def sections(stdout):
    """Split the output of ``--workload all`` into one list per workload."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("env.workload"):
            current = out.setdefault(line.split()[1], [])
        elif line.startswith(("env.", "{")):
            continue
        else:
            current.append(line)
    return out


@pytest.fixture(scope="module")
def runs():
    out = {}
    for trace in (0, 1):
        res = run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
        assert res.returncode == 0, res.stderr
        out[trace] = res.stdout
    return out


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_listed_metric_is_printed_with_its_unit(runs, spec):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        summary = json.loads(runs[trace].splitlines()[-1])
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1
        printed = sections(runs[trace])
        for workload in spec["workloads"]:
            lines = {line.split()[0]: line.split()
                     for line in printed[workload["name"]]}
            assert lines["fail_frac"][1:3] == ["0.0", "ratio"]
            for metric in spec[kind]:
                name, unit = metric["name"], metric["unit"]
                assert lines[name][2] == unit, (workload["name"], name)
                got = summary["metrics"][f"{workload['name']}.{name}"]
                assert got["unit"] == unit


def test_traced_and_untraced_runs_produce_identical_outputs(runs, spec):
    untraced, traced = sections(runs[0]), sections(runs[1])
    for workload in spec["workloads"]:
        def outputs(lines):
            return [line for line in lines
                    if line.startswith(("digest ", "cost "))]
        first = outputs(untraced[workload["name"]])
        assert any(line.startswith("digest ") for line in first)
        assert first == outputs(traced[workload["name"]])


def test_fails_without_the_package_sources(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    res = run(tmp_path, "--workload", spec["workloads"][0]["name"],
              "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert not res.stdout.strip()
