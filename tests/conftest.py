"""Shared fixtures: hand-built models and scenarios with known behavior."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from sensorsched import (ChannelModel, ProcessModel, Scenario,
                         steady_state_covariance)
from sensorsched.harness import _payload_checksum


# Python floats a CSV cell must carry unchanged, every special value included.
CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2e-308,
     1e308]))


def open_loop_step(A, W, P):
    """A P A' + W, symmetrized the way the trace tables do it."""
    cov = A @ P @ A.T + W
    return (cov + cov.T) * 0.5


def resave_scenario(path, edit):
    """Apply ``edit`` to a saved scenario's payload in place, then store
    the payload again under a checksum that matches it."""
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    doc["checksum"] = _payload_checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _payload_edit(edit):
    return lambda path: resave_scenario(path, edit)


def _float_checksum(path):
    doc = json.loads(path.read_text())
    doc["checksum"] = float(doc["checksum"])
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# Rewrites of a saved scenario with 1x1 V that store a value of a kind the
# format does not take, each with the text its error shows.  float(),
# numpy's float64 conversion, dict() and == against an integer all once
# let these through.
MISKINDED = {
    "p as a string": (_payload_edit(
        lambda doc: doc["channels"][0].update(p="0.25")), "p must be"),
    "q as a bool": (_payload_edit(
        lambda doc: doc["channels"][0].update(q=True)), "q must be"),
    "A entry as a string": (_payload_edit(
        lambda doc: doc["processes"][0]["A"][0].__setitem__(0, "0.5")),
        "A entries"),
    "V as [[true]]": (_payload_edit(
        lambda doc: doc["processes"][0].update(V=[[True]])), "V entries"),
    "metadata as pairs": (_payload_edit(
        lambda doc: doc.update(metadata=[["a", 1]])), "metadata must be"),
    "metadata as an empty list": (_payload_edit(
        lambda doc: doc.update(metadata=[])), "metadata must be"),
    "version as a bool": (_payload_edit(
        lambda doc: doc.update(version=True)), "version True"),
    "version as a float": (_payload_edit(
        lambda doc: doc.update(version=1.0)), "version 1.0"),
    "checksum as a float": (_float_checksum, "checksum"),
}


@pytest.fixture
def golden_model():
    """Scalar A=C=W=V=1; the posterior fixed point is (sqrt 5 - 1)/2."""
    return ProcessModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])


@pytest.fixture
def golden_cache(golden_model):
    return steady_state_covariance(golden_model)


@pytest.fixture
def two_sensor_scenario():
    """Two scalar processes, one perfect channel; fully hand-checkable."""
    p1 = ProcessModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    p2 = ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    return Scenario([p1, p2], [ChannelModel(0.0, 1.0)], seed=0)


@pytest.fixture
def six_sensor_scenario():
    """Six scalar processes, three channels, moderate dynamics.

    Processes are stable-to-mildly-unstable with distinct noise levels so
    covariance traces differ across sensors; channels are reliable enough
    that the boundedness margin is comfortably positive.
    """
    rhos = [0.3, 0.5, 0.7, 0.9, 1.05, 1.15]
    noises = [0.4, 0.6, 0.8, 1.0, 0.5, 0.9]
    processes = [ProcessModel([[r]], [[1.0]], [[w]], [[0.5]])
                 for r, w in zip(rhos, noises)]
    channels = [ChannelModel(0.2, 0.8), ChannelModel(0.3, 0.7),
                ChannelModel(0.1, 0.9)]
    return Scenario(processes, channels, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
