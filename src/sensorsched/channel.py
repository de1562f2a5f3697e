"""Two-state Markov (Gilbert-Elliott) packet-loss channels.

State 1 is "good" (packet delivered), state 0 is "bad" (packet dropped).
``p`` is the probability of leaving the good state, ``q`` the probability
of recovering from the bad state.  Channels are mutually independent; each
one draws from its own RNG substream so adding or removing a channel never
perturbs the others' sample paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_kinds


@dataclass(frozen=True)
class ChannelModel:
    p: float  # P(next = bad  | current = good)
    q: float  # P(next = good | current = bad)

    def __post_init__(self):
        check_kinds(self)
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"p and q must lie in [0, 1], got p={self.p} q={self.q}")


def channel_reset(models):
    """Initial 0/1 outcomes, one int64 per channel, all good."""
    return np.ones(len(models), dtype=np.int64)


def channel_step(models, gamma, rngs):
    """Advance every chain one step.  rngs: ChannelStreams, one per channel.

    ``gamma`` is the 0/1 array of ``channel_reset`` or a previous step, and
    the result has the same form.  Channel m leaves its current state when
    its uniform falls below the switching probability (p from good, q from
    bad).
    """
    if not (len(models) == len(gamma) == len(rngs)):
        raise ValueError(
            f"got {len(models)} models, {len(gamma)} states, "
            f"{len(rngs)} rngs")
    switch = np.array([c.p if g else c.q
                       for c, g in zip(models, gamma.tolist())])
    return (rngs.draw() < switch) ^ gamma


# Uniforms drawn per channel at a time; Generator.random(k) returns the
# same values as k scalar random() calls, so the block size changes no path.
_BLOCK = 256


class ChannelStreams:
    """One uniform per channel per step, each channel from its own stream.

    Each generator is read in blocks of ``_BLOCK`` draws; ``draw`` hands
    out one row of the current block, so step k sees the k-th draw of
    every channel's stream whatever the block size.
    """

    def __init__(self, generators):
        self._generators = list(generators)
        self._block = np.empty((0, len(self._generators)))
        self._next = 0

    def __len__(self):
        return len(self._generators)

    def draw(self):
        if self._next == len(self._block):
            self._block = np.stack(
                [g.random(_BLOCK) for g in self._generators], axis=1)
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]


def spawn_channel_rngs(seed, n_channels):
    """Independent counter-based substreams, one per channel.

    ``seed`` may be an int or a numpy SeedSequence.  Spawned children give
    structural independence: streams never overlap regardless of how many
    draws each consumes.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return ChannelStreams(np.random.Generator(np.random.Philox(child))
                          for child in seed.spawn(n_channels))
