"""Seed-derivation scheme.

All randomness in a run flows from one integer seed through named
substreams, so any component can be replayed in isolation and the serial
and thread-parallel execution paths draw identical numbers.  A substream
is identified by a purpose constant plus an optional path of integers
(round number, client id, ...).
"""

from __future__ import annotations

import numpy as np

# Purpose constants.  These are part of the on-disk reproducibility
# contract: changing them changes every sampled number in every run.
INIT_PARAMS = 1
INIT_DECODER = 2
VALIDATION_SPLIT = 3
TRAIN_SUBSET = 4
PARTITION = 5
HYPER_SAMPLE = 6
CLIENT_SELECT = 7
CLIENT_TRAIN = 8
SYNTHETIC_DATA = 9


def substream(seed: int, purpose: int, *path: int) -> np.random.Generator:
    """Return a Generator for the (seed, purpose, *path) substream.

    Distinct paths give statistically independent streams; the same path
    always gives the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, purpose, *path)))
