"""Version-1 and version-2 checkpoint files, for the tests that old files still load.

`save_checkpoint` writes version 3 (float32, each array in its memory order).
Versions 1 and 2 stored every array as little-endian float64 in the C order
of its logical shape, decomp and its moments as (M, P, D); version 1's header
held only P, D, M, K, and version 2's the whole HeadConfig.
"""

import struct
from dataclasses import astuple

import numpy as np

from ferhead.training import CHECKPOINT_MAGIC


def saved_arrays(state):
    """The arrays a checkpoint stores, in file order and in their logical shapes."""
    arrays = [arr for _, arr in state.params.items()]
    arrays += [state.centers.latent.centers, state.centers.by_class.centers]
    for moments in (state.adam.first, state.adam.second):
        arrays += [arr for _, arr in moments.items()]
    return arrays


def write_float64_checkpoint(path, state, cfg, version=2):
    """Write `state` to `path` as a version-1 or version-2 checkpoint."""
    if version == 1:
        header = struct.pack("<5I", 1, *astuple(cfg)[:4])
    else:
        header = struct.pack("<5I5d", 2, *astuple(cfg))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        for arr in saved_arrays(state):
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        fh.write(struct.pack("<QQ", state.adam.step_count, state.rng.state))
