"""Version-1, -2 and -3 checkpoint files, for the tests that old files still load.

`save_checkpoint` writes version 4: the header and the four float32 groups
in their memory order. The older versions stored the whole training state:
the four groups, the latent and class centers, the Adam first and second
moments in group order, then a u64 step count and a u64 RNG state. Versions
1 and 2 stored every array as little-endian float64 in the C order of its
logical shape, decomp and its moments as (M, P, D); version 1's header held
only P, D, M, K, and version 2's the whole HeadConfig. Version 3 had version
2's header and stored every array as little-endian float32 in its memory
order, decomp and its moments as (P, M, D).
"""

import struct
from dataclasses import astuple

import numpy as np

from ferhead.training import CHECKPOINT_MAGIC


def saved_arrays(state):
    """The arrays an old checkpoint stores, in file order and in their logical shapes."""
    arrays = [arr for _, arr in state.params.items()]
    arrays += [state.centers.latent.centers, state.centers.by_class.centers]
    for moments in (state.adam.first, state.adam.second):
        arrays += [arr for _, arr in moments.items()]
    return arrays


def write_old_checkpoint(path, state, cfg, version):
    """Write a TrainerState to `path` as a version-1, -2 or -3 checkpoint.

    No reader uses the RNG state at the end of the file; it is written as 0.
    """
    if version == 1:
        header = struct.pack("<5I", 1, *astuple(cfg)[:4])
    else:
        header = struct.pack("<5I5d", version, *astuple(cfg))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        for arr in saved_arrays(state):
            if version == 3:
                fh.write(np.asarray(arr, dtype="<f4").ravel(order="K"))
            else:
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        fh.write(struct.pack("<QQ", state.adam.step_count, 0))
