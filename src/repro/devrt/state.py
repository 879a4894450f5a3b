"""Per-block device-runtime state and shared helpers for intrinsics.

Intrinsics are generator functions ``fn(warp, mask, args)`` that may yield
scheduler events (barriers, spins) and return a per-lane numpy array (or
None).  ``warp`` is usually one warp; an intrinsic tagged
:func:`order_independent` may also be called once for several warps of a
block run in lockstep, over a lane vector 32·W wide.  The per-block
state lives in ``warp.block.devrt`` — on the real GPU this is a control
area at the base of shared memory; keeping it as a Python dict is
equivalent because all warps of a block share it.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE, WarpExec

#: Named-barrier ids reserved by the runtime (paper §3.2): B1 synchronises
#: the master thread with all workers, B2 only the region participants.
B1 = 1
B2 = 2
#: barrier id used by explicit ``#pragma omp barrier`` inside regions
B_OMP = 3

#: number of threads every master/worker kernel is launched with (§4.2.2:
#: "ompi initiates kernels with a fixed number of 128 threads")
MW_BLOCK_THREADS = 128
#: worker threads available to parallel regions (128 - the master warp)
MW_WORKERS = 96


def block_state(warp: WarpExec) -> dict:
    """Lazily initialised per-block runtime state."""
    devrt = warp.block.devrt
    if "init" not in devrt:
        bx, by, bz = warp.block.block_dim
        devrt.update(
            init=True,
            mode="combined",
            nthreads_block=bx * by * bz,
            shmem_sp=warp.kernel.smem_static,
            mw={
                "registered": None,     # (fid, args_addr, nthreads)
                "exit": False,
                "in_region": False,
                "nthreads": 1,
            },
            sched={},                   # loop_id -> schedule state
            sections={},                # loop_id -> section state
            locks={},                   # lock_id -> 0/1
        )
    return devrt


def region_threads(warp: WarpExec) -> int:
    """Number of threads in the current parallel binding region."""
    devrt = block_state(warp)
    if devrt["mode"] == "mw":
        mw = devrt["mw"]
        return mw["nthreads"] if mw["in_region"] else 1
    return devrt["nthreads_block"]


def region_thread_ids(warp: WarpExec) -> np.ndarray:
    """Per-lane OpenMP thread numbers within the binding region."""
    devrt = block_state(warp)
    if devrt["mode"] == "mw":
        # master is thread 0; workers (linear tid 32..127) are 0..95 in-region
        if devrt["mw"]["in_region"]:
            return np.maximum(warp.lane_linear - WARP_SIZE, 0).astype(np.int32)
        return np.zeros(warp.lane_linear.shape, dtype=np.int32)
    return warp.lane_linear.astype(np.int32)


def uniform(value, mask: np.ndarray):
    """Extract the first active lane's value from a possibly per-lane arg."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return arr.item()
    return arr[int(np.argmax(mask))].item()


def pure(fn):
    """Wrap a non-suspending intrinsic as a generator."""

    def gen(warp, mask, args):
        return fn(warp, mask, args)
        yield  # pragma: no cover - makes this a generator function

    gen.__name__ = fn.__name__
    gen.__doc__ = fn.__doc__
    return gen


def order_independent(uniform_args: int):
    """Tag a non-suspending intrinsic whose calls commute across warps.

    Given arguments that agree across the calling lanes, one call over
    32·W lanes returns and stores exactly what W calls, one per warp in
    warp order, do.  The tag lets a kernel run its blocks in lockstep
    (:func:`repro.cuda.sim.compile.lockstep_eligible`).  The first
    ``uniform_args`` arguments are read with :func:`uniform`, so they
    decide whether a block-wide call is allowed: when they differ
    between warps, the executor calls once per warp instead."""

    def tag(fn):
        fn.lockstep_uniform_args = uniform_args
        return fn

    return tag


def store_out(warp: WarpExec, addr_arg, dtype, values, mask: np.ndarray) -> None:
    """Store per-lane values through a per-lane pointer argument."""
    warp.engine.mem_store(warp, np.asarray(addr_arg, dtype=np.uint64),
                          np.dtype(dtype), values, mask)
