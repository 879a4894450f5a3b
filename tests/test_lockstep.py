"""Lockstep block execution: a barrier-free kernel runs all warps of a
block as one compiled activation over 32·W lanes.

Every test compares against the tree-walker (``fastpath='off'``, the
oracle) and demands bit-identical memory and ``KernelStats``; the kernel
cache's block counters show which schedule actually ran.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import _heap_capacity
from repro.bench.suite import ALL_APPS, get_app
from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim.coalesce import row_transactions, transactions
from repro.cuda.sim.compile import CompiledKernelCache
from repro.cuda.sim.engine import FunctionalEngine, RaceGuard
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory
from repro.ompi import OmpiCompiler, OmpiConfig

GMEM_BASE = 0x2_0000_0000


# -- the row-wise transaction counter ------------------------------------------

@st.composite
def _accesses(draw):
    rows = draw(st.integers(1, 8))
    itemsize = draw(st.sampled_from([1, 2, 4, 8]))
    kind = draw(st.sampled_from(["monotone", "permuted", "broadcast",
                                 "straddle"]))
    base = GMEM_BASE + draw(st.integers(0, 4096))
    lanes = rows * 32
    if kind == "broadcast":
        addrs = np.full(lanes, base, dtype=np.uint64)
    else:
        stride = draw(st.sampled_from([0, itemsize, 2 * itemsize, 3, 64]))
        if kind == "straddle":
            base += 32 - draw(st.integers(1, itemsize))  # cross a segment
        addrs = base + stride * np.arange(lanes, dtype=np.uint64)
        if kind == "permuted":
            perm = draw(st.permutations(range(32)))
            addrs = addrs.reshape(rows, 32)[:, perm].reshape(-1)
    bits = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
    mask = np.array(bits, dtype=bool)
    for r in draw(st.sets(st.integers(0, rows - 1))):
        mask[r * 32:(r + 1) * 32] = False                  # empty rows
    return addrs.astype(np.uint64), itemsize, mask


@given(_accesses())
def test_row_counter_equals_oracle_on_every_row(access):
    addrs, itemsize, mask = access
    want = 0
    for r in range(addrs.size // 32):
        a, m = addrs[r * 32:(r + 1) * 32], mask[r * 32:(r + 1) * 32]
        row = transactions(a, itemsize, m)
        assert row_transactions(a[m], None, itemsize) == row
        want += row
    warps = (np.arange(addrs.size) // 32).astype(np.uint32)
    assert row_transactions(addrs[mask], warps[mask], itemsize) == want


# -- the race guard ---------------------------------------------------------------

@st.composite
def _records(draw):
    recs = []
    for _ in range(draw(st.integers(0, 6))):
        write = draw(st.booleans())
        if recs and draw(st.booleans()):
            # the same lanes again (a loop repeating one access)
            addrs, warps, itemsize, _ = draw(st.sampled_from(recs))
            recs.append((addrs, warps, itemsize, write))
            continue
        lanes = draw(st.integers(1, 8))
        addrs = [GMEM_BASE + draw(st.integers(0, 24)) for _ in range(lanes)]
        warps = sorted(draw(st.integers(0, 3)) for _ in range(lanes))
        recs.append((np.array(addrs, dtype=np.uint64),
                     np.array(warps, dtype=np.uint32),
                     draw(st.sampled_from([1, 2, 4, 8])), write))
    return recs


@settings(max_examples=400)
@given(_records(), st.sampled_from([1, 1 << 20]))
def test_race_guard_is_exact(recs, fold_lanes):
    # brute force: which warps touched each byte, and which wrote it
    touched, wrote = {}, {}
    for addrs, warps, itemsize, write in recs:
        for a, w in zip(addrs.tolist(), warps.tolist()):
            for b in range(a, a + itemsize):
                touched.setdefault(b, set()).add(w)
                if write:
                    wrote.setdefault(b, set()).add(w)
    want = any(len(touched[b] | ws) > 1 for b, ws in wrote.items())
    guard = RaceGuard()
    guard.FOLD_LANES = fold_lanes
    for rec in recs:
        guard.note(*rec)
    assert guard.conflict() == want


# -- engine-level kernels -------------------------------------------------------

def _run(src, grid, block, arrays, mode):
    unit = parse_translation_unit(src, "t.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "t")
    gmem = LinearMemory(1 << 20, base=GMEM_BASE, name="gmem")
    addrs = []
    for arr in arrays:
        addr = gmem.alloc(arr.nbytes)
        gmem.view(addr, arr.size, arr.dtype)[:] = arr
        addrs.append(np.uint64(addr))
    cache = CompiledKernelCache()
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath=mode, compile_cache=cache)
    stats = engine.launch(module.kernels["k"], Dim3.of(grid), Dim3.of(block),
                          addrs)
    return gmem.buf[:gmem.high_water].copy(), stats, cache


def _same_as_oracle(src, grid, block, arrays):
    buf_off, st_off, _ = _run(src, grid, block, arrays, "off")
    buf_on, st_on, cache = _run(src, grid, block, arrays, "on")
    assert np.array_equal(buf_off, buf_on), "device memory diverged"
    assert dataclasses.asdict(st_on) == dataclasses.asdict(st_off)
    return st_on, cache


RACY = r"""
__global__ void k(int *a, int *out) {
    int t = threadIdx.x;
    a[t] = t + 1;
    out[t] = a[(t + 32) % 64];
}
"""


def test_race_guard_reruns_a_communicating_block_per_warp():
    # warp 0 runs to completion before warp 1 in the oracle, so it reads
    # warp 1's slots before they are written and warp 1 reads warp 0's
    # after; in lockstep both would read the new values
    a = np.zeros(64, dtype=np.int32)
    out = np.zeros(64, dtype=np.int32)
    _stats, cache = _same_as_oracle(RACY, (1, 1, 1), (64, 1, 1), [a, out])
    assert cache.guard_fallbacks == 1
    assert (cache.lockstep_blocks, cache.warp_blocks) == (0, 1)


def test_private_accesses_pass_the_guard():
    src = RACY.replace("a[(t + 32) % 64]", "a[t] * 2")
    a = np.zeros(128, dtype=np.int32)
    out = np.zeros(128, dtype=np.int32)
    _stats, cache = _same_as_oracle(src, (2, 1, 1), (64, 1, 1), [a, out])
    assert (cache.lockstep_blocks, cache.warp_blocks,
            cache.guard_fallbacks) == (2, 0, 0)


@pytest.mark.parametrize("racy", [True, False])
def test_guard_folding_long_runs_stays_exact(monkeypatch, racy):
    # fold the records into spans after every access: the verdict must
    # not change
    monkeypatch.setattr(RaceGuard, "FOLD_LANES", 1)
    src = RACY if racy else RACY.replace("a[(t + 32) % 64]", "a[t] * 2")
    a = np.zeros(64, dtype=np.int32)
    out = np.zeros(64, dtype=np.int32)
    _stats, cache = _same_as_oracle(src, (1, 1, 1), (64, 1, 1), [a, out])
    assert cache.guard_fallbacks == (1 if racy else 0)


def test_warps_leave_a_divergent_loop_at_different_trips():
    # trip counts differ between and within warps; cudadev_getaddr in the
    # body makes the loop a spinning one, so every warp-iteration is a spin
    src = r"""
    __global__ void k(float *a, int *out) {
        int t = threadIdx.x;
        float acc = 0.0f;
        for (int j = 0; j < 2 * (t / 32) + t % 3; j++) {
            float *p = (float *) cudadev_getaddr(a);
            if ((j + t) % 2 == 0) { acc += p[t] * (float) j; }
            else { acc -= 1.0f; }
        }
        out[t] = (int) acc;
    }
    """
    a = np.linspace(-2, 5, 128, dtype=np.float32)
    out = np.zeros(128, dtype=np.int32)
    stats, cache = _same_as_oracle(src, (1, 1, 1), (128, 1, 1), [a, out])
    assert stats.loop_iterations > 0 and stats.spins > 0
    assert stats.divergent_branches > 0
    assert (cache.lockstep_blocks, cache.guard_fallbacks) == (1, 0)


def test_intrinsic_called_per_warp_when_uniform_args_differ():
    # lo differs between warps, so one block-wide call (which reads the
    # first active lane's lo) would hand every warp warp 0's chunk
    src = r"""
    __global__ void k(long *out) {
        int t = threadIdx.x;
        long lo, hi;
        cudadev_get_distribute_chunk((long) (t / 32) * 10, 1000, &lo, &hi);
        out[t] = lo * 10000 + hi;
    }
    """
    out = np.zeros(96, dtype=np.int64)
    _stats, cache = _same_as_oracle(src, (2, 1, 1), (96, 1, 1), [out])
    assert (cache.lockstep_blocks, cache.guard_fallbacks) == (2, 0)


def test_block_wide_access_spanning_two_spaces_goes_row_by_row():
    # warp 0 reads shared memory, warp 1 global memory, through one load
    src = r"""
    __global__ void k(float *a, float *out) {
        __shared__ float s[64];
        int t = threadIdx.x;
        s[t] = (float) t;
        float *p = t < 32 ? s : a;
        out[t] = p[t] + 1.0f;
    }
    """
    a = np.arange(64, dtype=np.float32) * 10
    out = np.zeros(64, dtype=np.float32)
    _stats, cache = _same_as_oracle(src, (1, 1, 1), (64, 1, 1), [a, out])
    assert (cache.lockstep_blocks, cache.guard_fallbacks) == (1, 0)


def test_access_that_faults_only_in_lockstep_reruns_per_warp():
    # in the oracle warp 0 finishes before warp 1 stores its huge index;
    # in lockstep warp 0 reads that index and faults
    src = r"""
    __global__ void k(int *a, int *out) {
        int t = threadIdx.x;
        a[t] = t < 32 ? 0 : 100000000;
        out[t] = out[a[(t + 32) % 64]] + 1;
    }
    """
    a = np.zeros(64, dtype=np.int32)
    out = np.zeros(64, dtype=np.int32)
    _stats, cache = _same_as_oracle(src, (1, 1, 1), (64, 1, 1), [a, out])
    assert (cache.lockstep_blocks, cache.guard_fallbacks) == (0, 1)


def test_barrier_kernel_keeps_the_per_warp_schedule():
    src = r"""
    __global__ void k(float *a, float *b) {
        __shared__ float s[64];
        int t = threadIdx.x;
        s[t] = a[t];
        __syncthreads();
        b[t] = s[63 - t];
    }
    """
    a = np.arange(64, dtype=np.float32)
    b = np.zeros(64, dtype=np.float32)
    _stats, cache = _same_as_oracle(src, (1, 1, 1), (64, 1, 1), [a, b])
    assert (cache.lockstep_blocks, cache.warp_blocks) == (0, 1)


# -- the Figure-4 suite ----------------------------------------------------------

FIG4_SIZES = {"3dconv": 8, "bicg": 64, "atax": 64, "mvt": 64, "gemm": 16,
              "gramschmidt": 12}


@pytest.mark.parametrize("name", ALL_APPS)
def test_figure4_kernels_run_in_lockstep_and_match_the_oracle(name):
    # verify mode runs every launch in lockstep, then through the
    # tree-walker, and fails on any difference in memory or KernelStats
    app = get_app(name)
    n = FIG4_SIZES[name]
    prog = OmpiCompiler(OmpiConfig(block_shape=app.block_shape,
                                   kernel_fastpath="verify",
                                   profile=True)).compile(
        app.omp_source(n), f"ls_{name.replace('3', 'three')}")
    run = prog.run(seed_arrays=app.seed(n), heap_capacity=_heap_capacity(app, n))
    assert run.exit_code == 0
    for out in app.outputs:
        want = app.reference(n, app.seed(n))[out]
        assert np.allclose(run.machine.global_array(out), want,
                           rtol=app.rtol, atol=app.atol)
    cache = run.ort.cudadev.driver.kernel_cache
    per_warp = {ck.kernel.name for _kernel, ck in cache._cache.values()
                if not ck.lockstep}
    master_worker = ({f"{prog.name}_kernel0"} if name == "gramschmidt"
                     else set())
    assert per_warp == master_worker
    execs = run.profile.records("kernel_exec")
    total = sum(r.blocks_run for r in execs)
    mw_blocks = sum(r.blocks_run for r in execs if r.name in master_worker)
    assert cache.lockstep_blocks == total - mw_blocks > 0
    # the tree-walk half of verify mode runs every block per warp
    assert cache.warp_blocks == total + mw_blocks
    assert cache.guard_fallbacks == 0
