"""Uniform values in compiled kernels.

The closure compiler keeps values that are the same on every active lane
(kernel parameters, block ids, counters of uniform loops, one-element
loads) as 0-d numpy scalars, branches on uniform conditions in Python,
and hoists loop-invariant addresses.  Every test here compares the
compiled run with the tree-walker (``fastpath='off'``, the oracle):
memory, stdout and every ``KernelStats`` field must be identical.  The
pitfall tests each pin one way a uniformity analysis can go wrong.
"""

import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from repro.bench.suite import get_app
from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim import compile as sim_compile
from repro.cuda.sim.compile import CompiledKernelCache, compile_kernel
from repro.cuda.sim.engine import FunctionalEngine
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.ompi.cache import CompileCache
from repro.serving import OffloadServer

GMEM_BASE = 0x2_0000_0000


def _run(src, grid, block, arrays, scalars, mode):
    unit = parse_translation_unit(src, "u.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "u")
    gmem = LinearMemory(1 << 20, base=GMEM_BASE, name="gmem")
    addrs = []
    for arr in arrays:
        addr = gmem.alloc(max(arr.nbytes, 1))
        gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
        addrs.append(addr)
    cache = CompiledKernelCache()
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath=mode, compile_cache=cache)
    stats = engine.launch(module.kernels["k"], Dim3.of(grid), Dim3.of(block),
                          [np.uint64(a) for a in addrs] + list(scalars))
    outs = [gmem.view(a, arr.size, arr.dtype).copy()
            for a, arr in zip(addrs, arrays)]
    return gmem.buf[:gmem.high_water].copy(), stats, engine, cache, outs


def same_as_oracle(src, grid, block, arrays, scalars=()):
    """Run compiled and tree-walked; demand identical memory, stdout and
    stats.  Returns the compiled run's outputs and kernel cache."""
    buf, stats, engine, cache, outs = _run(src, grid, block, arrays,
                                           scalars, "on")
    ref_buf, ref_stats, ref_engine, _c, _o = _run(src, grid, block, arrays,
                                                  scalars, "off")
    assert cache.fallbacks == 0, "kernel fell back to the tree-walker"
    assert np.array_equal(buf, ref_buf), "device memory diverged"
    assert engine.stdout == ref_engine.stdout
    diverged = [f.name for f in dataclasses.fields(stats)
                if getattr(stats, f.name) != getattr(ref_stats, f.name)]
    assert not diverged, f"stats diverged on {diverged}"
    return outs, cache


def _i32(n):
    return np.zeros(n, dtype=np.int32)


# -- pitfalls ------------------------------------------------------------------

def test_arms_of_a_divergent_branch_assign_different_constants():
    src = r"""
    __global__ void k(int *out, int n) {
        int t = threadIdx.x;
        int c = 0;
        if (t % 3 == 0) { c = 5; } else { c = 7; }
        out[t] = c + n;
    }
    """
    (out,), _ = same_as_oracle(src, (1, 1, 1), (64, 1, 1), [_i32(64)],
                               [np.int32(100)])
    assert np.array_equal(out, np.where(np.arange(64) % 3 == 0, 105, 107))


@pytest.mark.parametrize("loop", [
    "for (i = 0; i < n; i++) { if (a[t] < i) break; acc += 1; }",
    "for (i = 0; i < t % 5 + n; i++) { acc += 2; }",
])
def test_counter_of_a_loop_lanes_leave_at_different_trips(loop):
    src = r"""
    __global__ void k(int *a, int *out, int n) {
        int t = threadIdx.x;
        int i;
        int acc = 0;
        LOOP
        out[t] = i * 1000 + acc;
    }
    """.replace("LOOP", loop)
    a = (np.arange(64, dtype=np.int32) * 7) % 5
    (_a, out), _ = same_as_oracle(src, (1, 1, 1), (64, 1, 1),
                                  [a, _i32(64)], [np.int32(4)])
    assert len(set(out.tolist())) > 1


def test_value_set_under_a_divergent_branch_read_under_a_wider_mask():
    src = r"""
    __global__ void k(int *out, int n) {
        int t = threadIdx.x;
        int v;
        if (t < 16) { v = n * 2; }
        out[t] = v;
    }
    """
    (out,), _ = same_as_oracle(src, (1, 1, 1), (64, 1, 1), [_i32(64)],
                               [np.int32(21)])
    assert np.array_equal(out, np.where(np.arange(64) < 16, 42, 0))


def test_uniform_address_store_of_a_varying_value_takes_the_highest_lane():
    src = r"""
    __global__ void k(int *out, int n) {
        int t = threadIdx.x;
        if (t < 20) { out[n] = t * 3 + 1; }
    }
    """
    (out,), cache = same_as_oracle(src, (1, 1, 1), (32, 1, 1), [_i32(8)],
                                   [np.int32(5)])
    assert out[5] == 19 * 3 + 1
    assert cache.lockstep_blocks == 1


def test_uniform_address_store_from_two_warps_trips_the_race_guard():
    src = r"""
    __global__ void k(int *out, int n) {
        int t = threadIdx.x;
        out[n] = t * 3 + 1;
    }
    """
    (out,), cache = same_as_oracle(src, (1, 1, 1), (64, 1, 1), [_i32(8)],
                                   [np.int32(2)])
    assert out[2] == 63 * 3 + 1
    assert (cache.guard_fallbacks, cache.lockstep_blocks) == (1, 0)


def test_uniform_int32_wraps_and_divides_by_zero_like_the_lanes():
    src = r"""
    __global__ void k(int *out, int n, int z) {
        int t = threadIdx.x;
        int sq = n * n;
        out[t] = sq / 7 + n / z + n % z + t;
    }
    """
    (out,), _ = same_as_oracle(src, (1, 1, 1), (64, 1, 1), [_i32(64)],
                               [np.int32(50000), np.int32(0)])
    wrapped = np.int64(50000) * 50000 - (1 << 32)
    assert out[0] == int(np.trunc(wrapped / 7)) + 50000


# -- what stays scalar ---------------------------------------------------------

#: numpy operations in one line of generated code: calls, casts, lane
#: reductions, memory accesses and mask algebra
_NP_OP = re.compile(r"\bnp\.\w+\(|\.astype\(|\.any\(\)|\brows\(|"
                    r"\bmem_(?:load|store)\(|\b_bop\(|[&|~]")


def _trip_ops(source: str) -> list[int]:
    """Numpy operations per trip of each innermost loop of a closure."""
    lines = source.splitlines()
    depth = [len(line) - len(line.lstrip()) for line in lines]
    counts = []
    for i, line in enumerate(lines):
        if line.strip() != "while True:":
            continue
        body = []
        for j in range(i + 1, len(lines)):
            if depth[j] <= depth[i]:
                break
            body.append(lines[j])
        if all(b.strip() != "while True:" for b in body):
            counts.append(sum(len(_NP_OP.findall(b)) for b in body))
    return counts


#: per-trip numpy operations of each kernel's innermost loops when every
#: value was a lane vector — the ceiling the compiled kernels must beat —
#: and what they run with uniform values kept scalar, which must not grow
TRIP_OPS = {
    "mvt": {"kernel0": ([29], [11]), "kernel1": ([29], [11])},
    "gemm": {"kernel0": ([29], [11])},
    "gramschmidt": {"kernel0": ([24], [9]), "kernel1": ([27], [21]),
                    "kernel2": ([29, 29], [11, 11])},
}


@pytest.mark.parametrize("name", sorted(TRIP_OPS))
def test_innermost_loops_run_fewer_numpy_ops_per_trip(name):
    app = get_app(name)
    prog = OmpiCompiler(OmpiConfig(block_shape=app.block_shape)).compile(
        app.omp_source(16), f"ops_{name}")
    for kname, (vector, scalar) in TRIP_OPS[name].items():
        kernel = prog.images[f"ops_{name}_{kname}"].module.kernels[
            f"ops_{name}_{kname}"]
        counts = _trip_ops(compile_kernel(kernel).source)
        assert len(counts) == len(vector)
        assert all(c < top for c, top in zip(counts, vector)), (
            kname, counts, vector)
        assert all(c <= top for c, top in zip(counts, scalar)), (
            kname, counts, scalar)


def test_uniform_loop_keeps_its_counter_and_test_scalar():
    src = r"""
    __global__ void k(float *a, float *out, int n) {
        int t = threadIdx.x;
        float acc = 0.0f;
        for (int j = 0; j < n; j++) { acc += a[j] * out[t]; }
        out[t] = acc;
    }
    """
    unit = parse_translation_unit(src, "u.cu")
    kernel = lower_translation_unit(unit, INTRINSIC_SIGS, "u").kernels["k"]
    source = compile_kernel(kernel).source
    # the test is one Python branch; a[j] is one element; out[t] is
    # hoisted and its access planned once per loop entry
    assert re.search(r"if not t\d+: break", source)
    assert re.search(r"mem_load\(warp, h\d+, _D\d+, m, p\d+\)", source)
    a = np.linspace(-1, 1, 8, dtype=np.float32)
    out = np.arange(64, dtype=np.float32)
    same_as_oracle(src, (1, 1, 1), (64, 1, 1), [a, out], [np.int32(8)])


# -- compiled closures live with the kernel IR -----------------------------------

VADD = r'''
float a[256], b[256], c[256];
int main(void)
{
    int i;
    #pragma omp target teams distribute parallel for \
        map(to: a[0:256], b[0:256]) map(from: c[0:256])
    for (i = 0; i < 256; i++)
        c[i] = a[i] + b[i];
    return 0;
}
'''


def test_running_a_program_twice_compiles_each_kernel_once(monkeypatch):
    compiled = []

    def counting(kernel):
        compiled.append(kernel.name)
        return compile_kernel(kernel)

    monkeypatch.setattr(sim_compile, "compile_kernel", counting)
    prog = OmpiCompiler().compile(VADD, "twice")
    first = prog.run()
    second = prog.run()
    assert compiled == ["twice_kernel0"]
    assert first.ort.cudadev.driver.kernel_cache.compiled == 1
    assert second.ort.cudadev.driver.kernel_cache.hits >= 1
    assert np.array_equal(second.machine.global_array("c"),
                          first.machine.global_array("c"))


def test_server_drops_the_closures_of_an_evicted_program():
    cache = CompileCache(max_entries=1)
    server = OffloadServer(num_devices=1, compile_cache=cache)
    session = server.open_session()
    server.submit(session, VADD, name="gone")
    server.drain()
    prog = cache.get(VADD, "gone", server.config)
    kernel = prog.images["gone_kernel0"].module.kernels["gone_kernel0"]
    body = weakref.ref(kernel.closures.body_fn)
    del prog, kernel
    # a never-seen program takes the cache's only entry
    req = server.submit(session, VADD.replace("a[i] + b[i]", "a[i] - b[i]"),
                        name="next")
    server.drain()
    assert req.status == "done" and cache.stats["evictions"] == 1
    gc.collect()
    assert body() is None
    server.close()
