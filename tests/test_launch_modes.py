"""The kernel-launch path: a launch runs every block unless its caller
asked for ``launch_mode="sample"``; the sampling extrapolation scales
exactly the counters ``KernelStats.COUNTERS`` names; and the fast-path
``verify`` mode restores and compares every byte either run changed
without copying the whole device arena."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.driver import CudaDriver
from repro.cuda.nvcc import compile_device
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim.engine import FunctionalEngine, KernelStats, LaunchError
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.serving import OffloadServer

#: well above the 32 768 threads the removed "auto" mode started
#: sampling at
BIG = 65536

DOUBLE = f"""
float a[{BIG}], b[{BIG}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: a) map(from: b)
  for (int i = 0; i < {BIG}; i++) b[i] = 2.0f * a[i];
  return 0;
}}
"""

SCALE = """
__global__ void scale(float *p, float a, int n)
{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) p[i] = a * p[i];
}
"""


def _input():
    return np.arange(1, BIG + 1, dtype=np.float32)


def test_default_run_writes_every_element():
    prog = OmpiCompiler(OmpiConfig()).compile(DOUBLE, "double")
    run = prog.run(seed_arrays={"a": _input()}, num_devices=1)
    assert run.exit_code == 0
    assert run.ort.cudadev.driver.last_kernel_stats.threads_launched >= BIG
    b = np.asarray(run.machine.global_array("b"))
    assert np.array_equal(b, 2.0 * _input())


def test_server_request_writes_every_element():
    with OffloadServer(num_devices=1) as server:
        sess = server.open_session()
        req = server.submit(sess, DOUBLE, name="double",
                            seed_arrays={"a": _input()}, outputs=("b",))
        server.drain()
    assert req.status == "done"
    assert np.array_equal(np.asarray(req.result["b"]), 2.0 * _input())


@pytest.mark.parametrize("mode", ["auto", "sampled", ""])
def test_unknown_launch_mode_rejected(mode):
    with pytest.raises(ValueError, match="launch_mode"):
        CudaDriver(launch_mode=mode)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(KernelStats)])
def test_merge_scaled_scales_exactly_the_counters(name):
    assert set(KernelStats.COUNTERS) <= {
        f.name for f in dataclasses.fields(KernelStats)}
    other = KernelStats()
    default = getattr(other, name)
    if isinstance(default, int):
        setattr(other, name, 10)
    else:
        setattr(other, name, (2, 3, 4))
    acc = KernelStats()
    acc.merge_scaled(other, 3.0)
    want = 30 if name in KernelStats.COUNTERS else default
    assert getattr(acc, name) == want


def test_sampled_launch_runs_every_warp_of_its_sampled_blocks(monkeypatch):
    """A sampled launch of 512-thread blocks runs all 16 warps of each
    sampled block, not a subset of them."""
    drv = CudaDriver(launch_mode="sample")
    drv.cuInit(0)
    drv.cuCtxSetCurrent(drv.cuDevicePrimaryCtxRetain(drv.cuDeviceGet(0)))
    fn = drv.cuModuleGetFunction(
        drv.cuModuleLoadData(compile_device(SCALE, "m")), "scale")
    n = 8 * 512
    ptr = drv.cuMemAlloc(4 * n)
    drv.cuMemcpyHtoD(ptr, np.ones(n, dtype=np.float32))
    runs = []
    launch = FunctionalEngine.launch

    def probe(engine, *args, **kwargs):
        runs.append(launch(engine, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(FunctionalEngine, "launch", probe)
    stats = drv.cuLaunchKernel(fn, 8, 1, 1, 512, 1, 1,
                               kernel_params=[ptr, np.float32(2.0),
                                              np.int32(n)])
    (sampled,) = runs
    assert sampled.blocks_launched == drv.sample_blocks == 3
    assert sampled.warps_launched == 3 * 16
    assert stats.warps_launched == 8 * 16


# -- verify mode ----------------------------------------------------------------

def _scale_launch(fastpath):
    drv = CudaDriver(launch_mode="full", fastpath=fastpath)
    drv.cuInit(0)
    drv.cuCtxSetCurrent(drv.cuDevicePrimaryCtxRetain(drv.cuDeviceGet(0)))
    fn = drv.cuModuleGetFunction(
        drv.cuModuleLoadData(compile_device(SCALE, "m")), "scale")
    n = 256
    ptr = drv.cuMemAlloc(4 * n)
    drv.cuMemcpyHtoD(ptr, np.ones(n, dtype=np.float32))
    return drv, fn, ptr, n


def test_verify_launch_does_not_copy_the_arena():
    drv, fn, ptr, n = _scale_launch("verify")
    assert drv.gmem.capacity > 1 << 30            # the Nano's arena
    tracemalloc.start()
    try:
        drv.cuLaunchKernel(fn, 1, 1, 1, n, 1, 1,
                           kernel_params=[ptr, np.float32(3.0), np.int32(n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    out = np.frombuffer(drv.cuMemcpyDtoH(ptr, 4 * n), dtype=np.float32)
    assert np.array_equal(out, np.full(n, 3.0, dtype=np.float32))


def _verify_engine():
    gmem = LinearMemory(1 << 20, base=0x2_0000_0000, name="gmem")
    ptr = gmem.alloc(4 * 32)
    gmem.view(ptr, 32, np.float32)[:] = 1.0
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath="verify")
    module = lower_translation_unit(parse_translation_unit(SCALE, "t.cu"),
                                    INTRINSIC_SIGS, "t")
    kernel = module.kernels["scale"]
    params = [np.uint64(ptr), np.float32(2.0), np.int32(32)]
    return engine, gmem, kernel, params


@pytest.mark.parametrize("writer", ["fast", "reference"])
def test_verify_compares_bytes_above_the_mark(writer, monkeypatch):
    """A byte only one of the two runs writes, above everything written
    before the launch, is still compared."""
    engine, gmem, kernel, params = _verify_engine()
    far = gmem.base + gmem.high_water + 4096
    launch = engine._launch

    def skewed(*args):
        stats = launch(*args)
        if (args[-1] is not None) == (writer == "fast"):
            gmem.store(far, np.uint8, 7)
        return stats

    monkeypatch.setattr(engine, "_launch", skewed)
    with pytest.raises(LaunchError, match="global memory"):
        engine.launch(kernel, Dim3(1, 1, 1), Dim3(32, 1, 1), params)


def test_verify_rolls_back_the_fast_run_above_the_mark(monkeypatch):
    """The fast run's writes above the pre-launch mark are undone before
    the reference run, so a reference run that writes nothing there
    leaves those bytes zero."""
    engine, gmem, kernel, params = _verify_engine()
    far = gmem.base + gmem.high_water + 4096
    launch = engine._launch
    seen = []

    def probe(*args):
        if args[-1] is None:                     # the reference run
            seen.append(int(gmem.load(far, np.uint8)))
        stats = launch(*args)
        if args[-1] is not None:
            gmem.store(far, np.uint8, 7)
        return stats

    monkeypatch.setattr(engine, "_launch", probe)
    with pytest.raises(LaunchError, match="global memory"):
        engine.launch(kernel, Dim3(1, 1, 1), Dim3(32, 1, 1), params)
    assert seen == [0]


def test_driver_engines_share_one_kernel_cache():
    drv, fn, ptr, n = _scale_launch("on")
    for _ in range(3):
        drv.cuLaunchKernel(fn, 1, 1, 1, n, 1, 1,
                           kernel_params=[ptr, np.float32(2.0), np.int32(n)])
    assert (drv.kernel_cache.compiled, drv.kernel_cache.hits) == (1, 2)
