"""Tests for extension features: declare-target globals, device
generalisation (other Jetson boards), the preliminary OpenCL module."""

import numpy as np
import pytest

from repro.devices import get_backend
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.ompi.codegen_opencl import OpenCLXformError, opencl_kernel_source

DT_SRC = r'''
#pragma omp declare target
float scalebuf[4];
#pragma omp end declare target

float v[64];

int main(void)
{
    int i, n = 64;
    for (i = 0; i < 4; i++) scalebuf[i] = 2.0f + i;
    #pragma omp target update to(scalebuf[0:4])
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n], n) \
        num_teams(1) num_threads(64)
    for (i = 0; i < n; i++)
        v[i] = v[i] * scalebuf[i % 4];
    return 0;
}
'''


def test_declare_target_global_device_resident():
    prog = OmpiCompiler().compile(DT_SRC, "dtg")
    run = prog.run(seed_arrays={"v": np.ones(64, dtype=np.float32)})
    v = run.machine.global_array("v")
    expect = np.tile([2.0, 3.0, 4.0, 5.0], 16).astype(np.float32)
    assert np.allclose(v, expect)


def test_declare_target_global_in_kernel_file():
    prog = OmpiCompiler().compile(DT_SRC, "dtg")
    text = prog.kernel_sources["dtg_kernel0"]
    assert "__device__ float scalebuf[4];" in text


def test_declare_target_update_from_device():
    src = r'''
    #pragma omp declare target
    int counter[1];
    #pragma omp end declare target
    int main(void)
    {
        int i;
        #pragma omp target teams distribute parallel for num_teams(1) num_threads(32)
        for (i = 0; i < 32; i++)
        {
            #pragma omp atomic
            counter[0] += 1;
        }
        #pragma omp target update from(counter[0:1])
        return 0;
    }
    '''
    prog = OmpiCompiler().compile(src, "dtc")
    run = prog.run()
    assert run.machine.global_array("counter")[0] == 32


SAXPY = r'''
float x[4096], y[4096];
int main(void)
{
    int i, n = 4096;
    #pragma omp target teams distribute parallel for \
        map(to: x[0:n], n) map(tofrom: y[0:n]) num_teams(16) num_threads(256)
    for (i = 0; i < n; i++)
        y[i] = 2.0f * x[i] + y[i];
    return 0;
}
'''


def test_module_generalises_to_other_boards():
    """Paper §4.2: 'the module has been designed to be quite general so
    that it can be adapted to support other cuda-based gpus as well' —
    same program, three boards."""
    # ptx mode so one build runs on every architecture (cubins are per-sm)
    prog = OmpiCompiler(OmpiConfig(binary_mode="ptx")).compile(SAXPY, "gen")
    seed = {"x": np.arange(4096, dtype=np.float32),
            "y": np.ones(4096, dtype=np.float32)}
    times = {}
    for board in ("nano2gb", "nano4gb", "tx2"):
        run = prog.run(devices=board, seed_arrays=seed)
        assert np.allclose(run.machine.global_array("y"),
                           2.0 * np.arange(4096) + 1)
        times[board] = run.measured_time
        assert run.ort.cudadev.attributes["MULTIPROCESSOR_COUNT"] == \
            get_backend(board).props.multiprocessor_count
    # identical silicon, identical time; the TX2 is faster
    nano2, nano4, tx2 = times.values()
    assert nano2 == pytest.approx(nano4)
    assert tx2 < nano2


def test_cubin_bind_retargets_to_device_arch():
    """A cubin is per-sm: binding an sm_62 build to a Nano (and an sm_53
    build to a TX2) re-assembles the kernel for the device's arch.  The
    driver's own cross-arch rejection is covered in test_devices.py."""
    seed = {"x": np.arange(4096, dtype=np.float32),
            "y": np.ones(4096, dtype=np.float32)}
    for arch, board in (("sm_62", "nano"), ("sm_53", "tx2")):
        prog = OmpiCompiler(OmpiConfig(arch=arch)).compile(SAXPY, "gen" + arch)
        run = prog.run(devices=board, seed_arrays=seed)
        assert np.allclose(run.machine.global_array("y"),
                           2.0 * np.arange(4096) + 1)
        want = get_backend(board).arch
        assert prog.images[f"gen{arch}_kernel0"].arch == arch
        assert prog.images[f"gen{arch}_kernel0@{want}"].arch == want


def test_ptx_mode_is_architecture_portable():
    prog = OmpiCompiler(OmpiConfig(binary_mode="ptx")).compile(SAXPY, "genptx")
    seed = {"x": np.zeros(4096, dtype=np.float32),
            "y": np.ones(4096, dtype=np.float32)}
    for board in ("nano2gb", "tx2"):
        run = prog.run(devices=board, seed_arrays=seed)
        assert (run.machine.global_array("y") == 1.0).all()


# -- preliminary OpenCL module -------------------------------------------------

def test_opencl_codegen_combined():
    prog = OmpiCompiler().compile(SAXPY, "ocl")
    text = opencl_kernel_source(prog.plans[0])
    assert "__kernel void ocl_kernel0(" in text
    assert "__global float *x" in text
    assert "cudadev_get_distribute_chunk" in text
    assert "threadIdx" not in text and "blockIdx" not in text


def test_opencl_codegen_rejects_masterworker():
    src = r'''
    float y[64];
    int main(void)
    {
        #pragma omp target map(tofrom: y)
        {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 64; i++) y[i] = 1.0f;
        }
        return 0;
    }
    '''
    prog = OmpiCompiler().compile(src, "oclmw")
    with pytest.raises(OpenCLXformError):
        opencl_kernel_source(prog.plans[0])
