"""Tests for PTX/cubin images and the JIT + disk cache (paper §3.3)."""

import pytest

from repro.cuda.device import JETSON_NANO_GPU, JETSON_TX2_GPU
from repro.cuda.errors import CudaError
from repro.cuda.nvcc import NvccError, compile_device
from repro.cuda.ptx.images import (
    CubinImage, PtxImage, assemble_cubin, identify_image,
)
from repro.cuda.ptx.jit import JitCache, jit_compile

SRC = """
__global__ void k1(float *p) { p[threadIdx.x] = 1.0f; }
__global__ void k2(float *p, int n) {
    int i = threadIdx.x;
    if (i < n) p[i] = 2.0f;
}
"""


def test_compile_modes_produce_distinct_image_types():
    ptx = compile_device(SRC, "m", mode="ptx")
    cubin = compile_device(SRC, "m", mode="cubin")
    assert isinstance(ptx, PtxImage)
    assert isinstance(cubin, CubinImage)
    assert cubin.arch == "sm_53"
    assert set(cubin.resources) == {"k1", "k2"}


def test_bad_mode_rejected():
    with pytest.raises(NvccError):
        compile_device(SRC, "m", mode="sass")


def test_no_kernels_rejected():
    with pytest.raises(NvccError):
        compile_device("int x;", "m")


def test_ptx_image_bytes_roundtrip():
    ptx = compile_device(SRC, "m", mode="ptx")
    again = PtxImage.from_bytes(ptx.to_bytes())
    assert again.text == ptx.text
    assert set(again.module.kernels) == {"k1", "k2"}
    assert again.content_hash() == ptx.content_hash()


def test_cubin_image_bytes_roundtrip():
    cubin = compile_device(SRC, "m", mode="cubin")
    again = CubinImage.from_bytes(cubin.to_bytes())
    assert again.arch == cubin.arch
    assert again.resources == cubin.resources


def test_identify_image():
    ptx = compile_device(SRC, "m", mode="ptx")
    cubin = compile_device(SRC, "m", mode="cubin")
    assert identify_image(ptx.to_bytes()) == "ptx"
    assert identify_image(cubin.to_bytes()) == "cubin"
    with pytest.raises(CudaError):
        identify_image(b"ELF\x7f not really")


def test_ptx_images_are_architecture_agnostic():
    ptx = compile_device(SRC, "m", mode="ptx")
    r_nano = jit_compile(ptx, JETSON_NANO_GPU)
    r_tx2 = jit_compile(ptx, JETSON_TX2_GPU)
    assert r_nano.image.arch == "sm_53"
    assert r_tx2.image.arch == "sm_62"


def test_jit_cache_hit_is_cheaper(tmp_path):
    cache = JitCache(tmp_path)
    ptx = compile_device(SRC, "m", mode="ptx")
    cold = jit_compile(ptx, JETSON_NANO_GPU, cache)
    warm = jit_compile(ptx, JETSON_NANO_GPU, cache)
    assert not cold.cached and warm.cached
    assert warm.compile_time_s < cold.compile_time_s / 5


def test_jit_cache_keyed_by_arch(tmp_path):
    cache = JitCache(tmp_path)
    ptx = compile_device(SRC, "m", mode="ptx")
    jit_compile(ptx, JETSON_NANO_GPU, cache)
    other = jit_compile(ptx, JETSON_TX2_GPU, cache)
    assert not other.cached     # different sm -> different cache entry


def test_jit_cache_keyed_by_content(tmp_path):
    cache = JitCache(tmp_path)
    jit_compile(compile_device(SRC, "m", mode="ptx"), JETSON_NANO_GPU, cache)
    changed = SRC.replace("2.0f", "3.0f")
    result = jit_compile(compile_device(changed, "m", mode="ptx"),
                         JETSON_NANO_GPU, cache)
    assert not result.cached


def test_jit_cache_clear(tmp_path):
    cache = JitCache(tmp_path)
    ptx = compile_device(SRC, "m", mode="ptx")
    jit_compile(ptx, JETSON_NANO_GPU, cache)
    cache.clear()
    assert not jit_compile(ptx, JETSON_NANO_GPU, cache).cached


def test_jit_compile_time_scales_with_kernel_size():
    small = compile_device("__global__ void k(float *p) { p[0] = 1.0f; }",
                           "m", mode="ptx")
    big_body = "\n".join(f"p[{i}] = {i}.0f;" for i in range(200))
    big = compile_device("__global__ void k(float *p) { %s }" % big_body,
                         "m", mode="ptx")
    t_small = jit_compile(small, JETSON_NANO_GPU).compile_time_s
    t_big = jit_compile(big, JETSON_NANO_GPU).compile_time_s
    assert t_big > t_small


def test_resource_estimation_orders_by_complexity():
    simple = compile_device("__global__ void k(float *p) { p[0] = 1.0f; }", "m")
    complex_src = """
    __global__ void k(float *p, int n) {
        int i, acc = 0;
        for (i = 0; i < n; i++)
            acc += i * i + (acc >> 1);
        p[threadIdx.x] = (float) acc;
    }
    """
    complex_ = compile_device(complex_src, "m")
    assert complex_.resources["k"]["registers"] >= simple.resources["k"]["registers"]
    assert complex_.resources["k"]["static_ops"] > simple.resources["k"]["static_ops"]


def test_excessive_shared_memory_rejected_at_jit():
    src = "__global__ void k(void) { __shared__ float buf[20000]; }"
    ptx = compile_device(src, "m", mode="ptx")
    with pytest.raises(CudaError):
        jit_compile(ptx, JETSON_NANO_GPU)
