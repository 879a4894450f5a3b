"""Benchmark execution harness.

Reproduces the paper's measurement protocol: each (application, size,
version) runs on the simulated board; the reported time is "kernel
execution time, plus any required memory operations", averaged over 10
runs (run-to-run variation is modelled with a seeded multiplicative
jitter, matching the paper's "negligible variation among runs").
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bench.apps.base import AppSpec
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import DeviceProperties, JETSON_NANO_GPU
from repro.cuda.driver import CudaDriver
from repro.cuda.runtimeapi import CudaRuntime
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.timing import calibration as C
from repro.timing.stats import EventLog


@dataclass
class BenchResult:
    app: str
    size: int
    version: str                    # 'cuda' | 'ompi'
    measured_s: float               # the paper's metric, single run
    runs: list[float] = field(default_factory=list)
    kernel_s: float = 0.0
    memory_s: float = 0.0
    launches: int = 0
    log: Optional[EventLog] = None

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.runs)) if self.runs else self.measured_s


def _jittered_runs(app: str, size: int, version: str, measured: float,
                   nruns: int = 10) -> list[float]:
    seed = int.from_bytes(
        hashlib.sha256(f"{app}/{size}/{version}".encode()).digest()[:4], "big"
    )
    rng = np.random.default_rng(seed)
    return [float(measured * (1.0 + C.RUN_JITTER_SIGMA * z))
            for z in rng.standard_normal(nruns)]


def _finish(app: AppSpec, n: int, version: str, log: EventLog) -> BenchResult:
    measured = log.measured_time
    return BenchResult(
        app=app.name, size=n, version=version,
        measured_s=measured,
        runs=_jittered_runs(app.name, n, version, measured),
        kernel_s=log.kernel_time,
        memory_s=log.memory_time,
        launches=log.count("kernel"),
        log=log,
    )


def _heap_capacity(app: AppSpec, n: int) -> int:
    return max(app.mem_bytes(n) + (64 << 20), 256 << 20)


def _prog_name(app: AppSpec, n: int) -> str:
    """C-identifier-safe program name (app names may start with a digit)."""
    return "p" + re.sub(r"[^A-Za-z0-9_]", "_", f"{app.name}_{n}")


def run_ompi(app: AppSpec, n: int, launch_mode: str = "sample",
             binary_mode: str = "cubin",
             fastpath: Optional[str] = None,
             host_fastpath: Optional[str] = None,
             profile=None) -> tuple[BenchResult, Machine]:
    config = OmpiConfig(block_shape=app.block_shape, binary_mode=binary_mode,
                        kernel_fastpath=fastpath,
                        host_fastpath=host_fastpath, profile=profile)
    prog = OmpiCompiler(config).compile(app.omp_source(n), _prog_name(app, n))
    run = prog.run(launch_mode=launch_mode,
                   seed_arrays=app.seed(n),
                   heap_capacity=_heap_capacity(app, n))
    return _finish(app, n, "ompi", run.log), run.machine


def run_cuda(app: AppSpec, n: int, launch_mode: str = "sample",
             device: DeviceProperties = JETSON_NANO_GPU,
             binary_mode: str = "cubin",
             fastpath: Optional[str] = None) -> tuple[BenchResult, Machine]:
    unit = parse_translation_unit(app.cuda_source(n), f"{app.name}_{n}.cu")
    machine = Machine(unit, heap_capacity=_heap_capacity(app, n))
    driver = CudaDriver(device, launch_mode=launch_mode, fastpath=fastpath)
    CudaRuntime(machine, driver, unit, mode=binary_mode)
    for name, values in app.seed(n).items():
        if name in machine.globals:
            machine.global_array(name)[...] = values
    machine.run()
    return _finish(app, n, "cuda", driver.log), machine


def run_app(app: AppSpec, n: int, version: str,
            launch_mode: str = "sample", **kw) -> BenchResult:
    if version == "cuda":
        return run_cuda(app, n, launch_mode, **kw)[0]
    if version == "ompi":
        return run_ompi(app, n, launch_mode, **kw)[0]
    raise ValueError(f"unknown version {version!r}")


@dataclass
class VerifyOutcome:
    app: str
    size: int
    ok_cuda: bool
    ok_ompi: bool
    max_err_cuda: float
    max_err_ompi: float

    @property
    def ok(self) -> bool:
        return self.ok_cuda and self.ok_ompi


def _max_rel_err(got: np.ndarray, want: np.ndarray, atol: float) -> float:
    denom = np.maximum(np.abs(want), atol)
    return float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))
                        / denom))


def verify_app(app: AppSpec, n: Optional[int] = None) -> VerifyOutcome:
    """Run both versions fully (no sampling) at a small size and compare
    every output array against the sequential numpy reference."""
    n = n or app.verify_size
    data = app.seed(n)
    expect = app.reference(n, data)
    _, m_cuda = run_cuda(app, n, launch_mode="full")
    _, m_ompi = run_ompi(app, n, launch_mode="full")
    ok_c = ok_o = True
    err_c = err_o = 0.0
    for out in app.outputs:
        want = expect[out]
        got_c = np.asarray(m_cuda.global_array(out)).reshape(want.shape)
        got_o = np.asarray(m_ompi.global_array(out)).reshape(want.shape)
        err_c = max(err_c, _max_rel_err(got_c, want, app.atol))
        err_o = max(err_o, _max_rel_err(got_o, want, app.atol))
        ok_c &= bool(np.allclose(got_c, want, rtol=app.rtol, atol=app.atol))
        ok_o &= bool(np.allclose(got_o, want, rtol=app.rtol, atol=app.atol))
    return VerifyOutcome(app.name, n, ok_c, ok_o, err_c, err_o)
