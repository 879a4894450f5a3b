"""Tests for the repro.prof observability subsystem (ISSUE 3).

Covers the CUPTI-style activity recorder (ring bounds, disabled-mode
zero emission, fastpath-independence of the record stream), the OMPT
callback registry, the Chrome-trace exporter, the per-kernel metrics
table, and the end-to-end wiring through OmpiConfig / the CLI.
"""

import json

import numpy as np
import pytest

from repro.bench.harness import run_ompi
from repro.bench.suite import get_app
from repro.cuda.device import JETSON_NANO_GPU
from repro.cuda.driver import CudaDriver
from repro.cuda.nvcc import compile_device
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.prof.activity import (
    ActivityRecorder, KernelActivity, MemcpyActivity, resolve_profile,
)
from repro.prof.chrome import chrome_trace, write_chrome_trace
from repro.prof.metrics import format_metrics_table, kernel_metrics
from repro.prof.ompt import OMPT_EVENTS, OmptError, OmptRegistry
from repro.prof.report import summary

VADD_SRC = """
#include <stdio.h>
float a[256], b[256], c[256];
int main() {
    int i;
    for (i = 0; i < 256; i++) { a[i] = i; b[i] = 2 * i; }
    #pragma omp target map(to: a, b) map(from: c)
    #pragma omp teams distribute parallel for
    for (i = 0; i < 256; i++) c[i] = a[i] + b[i];
    printf("c[10]=%f\\n", c[10]);
    return 0;
}
"""

NOWAIT_SRC = """
float a[256], b[256];
int main() {
    int i;
    for (i = 0; i < 256; i++) { a[i] = i; b[i] = 0; }
    #pragma omp target map(tofrom: a) nowait depend(out: a)
    #pragma omp teams distribute parallel for
    for (i = 0; i < 256; i++) a[i] = a[i] * 2.0f;
    #pragma omp target map(to: a) map(from: b) nowait depend(in: a)
    #pragma omp teams distribute parallel for
    for (i = 0; i < 256; i++) b[i] = a[i] + 1.0f;
    #pragma omp taskwait
    return 0;
}
"""

SCALE_SRC = """
__global__ void scale(float *p, float a, int n)
{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) p[i] = a * p[i];
}
"""


def run_profiled(source, name="prog", fastpath=None, recorder=None):
    rec = recorder or ActivityRecorder()
    config = OmpiConfig(profile=rec, kernel_fastpath=fastpath)
    run = OmpiCompiler(config).compile(source, name).run()
    return rec, run


def make_driver(**kw):
    drv = CudaDriver(**kw)
    drv.cuInit(0)
    ctx = drv.cuDevicePrimaryCtxRetain(drv.cuDeviceGet(0))
    drv.cuCtxSetCurrent(ctx)
    return drv


# -- recorder core ------------------------------------------------------------

def test_ring_buffer_bounds_and_drop_count():
    rec = ActivityRecorder(capacity=4)
    for i in range(10):
        rec.emit(KernelActivity(name=f"k{i}"))
    assert len(rec) == 4
    assert rec.dropped == 6
    assert rec.emitted == 10
    # oldest-first loss: the retained records are the newest four
    assert [r.name for r in rec] == ["k6", "k7", "k8", "k9"]
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0 and rec.emitted == 0


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ActivityRecorder(capacity=0)


def test_record_filters_and_identity():
    rec = ActivityRecorder()
    rec.emit(KernelActivity(name="k", wall_s=1.23))
    rec.emit(MemcpyActivity(direction="h2d", nbytes=16))
    assert [r.kind for r in rec.records()] == ["kernel", "memcpy"]
    assert len(rec.records("kernel")) == 1
    ident = rec.records("kernel")[0].identity()
    assert "wall_s" not in ident
    assert ident["name"] == "k"
    assert rec.records("kernel")[0].to_dict()["wall_s"] == 1.23


def test_resolve_profile_specs():
    assert resolve_profile(None) == (None, None)
    assert resolve_profile(False) == (None, None)
    assert resolve_profile("off") == (None, None)
    rec, path = resolve_profile(True)
    assert isinstance(rec, ActivityRecorder) and path is None
    rec, path = resolve_profile(64)
    assert rec.capacity == 64
    rec, path = resolve_profile("trace.json")
    assert isinstance(rec, ActivityRecorder) and path == "trace.json"
    mine = ActivityRecorder()
    assert resolve_profile(mine) == (mine, None)


# -- zero emission when disabled ----------------------------------------------

def test_disabled_profiling_emits_nothing():
    config = OmpiConfig(profile=False)
    run = OmpiCompiler(config).compile(VADD_SRC, "vadd").run()
    assert run.profile is None
    assert run.ort.cudadev.driver.prof is None
    assert run.ort.cudadev.driver.streams.recorder is None


def test_driver_default_has_no_recorder():
    drv = make_driver()
    assert drv.prof is None
    ptr = drv.cuMemAlloc(64)
    drv.cuMemcpyHtoD(ptr, np.zeros(16, dtype=np.float32))
    drv.cuMemFree(ptr)  # all hooks must be silent no-ops


# -- fastpath independence -----------------------------------------------------

def test_records_identical_across_fastpath_modes():
    """REPRO_KERNEL_FASTPATH=on|off must emit identical record streams
    (modulo host wall-clock, which identity() strips)."""
    ids = {}
    for mode in ("on", "off"):
        rec, run = run_profiled(VADD_SRC, "vadd", fastpath=mode)
        assert "c[10]=30" in run.stdout
        ids[mode] = rec.identities()
    assert ids["on"] == ids["off"]
    kinds = [r["kind"] for r in ids["on"]]
    assert "kernel" in kinds and "kernel_exec" in kinds and "memcpy" in kinds


# -- driver-level records ------------------------------------------------------

def test_kernel_record_carries_launch_geometry_and_counters():
    drv = make_driver(profile=ActivityRecorder())
    handle = drv.cuModuleLoadData(compile_device(SCALE_SRC, "m"))
    fn = drv.cuModuleGetFunction(handle, "scale")
    n = 256
    ptr = drv.cuMemAlloc(4 * n)
    drv.cuMemcpyHtoD(ptr, np.ones(n, dtype=np.float32))
    drv.cuLaunchKernel(fn, n // 32, 1, 1, 32, 1, 1,
                       kernel_params=[ptr, np.float32(2.0), np.int32(n)])
    (k,) = drv.prof.records("kernel")
    assert k.name == "scale"
    assert k.grid == (8, 1, 1) and k.block == (32, 1, 1)
    assert k.modelled_s > 0 and k.t_end > k.t_start
    assert k.instructions > 0 and k.global_transactions > 0
    assert k.bound in ("compute", "bandwidth", "latency")
    assert k.occupancy_warps > 0
    (x,) = drv.prof.records("kernel_exec")
    assert x.name == "scale" and x.blocks_run > 0 and x.warps_run > 0


def test_memcpy_records_have_bytes_and_bandwidth():
    drv = make_driver(profile=ActivityRecorder())
    ptr = drv.cuMemAlloc(1 << 16)
    drv.cuMemcpyHtoD(ptr, np.zeros(1 << 14, dtype=np.float32))
    drv.cuMemcpyDtoH(ptr, 1 << 16)
    h2d, d2h = drv.prof.records("memcpy")
    assert (h2d.direction, d2h.direction) == ("h2d", "d2h")
    assert h2d.nbytes == d2h.nbytes == 1 << 16
    assert h2d.bandwidth_gbps > 0 and d2h.bandwidth_gbps > 0
    assert h2d.duration > 0


def test_memory_records_track_watermark():
    drv = make_driver(profile=ActivityRecorder())
    a = drv.cuMemAlloc(1024)
    b = drv.cuMemAlloc(2048)
    drv.cuMemFree(a)
    drv.cuMemFree(b)
    recs = drv.prof.records("memory")
    assert [r.op for r in recs] == ["alloc", "alloc", "free", "free"]
    assert recs[1].in_use == 3072 and recs[1].peak == 3072
    assert recs[3].in_use == 0 and recs[3].peak == 3072


def test_stream_wait_records_only_real_stalls():
    drv = make_driver(profile=ActivityRecorder())
    fast = drv.cuStreamCreate(flags=0x1)
    slow = drv.cuStreamCreate(flags=0x1)
    ptr = drv.cuMemAlloc(1 << 20)
    drv.cuMemcpyHtoDAsync(ptr, bytes(1 << 20), slow)
    ev = drv.cuEventCreate()
    drv.cuEventRecord(ev, slow)
    drv.cuStreamWaitEvent(fast, ev)      # fast is behind slow: real stall
    drv.cuStreamWaitEvent(fast, ev)      # already past the mark: no-op
    waits = drv.prof.records("stream_wait")
    assert len(waits) == 1
    assert waits[0].stream == fast and waits[0].event == ev
    assert waits[0].duration > 0


def test_task_records_cover_nowait_lifecycle():
    rec, _run = run_profiled(NOWAIT_SRC, "nowait")
    tasks = rec.records("task")
    ops = [t.op for t in tasks]
    assert ops.count("begin") == 2 and ops.count("end") == 2
    assert "taskwait" in ops
    second = [t for t in tasks if t.op == "begin"][1]
    assert second.preds == (1,)          # depend(in: a) after depend(out: a)
    assert second.stream is not None


# -- acceptance: modelled kernel time matches the event log --------------------

def test_summed_kernel_time_matches_event_log():
    rec, run = run_profiled(VADD_SRC, "vadd")
    total = sum(k.modelled_s for k in rec.records("kernel"))
    assert total == pytest.approx(run.log.kernel_time, rel=1e-12)


def test_gemm_profile_matches_stats(tmp_path):
    rec = ActivityRecorder()
    res, _m = run_ompi(get_app("gemm"), 64, profile=rec)
    kernels = rec.records("kernel")
    assert kernels, "gemm run must emit kernel records"
    assert sum(k.modelled_s for k in kernels) == pytest.approx(
        res.log.kernel_time, rel=1e-12)
    assert rec.records("memcpy")
    trace = chrome_trace(rec)
    json.dumps(trace)  # must be serialisable


# -- OMPT registry -------------------------------------------------------------

def test_ompt_registry_dispatch_and_errors():
    reg = OmptRegistry()
    assert not reg.active
    seen = []
    reg.set_callback("submit", lambda **kw: seen.append(kw))
    assert reg.active
    reg.dispatch("submit", kernel="k", teams=(1, 1, 1))
    assert seen == [{"event": "submit", "kernel": "k", "teams": (1, 1, 1)}]
    with pytest.raises(OmptError):
        reg.set_callback("no_such_event", lambda **kw: None)
    fn = reg.callbacks("submit")[0]
    reg.remove_callback("submit", fn)
    assert not reg.active
    with pytest.raises(OmptError):
        reg.remove_callback("submit", fn)


def test_ompt_callbacks_fire_in_order():
    order = []

    def cb(event, **kw):
        order.append((event, kw.get("kernel")))

    config = OmpiConfig()
    prog = OmpiCompiler(config).compile(VADD_SRC, "vadd")
    run = prog.run(ompt={e: cb for e in OMPT_EVENTS})
    assert "c[10]=30" in run.stdout
    events = [e for e, _ in order]
    # two to-maps + one from-map alloc, then the target region bracketing
    # the device submit, transfers, and the unmaps
    assert events.count("target_begin") == 1
    assert events.count("target_end") == 1
    assert events.count("submit") == 1
    assert events.index("target_begin") < events.index("submit")
    assert events.index("submit") < events.index("target_end")
    datops = [kw for e, kw in order if e == "submit"]
    assert datops == ["vadd_kernel0"]
    assert events.count("data_op") >= 6  # 3 allocs + transfers + 3 deletes


# -- chrome trace --------------------------------------------------------------

def test_chrome_trace_schema(tmp_path):
    rec, _run = run_profiled(VADD_SRC, "vadd")
    path = tmp_path / "trace.json"
    write_chrome_trace(rec, path)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    names_by_ph = {}
    for ev in events:
        assert {"ph", "pid", "name"} <= set(ev)
        if ev["ph"] == "X":
            assert "tid" in ev and ev["dur"] >= 0 and "ts" in ev
        names_by_ph.setdefault(ev["ph"], []).append(ev["name"])
    # track metadata + kernel/memcpy spans must be present
    assert "process_name" in names_by_ph.get("M", [])
    spans = names_by_ph.get("X", [])
    assert any("kernel0" in n for n in spans)
    assert any("HtoD" in n or "h2d" in n for n in spans)


def test_chrome_trace_has_stream_and_engine_tracks():
    rec, _run = run_profiled(NOWAIT_SRC, "nowait")
    doc = chrome_trace(rec)
    kernel_events = [ev for ev in doc["traceEvents"]
                     if ev.get("cat") == "kernel"]
    pids = {ev["pid"] for ev in kernel_events}
    assert len(pids) == 2  # each kernel appears on its stream AND its engine


# -- metrics + report ----------------------------------------------------------

def test_metrics_table_contents():
    rec, _run = run_profiled(VADD_SRC, "vadd")
    metrics = kernel_metrics(rec)
    assert len(metrics) == 1
    m = metrics[0]
    assert m.name == "vadd_kernel0" and m.launches == 1
    assert 0 < m.coalescing_efficiency <= 1
    assert 0 <= m.divergence_ratio <= 1
    table = format_metrics_table(metrics)
    assert "vadd_kernel0" in table and "coalesce" in table


def test_summary_report_sections():
    rec, _run = run_profiled(VADD_SRC, "vadd")
    text = summary(rec)
    assert "kernel time (modelled)" in text
    assert "HtoD" in text and "DtoH" in text
    assert "device memory peak" in text
    assert "vadd_kernel0" in text


def test_summary_of_empty_recorder():
    assert "no activity recorded" in summary(ActivityRecorder())


# -- CLI ------------------------------------------------------------------------

def test_cli_profile_flag_writes_trace(tmp_path, capsys):
    from repro.ompi.cli import main
    src = tmp_path / "vadd.c"
    src.write_text(VADD_SRC)
    trace = tmp_path / "trace.json"
    assert main([str(src), "--profile", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"]
    err = capsys.readouterr().err
    assert "repro.prof summary" in err
    assert "chrome trace written" in err
