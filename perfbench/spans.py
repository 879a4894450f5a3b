"""Wall-clock spans around the public functions of each layer.

The tracer wraps the layer entry points listed in :data:`LAYERS` from
outside the package: module-level functions are replaced in every loaded
``repro`` module that imported them by name, methods are replaced on
their class.  Each call records one span ``[layer, start, end, parent]``
in memory; a layer's self time is its spans' time minus the time of
their direct child spans.  :meth:`Tracer.uninstall` puts every original
back, so nothing stays wrapped after a traced run.

:class:`StatsProbe` is the one wrapper both the traced and the untraced
run install: it folds every kernel launch's ``KernelStats`` and modelled
kernel time into a digest, the simulator-identity check.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import sys
import time
from typing import Callable

import numpy as np

#: (layer, "module" or "module:Class", attribute) — the public entry
#: points each layer span times.  Several targets may share one layer:
#: a span nested in a span of its own layer counts no extra call.
LAYERS = (
    ("cfront.parse", "repro.cfront.parser", "parse_translation_unit"),
    ("openmp.validate", "repro.openmp.validator", "validate_unit"),
    ("ompi.xform", "repro.ompi.compiler:OmpiCompiler", "compile"),
    ("cuda.nvcc", "repro.cuda.nvcc", "compile_device"),
    ("cuda.ptx.assemble", "repro.cuda.ptx.images", "assemble_cubin"),
    ("ompi.cache", "repro.ompi.cache:CompileCache", "get"),
    ("ompi.bind", "repro.ompi.compiler:CompiledProgram", "bind"),
    ("cfront.host", "repro.cfront.interp:Machine", "run"),
    ("cuda.sim.compile", "repro.cuda.sim.compile", "compile_kernel"),
    ("cuda.sim.exec", "repro.cuda.sim.engine:FunctionalEngine", "launch"),
    ("cuda.driver.launch", "repro.cuda.driver:CudaDriver", "cuLaunchKernel"),
    ("cuda.driver.launch", "repro.cuda.driver:CudaDriver", "_sampled_launch"),
    ("cuda.driver.copy", "repro.cuda.driver:CudaDriver", "cuMemcpyHtoD"),
    ("cuda.driver.copy", "repro.cuda.driver:CudaDriver", "cuMemcpyHtoDAsync"),
    ("cuda.driver.copy", "repro.cuda.driver:CudaDriver", "cuMemcpyDtoH"),
    ("cuda.driver.copy", "repro.cuda.driver:CudaDriver", "cuMemcpyDtoHAsync"),
    ("cuda.driver.copy", "repro.cuda.driver:CudaDriver", "cuMemcpyPeer"),
    ("cuda.driver.alloc", "repro.cuda.driver:CudaDriver", "cuMemAlloc"),
    ("cuda.driver.alloc", "repro.cuda.driver:CudaDriver", "cuMemFree"),
    ("hostrt.fold", "repro.hostrt.reduction", "fold_partials"),
    ("serving.submit", "repro.serving.server:OffloadServer", "submit"),
    ("serving.drain", "repro.serving.server:OffloadServer", "drain"),
)

#: layers each workload must exercise (checked by the benchmark's tests)
EXPECTED_LAYERS = {
    "fig4_full": ("cfront.parse", "openmp.validate", "ompi.xform",
                  "cuda.nvcc", "cuda.ptx.assemble", "ompi.bind",
                  "cfront.host", "cuda.sim.compile", "cuda.sim.exec",
                  "cuda.driver.launch", "cuda.driver.copy",
                  "cuda.driver.alloc"),
    "sync_kernels": ("cfront.parse", "openmp.validate", "ompi.xform",
                     "cuda.nvcc", "cuda.ptx.assemble", "ompi.bind",
                     "cfront.host", "cuda.sim.compile", "cuda.sim.exec",
                     "cuda.driver.launch", "cuda.driver.copy",
                     "cuda.driver.alloc", "hostrt.fold"),
    "host_heavy": ("cfront.parse", "openmp.validate", "ompi.xform",
                   "cuda.nvcc", "cuda.ptx.assemble", "ompi.bind",
                   "cfront.host", "cuda.sim.compile", "cuda.sim.exec",
                   "cuda.driver.launch", "cuda.driver.copy",
                   "cuda.driver.alloc"),
    "serve_mixed": ("cfront.parse", "openmp.validate", "ompi.xform",
                    "cuda.nvcc", "cuda.ptx.assemble", "ompi.cache",
                    "ompi.bind", "cfront.host", "cuda.sim.compile",
                    "cuda.sim.exec", "cuda.driver.launch",
                    "cuda.driver.copy", "cuda.driver.alloc",
                    "serving.submit", "serving.drain"),
}


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


class Patches:
    """Install wrappers around functions and methods and undo them all.

    A module-level function is replaced in every loaded ``repro`` module
    that holds it (``from x import f`` copies the reference), a method
    on its class.  :meth:`restore` reverts in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: str, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapper = make(original)
        if isinstance(target, type):
            self._set(target, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original):
                self._set(module, attr, wrapper)

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def installed_targets() -> dict[tuple[str, str], object]:
    """The object behind every traced entry point, in its class or in any
    loaded ``repro`` module holding the name (tests compare this before
    and after a traced run)."""
    out = {}
    for _layer, owner, attr in LAYERS:
        target = _resolve(owner)
        if isinstance(target, type):
            out[(owner, attr)] = target.__dict__[attr]
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and attr in module.__dict__:
                out[(name, attr)] = module.__dict__[attr]
    return out


class StatsProbe:
    """Digest of every launch's ``KernelStats`` and modelled kernel time
    (the simulator-identity digest), reset per pass by the runner."""

    def __init__(self):
        self._patches = Patches()
        self.hash = hashlib.sha256()

    def install(self) -> None:
        def make(original):
            @functools.wraps(original)
            def probe(driver, *args, **kwargs):
                stats = original(driver, *args, **kwargs)
                self.hash.update(repr(dataclasses.astuple(stats)).encode())
                self.hash.update(repr(driver.last_kernel_seconds).encode())
                return stats
            return probe
        self._patches.wrap("repro.cuda.driver:CudaDriver", "cuLaunchKernel",
                           make)

    def uninstall(self) -> None:
        self._patches.restore()

    def take(self) -> str:
        """The digest since the last take; starts a new one."""
        digest = self.hash.hexdigest()
        self.hash = hashlib.sha256()
        return digest


class Tracer:
    """In-memory span recorder plus the per-layer counters."""

    def __init__(self):
        self._patches = Patches()
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    # -- spans ----------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -------------------------------------------------------------
    def install(self) -> None:
        for layer, owner, attr in LAYERS:
            self._patches.wrap(owner, attr, self._make(layer, attr))

    def uninstall(self) -> None:
        self._patches.restore()

    def _make(self, layer: str, attr: str):
        note = _NOTES.get(attr)

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = self.begin(layer)
                before = note[0](args) if note else None
                failed = True
                try:
                    result = original(*args, **kwargs)
                    failed = False
                finally:
                    self.end(idx)
                    if note:
                        note[1](self, args, kwargs, before, result
                                if not failed else None, failed)
                return result
            return traced
        return make

    # -- reduction --------------------------------------------------------------
    def layer_times(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls); a span whose parent belongs to
        the same layer adds time but no call."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_wall(self) -> float:
        """Wall seconds covered by top-level spans."""
        return sum(end - start for _n, start, end, parent in self.spans
                   if parent < 0)

    def chrome_trace(self, path, workload: str) -> None:
        """Write the spans as a chrome://tracing JSON file."""
        if not self.spans:
            return
        t0 = self.spans[0][1]
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"parent": parent}}
                  for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "otherData": {"workload": workload}}, fh)


# -- per-call counters ----------------------------------------------------------
# attr -> (before(args), after(tracer, args, kwargs, before, result, failed))

def _nbytes(src) -> int:
    if isinstance(src, (bytes, bytearray)):
        return len(src)
    return int(np.asarray(src).nbytes)


def _after_compile(t, args, kwargs, before, result, failed):
    if result is not None:
        t.count("ompi.xform.kernels", len(result.plans))


def _after_parse(t, args, kwargs, before, result, failed):
    t.count("cfront.parse.bytes", len(args[0]))


def _after_cache(t, args, kwargs, before, result, failed):
    t.count("ompi.cache.hits" if args[0].hits > before
            else "ompi.cache.misses")


def _after_host(t, args, kwargs, before, result, failed):
    for key, value in args[0].host_stats.items():
        t.count(f"cfront.host.{key}", value - before.get(key, 0))


def _after_sim_compile(t, args, kwargs, before, result, failed):
    if failed:
        t.count("cuda.sim.compile.unsupported")


def _after_launch(t, args, kwargs, before, result, failed):
    if result is None:
        return
    t.count("cuda.sim.launches")
    t.count("cuda.sim.warp_insts", result.instructions)
    t.count("cuda.sim.warps", result.warps_launched)
    t.count("cuda.sim.global_txns", result.global_transactions)
    t.count("cuda.sim.barriers", result.barriers)
    t.count("cuda.sim.shared_accesses", result.shared_accesses)
    t.count("cuda.sim.spins", result.spins)
    t.count("cuda.sim.divergent_branches", result.divergent_branches)


def _after_sampled(t, args, kwargs, before, result, failed):
    t.count("cuda.driver.launch.sampled")


def _after_h2d(t, args, kwargs, before, result, failed):
    t.count("cuda.driver.copy.bytes", _nbytes(args[2]))


def _after_d2h(t, args, kwargs, before, result, failed):
    t.count("cuda.driver.copy.bytes", int(args[2]))


def _after_peer(t, args, kwargs, before, result, failed):
    t.count("cuda.driver.copy.bytes", int(args[4]))


def _nothing(args):
    return None


_NOTES = {
    "parse_translation_unit": (_nothing, _after_parse),
    "compile": (_nothing, _after_compile),
    "get": (lambda args: args[0].hits, _after_cache),
    "run": (lambda args: dict(args[0].host_stats), _after_host),
    "compile_kernel": (_nothing, _after_sim_compile),
    "launch": (_nothing, _after_launch),
    "_sampled_launch": (_nothing, _after_sampled),
    "cuMemcpyHtoDAsync": (_nothing, _after_h2d),
    "cuMemcpyDtoHAsync": (_nothing, _after_d2h),
    "cuMemcpyPeer": (_nothing, _after_peer),
}


def where_time_went(tracer: Tracer, workload: str,
                    phase_wall: float) -> tuple[list[str], float]:
    """Self time per layer sorted by share, plus the wall time of the
    traced phase no layer span covers; returns (table lines, uncovered
    seconds)."""
    times = tracer.layer_times()
    layer_names = {layer for layer, _o, _a in LAYERS}
    covered = sum(s for name, (s, _c) in times.items() if name in layer_names)
    uncovered = max(0.0, phase_wall - covered)
    rows = sorted(((s, c, name) for name, (s, c) in times.items()
                   if name in layer_names), reverse=True)
    lines = [f"# where the wall time went: {workload} "
             f"(traced phase {phase_wall:.3f} s)",
             f"{'layer':<22}{'self s':>10}{'share':>9}{'calls':>9}"]
    for s, c, name in rows:
        lines.append(f"{name:<22}{s:>10.4f}{s / phase_wall:>9.1%}{c:>9}")
    lines.append(f"{'(not in a layer)':<22}{uncovered:>10.4f}"
                 f"{uncovered / phase_wall:>9.1%}")
    return lines, uncovered


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the traced phase.
    ``extra`` carries what the runner measures itself (serving counters,
    modelled times, tracing overhead, uncovered share)."""
    times = tracer.layer_times()
    c = tracer.counts

    def s(layer):
        return times.get(layer, (0.0, 0))[0]

    def calls(layer):
        return times.get(layer, (0.0, 0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    host = {k: c.get(f"cfront.host.{k}", 0)
            for k in ("loop_fast", "loop_fallback", "fn_fast", "fn_fallback")}
    hits, misses = c.get("ompi.cache.hits", 0), c.get("ompi.cache.misses", 0)
    out = {
        "cfront.parse.s": s("cfront.parse"),
        "cfront.parse.calls": calls("cfront.parse"),
        "cfront.parse.src_kb_per_s": ratio(
            c.get("cfront.parse.bytes", 0) / 1024, s("cfront.parse")),
        "openmp.validate.s": s("openmp.validate"),
        "openmp.validate.calls": calls("openmp.validate"),
        "ompi.xform.s": s("ompi.xform"),
        "ompi.xform.kernels": c.get("ompi.xform.kernels", 0),
        "cuda.nvcc.s": s("cuda.nvcc"),
        "cuda.nvcc.calls": calls("cuda.nvcc"),
        "cuda.ptx.assemble.s": s("cuda.ptx.assemble"),
        "cuda.ptx.assemble.calls": calls("cuda.ptx.assemble"),
        "ompi.cache.get_s": s("ompi.cache"),
        "ompi.cache.hits": hits,
        "ompi.cache.misses": misses,
        "ompi.cache.hit_ratio": ratio(hits, hits + misses),
        "ompi.bind.s": s("ompi.bind"),
        "ompi.bind.calls": calls("ompi.bind"),
        "cfront.host.s": s("cfront.host"),
        **{f"cfront.host.{k}": v for k, v in host.items()},
        "cfront.host.fast_ratio": ratio(
            host["loop_fast"] + host["fn_fast"], sum(host.values())),
        "cuda.sim.compile.s": s("cuda.sim.compile"),
        "cuda.sim.compile.calls": calls("cuda.sim.compile"),
        "cuda.sim.compile.unsupported": c.get(
            "cuda.sim.compile.unsupported", 0),
        "cuda.sim.exec.s": s("cuda.sim.exec"),
        "cuda.sim.launches": c.get("cuda.sim.launches", 0),
        "cuda.sim.warp_insts": c.get("cuda.sim.warp_insts", 0),
        "cuda.sim.warps": c.get("cuda.sim.warps", 0),
        "cuda.sim.winst_per_s": ratio(c.get("cuda.sim.warp_insts", 0),
                                      s("cuda.sim.exec")),
        "cuda.sim.global_txns": c.get("cuda.sim.global_txns", 0),
        "cuda.sim.barriers": c.get("cuda.sim.barriers", 0),
        "cuda.sim.shared_accesses": c.get("cuda.sim.shared_accesses", 0),
        "cuda.sim.spins": c.get("cuda.sim.spins", 0),
        "cuda.sim.divergent_branches": c.get(
            "cuda.sim.divergent_branches", 0),
        "cuda.driver.launch.s": s("cuda.driver.launch"),
        "cuda.driver.launch.calls": calls("cuda.driver.launch"),
        "cuda.driver.launch.sampled": c.get("cuda.driver.launch.sampled", 0),
        "cuda.driver.copy.s": s("cuda.driver.copy"),
        "cuda.driver.copy.calls": calls("cuda.driver.copy"),
        "cuda.driver.copy.bytes": c.get("cuda.driver.copy.bytes", 0),
        "cuda.driver.alloc.s": s("cuda.driver.alloc"),
        "cuda.driver.alloc.calls": calls("cuda.driver.alloc"),
        "hostrt.fold.s": s("hostrt.fold"),
        "hostrt.fold.calls": calls("hostrt.fold"),
        "serving.submit.s": s("serving.submit"),
        "serving.submit.calls": calls("serving.submit"),
        "serving.drain.s": s("serving.drain"),
    }
    out.update(extra)
    return out


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in ("s", "get_s") or leaf.endswith("modelled_s"):
        return "s"
    if leaf == "src_kb_per_s":
        return "KiB/s"
    if leaf == "winst_per_s":
        return "1/s"
    if leaf.endswith("bytes"):
        return "B"
    if leaf.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"
