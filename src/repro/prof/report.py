"""Text summary report of a recorded profile (the ``--profile`` output)."""

from __future__ import annotations

from collections import Counter

from repro.prof.activity import ActivityRecorder
from repro.prof.metrics import format_metrics_table, kernel_metrics


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def _cache_lines(compile_cache) -> list[str]:
    """Compile-cache counter lines (in-memory tier, plus disk if attached)."""
    s = compile_cache.stats
    lines = [f"compile cache: hits={s['hits']} misses={s['misses']} "
             f"evictions={s['evictions']} compiles={s['compiles']} "
             f"({s['compile_wall_s'] * 1e3:.1f} ms compiling)"]
    if compile_cache.disk is not None:
        d = s["disk"]
        lines.append(f"disk cache: hits={s['disk_hits']} "
                     f"misses={s['disk_misses']} stores={d['stores']} "
                     f"evictions={d['evictions']} entries={d['entries']} "
                     f"({_fmt_bytes(d['size_bytes'])})")
    return lines


def _block_line(kernel_caches) -> str:
    """How the simulator ran thread blocks, summed over the drivers'
    kernel caches (:class:`repro.cuda.sim.compile.CompiledKernelCache`)."""
    caches = list(kernel_caches)
    lock = sum(c.lockstep_blocks for c in caches)
    per_warp = sum(c.warp_blocks for c in caches)
    guard = sum(c.guard_fallbacks for c in caches)
    return (f"kernel blocks: {lock} lockstep, {per_warp} per-warp, "
            f"{guard} race-guard fallback(s)")


def summary(recorder: ActivityRecorder, compile_cache=None,
            kernel_caches=None) -> str:
    """Human-readable profile summary: activity counts, device-time
    totals, transfer volumes/bandwidth, memory peak, per-kernel table.
    ``compile_cache`` (a :class:`repro.ompi.cache.CompileCache`) appends
    its hit/miss/evict counters for both tiers; ``kernel_caches`` (the
    drivers' kernel caches) adds how their blocks ran: in lockstep, per
    warp, or per warp after a race-guard fallback."""
    lines = ["=== repro.prof summary ==="]
    if not len(recorder):
        lines.append("(no activity recorded)")
        if compile_cache is not None:
            lines.extend(_cache_lines(compile_cache))
        return "\n".join(lines)
    counts = Counter(r.kind for r in recorder)
    lines.append("activities: " + ", ".join(
        f"{kind}={n}" for kind, n in sorted(counts.items())))
    if recorder.dropped:
        lines.append(f"ring buffer dropped {recorder.dropped} oldest records "
                     f"(capacity {recorder.capacity})")

    kernels = recorder.records("kernel")
    if kernels:
        modelled = sum(r.modelled_s for r in kernels)
        wall = sum(r.wall_s for r in kernels)
        lines.append(f"kernel time (modelled): {modelled * 1e3:.3f} ms over "
                     f"{len(kernels)} launch(es)")
        if wall > 0.0:
            lines.append(f"kernel time (host wall): {wall * 1e3:.1f} ms "
                         f"simulating the launches")
    if kernel_caches is not None:
        lines.append(_block_line(kernel_caches))

    for direction, label in (("h2d", "HtoD"), ("d2h", "DtoH")):
        xs = [r for r in recorder.records("memcpy") if r.direction == direction]
        if xs:
            nbytes = sum(r.nbytes for r in xs)
            secs = sum(r.duration for r in xs)
            bw = (nbytes / secs / 1e9) if secs > 0 else 0.0
            lines.append(f"{label}: {len(xs)} transfer(s), "
                         f"{_fmt_bytes(nbytes)}, {secs * 1e3:.3f} ms, "
                         f"{bw:.2f} GB/s")

    mods = recorder.records("module")
    jit_s = sum(r.jit_s for r in mods)
    if mods:
        cached = sum(1 for r in mods if r.jit_cached)
        lines.append(f"modules: {len(mods)} load(s), JIT {jit_s * 1e3:.3f} ms "
                     f"({cached} cache hit(s))")

    mems = recorder.records("memory")
    if mems:
        peak = max(r.peak for r in mems)
        lines.append(f"device memory peak: {_fmt_bytes(peak)}")

    tasks = recorder.records("task")
    if tasks:
        begun = sum(1 for r in tasks if r.op == "begin")
        waits = sum(1 for r in tasks if r.op == "taskwait")
        lines.append(f"nowait tasks: {begun} submitted, {waits} taskwait join(s)")

    syncs = recorder.records("sync")
    if syncs:
        waited = sum(r.waited_s for r in syncs)
        lines.append(f"host synchronisations: {len(syncs)}, "
                     f"blocked {waited * 1e3:.3f} ms (modelled)")

    if compile_cache is not None:
        lines.extend(_cache_lines(compile_cache))

    lines.append("")
    lines.append(format_metrics_table(kernel_metrics(recorder)))
    return "\n".join(lines)
