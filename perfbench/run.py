"""The repository benchmark: one workload per run, wall-clock metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4_full --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped but
the simulator-identity probe: a set-up (cold compiles of the workload's
programs, server and session construction) and a whole pass of the
workload, repeated until ``--seconds`` have gone.  Imports happen once
per process, so their time is printed apart from ``setup_s``.  ``--trace 1`` runs the same untraced
phase for half the time, then sets up again with every layer wrapped
(:mod:`spans`) and runs two traced passes; it reports the per-layer
metrics, writes a chrome trace and a "where the wall time went" table
to ``perfbench/out/``, and checks that the traced passes produced the
same outputs and simulator digest as the untraced ones.

Wall times are reported at a reference machine speed.  The small
machines this runs on share their cores, and a neighbour's load slows
everything here by up to 2x for seconds at a time.  So a fixed
calibration loop (small numpy operations and Python object churn, the
simulator's and the compiler's mix, no code of the program under test)
runs just
before and just after every timed job and set-up, outside the timed
region, and each wall time is scaled by ``CAL_REF_S / calibration
time``.  ``CAL_REF_S`` is about the loop's time on an idle reference
machine, so scaled times read close to idle-machine wall times; the raw
ones are printed next to them and kept in the history.

Every job's outputs are checked against a numpy reference.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a wrong output or a digest mismatch makes
``correct`` false and the exit code 1.  Each run also appends its
result with provenance to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"

WORKLOAD_NAMES = ("fig4_full", "sync_kernels", "host_heavy", "serve_mixed")
#: passes of the traced phase: a fixed amount of work, so per-layer
#: counts repeat exactly for a seed
TRACE_PASSES = 2
#: the two calibration loops' times on an idle reference machine (a
#: 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4): jobs scale by the
#: numpy loop, set-ups and compiles by the object loop
CAL_REF_S = (0.0036, 0.0033)

UNITS = {"setup_s": "s", "compile_s": "s", "jobs_per_s": "1/s",
         "job_p50_s": "s", "peak_rss_mb": "MiB"}


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibrate() -> tuple[float, float]:
    """Wall seconds of two fixed loops in code that is not part of the
    program under test: small numpy operations (the simulator's kind of
    work) and Python object churn (the compiler's)."""
    import numpy as np
    a = np.arange(32, dtype=np.float32)
    b = a[::-1].copy()
    t0 = time.perf_counter()
    acc = 0
    for _ in range(1500):
        acc += int(np.count_nonzero(a * 1.5 + b > 20.0))
    t1 = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        cell = _Cell(str(i), i)
        table[cell.key] = cell
        if len(table) > 64:
            table.clear()
    return t1 - t0, time.perf_counter() - t1


def hermetic_env(cache_dir: str) -> None:
    """Clear every REPRO_* knob, pin the fast paths to their defaults and
    point the disk compile cache at this run's own directory."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_KERNEL_FASTPATH"] = "on"
    os.environ["REPRO_HOST_FASTPATH"] = "on"
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    # transparent huge pages back numpy's large zeroed arrays (the
    # interpreter heaps) depending on the host's free-page state, which
    # moves peak RSS by several MiB from run to run
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


class JobClock:
    """Brackets one timed job (or serving round, or set-up): collects
    garbage and runs the calibration loops before and after it, outside
    the timed region and outside its trace span.  ``cal`` holds the mean
    of the two readings of each loop."""

    def __init__(self, tracer=None, name: str = "bench.job"):
        self.tracer = tracer
        self.name = name
        self.cal = (0.0, 0.0)

    def __enter__(self) -> "JobClock":
        gc.collect()
        self._before = calibrate()
        if self.tracer is not None:
            self._span = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        if self.tracer is not None:
            self.tracer.end(self._span)
        after = calibrate()
        self.cal = tuple((x + y) / 2 for x, y in zip(self._before, after))
        return False


def scaled(wall: float, cal: float, ref: float = CAL_REF_S[0]) -> float:
    return wall * ref / cal


class Phase:
    """Passes of one workload, each after a fresh set-up, with per-pass
    digests.  The set-up before the first pass builds the state the
    passes run on; the later ones are timed and thrown away, so set-up
    and compile times are sampled across the whole run, like the jobs."""

    def __init__(self, factory, seed: int, workdir: Path, probe,
                 tracer=None):
        import numpy as np
        self.workload = factory(np.random.default_rng(seed))
        self.workdir = workdir
        self.probe = probe
        self.tracer = tracer
        self.state = None
        #: the workload's own counters, read before its state is closed
        self.counters: dict = {}
        #: per set-up: (wall, object-loop calibration, cold compile walls)
        self.setups: list[tuple[float, float, list[float]]] = []
        self.passes: list[list] = []
        self.sim_digests: list[str] = []
        self.out_digests: list[str] = []

    def job(self) -> JobClock:
        return JobClock(self.tracer)

    def setup(self) -> None:
        samples: list[float] = []
        workdir = self.workdir / f"cache{len(self.setups)}"
        with JobClock(self.tracer, "bench.setup") as clock:
            t0 = time.perf_counter()
            state = self.workload.setup(samples, workdir)
            wall = time.perf_counter() - t0
        self.setups.append((wall, clock.cal[1], samples))
        if self.state is None:
            self.state = state
        else:
            self.workload.close(state)

    def run(self, seconds: float = math.inf,
            max_passes: int = 1 << 30) -> None:
        """A set-up and a pass, repeated until ``seconds`` have gone or
        ``max_passes`` ran (at least once)."""
        t0 = time.perf_counter()
        try:
            while len(self.passes) < max_passes:
                self.setup()
                self.probe.take()
                jobs = self.workload.run_pass(self.state, len(self.passes),
                                              self.job)
                self.sim_digests.append(self.probe.take() + hashlib.sha256(
                    repr([(j.kernel_modelled_s, j.xfer_modelled_s)
                          for j in jobs]).encode()).hexdigest())
                self.out_digests.append(hashlib.sha256(
                    b"".join(j.outputs for j in jobs)).hexdigest())
                self.passes.append(jobs)
                if time.perf_counter() - t0 >= seconds:
                    break
        finally:
            if self.state is not None:
                self.counters = self.workload.counters(self.state)
                self.workload.close(self.state)

    @property
    def jobs(self) -> list:
        return [j for p in self.passes for j in p]

    def jobs_per_s(self, scale=scaled) -> float:
        """The median over passes of jobs per second of job wall time."""
        return statistics.median(
            len(p) / sum(scale(j.wall_s, j.cal) for j in p)
            for p in self.passes)

    def job_p50(self, scale=scaled) -> float:
        """The median job: the median over the workload's programs of each
        program's median wall time.  Every program weighs the same, so the
        figure cannot jump across the gap between two programs' times."""
        by_name: dict[str, list[float]] = {}
        for j in self.jobs:
            by_name.setdefault(j.name, []).append(scale(j.wall_s, j.cal))
        return statistics.median(statistics.median(v)
                                 for v in by_name.values())

    def modelled(self, index: int = 0) -> tuple[float, float]:
        jobs = self.passes[index]
        return (sum(j.kernel_modelled_s for j in jobs),
                sum(j.xfer_modelled_s for j in jobs))

    def problems(self) -> list[str]:
        """Failed jobs, and — for workloads whose passes do identical
        work — passes whose digests or modelled time differ from the
        first."""
        out = [f"{j.name}: {j.why}" for j in self.jobs if not j.ok]
        if self.workload.repeatable:
            for i in range(1, len(self.passes)):
                if self.sim_digests[i] != self.sim_digests[0]:
                    out.append(f"pass {i}: simulator digest differs "
                               f"from pass 0")
                if self.out_digests[i] != self.out_digests[0]:
                    out.append(f"pass {i}: outputs differ from pass 0")
        return out


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "nproc": os.cpu_count(), "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(factory, name: str, seed: int, seconds: float, workdir: Path,
             probe, import_s: tuple[float, float],
             report: list) -> tuple[dict, dict, Phase]:
    phase = Phase(factory, seed, workdir, probe)
    phase.run(seconds)
    jobs = phase.jobs

    def figures(scale) -> dict:
        ref = CAL_REF_S[1]
        return {
            "setup_s": statistics.median(scale(wall, cal, ref)
                                         for wall, cal, _ in phase.setups),
            # each set-up compiles every distinct source once; the median
            # over set-ups of their mean compile time
            "compile_s": statistics.median(
                scale(statistics.fmean(samples), cal, ref)
                for _, cal, samples in phase.setups),
            "jobs_per_s": phase.jobs_per_s(scale),
            "job_p50_s": phase.job_p50(scale),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = figures(scaled)
    raw = figures(lambda wall, cal, ref=None: wall)
    report.append(f"# {name}: {len(phase.passes)} passes, {len(jobs)} jobs, "
                  f"seed {seed}; wall times at reference speed (raw)")
    for key, value in metrics.items():
        report.append(f"{key:<14}{value:>14.6g} {UNITS[key]:<5}"
                      f"({raw[key]:.6g})")
    if len(jobs) >= 200:
        from repro.serving import percentile
        # failed jobs count as +inf, so they miss any latency limit
        p95 = percentile([scaled(j.wall_s, j.cal) if j.ok else math.inf
                            for j in jobs], 95)
        report.append(f"{'job_p95_s':<14}{p95:>14.6g} s")
    kernel, xfer = phase.modelled()
    report.append(f"{'modelled_s':<14}{kernel + xfer:>14.6g} s     (modelled,"
                  f" one pass: kernel {kernel:.6g} + transfers {xfer:.6g})")
    report.append(f"{'import_s':<14}"
                  f"{scaled(*import_s, CAL_REF_S[1]):>14.6g} s     "
                  f"({import_s[0]:.6g}; once per process, not in setup_s)")
    report.append(f"{'failed_frac':<14}"
                  f"{sum(not j.ok for j in jobs) / len(jobs):>14.6g} ratio")
    return metrics, raw, phase


def traced(factory, name: str, seed: int, seconds: float, workdir: Path,
           probe, report: list) -> tuple[dict, list[Phase], list[str]]:
    import spans
    base = Phase(factory, seed, workdir / "untraced", probe)
    base.run(seconds / 2)
    tracer = spans.Tracer()
    phase = Phase(factory, seed, workdir / "traced", probe, tracer)
    tracer.install()
    try:
        phase.run(max_passes=TRACE_PASSES)
    finally:
        tracer.uninstall()
    problems = []
    if phase.sim_digests[0] != base.sim_digests[0]:
        problems.append("traced pass 0 simulator digest differs from the "
                        "untraced run")
    if phase.out_digests[0] != base.out_digests[0]:
        problems.append("traced pass 0 outputs differ from the untraced run")
    wall = tracer.root_wall()
    table, uncovered = spans.where_time_went(tracer, name, wall)
    OUT.mkdir(exist_ok=True)
    tracer.chrome_trace(OUT / f"{name}.trace.json", name)
    (OUT / f"{name}.layers.txt").write_text("\n".join(table) + "\n")
    untraced_jps, traced_jps = base.jobs_per_s(), phase.jobs_per_s()
    kernel, xfer = phase.modelled()
    extra = {
        "serving.batches": 0, "serving.batch_mean": 0.0,
        "serving.reuse_hits": 0, "serving.reuse_bytes": 0,
        "serving.evictions": 0,
        **phase.counters,
        "timing.kernel_modelled_s": kernel,
        "timing.xfer_modelled_s": xfer,
        "trace.overhead_frac": 1.0 - traced_jps / untraced_jps,
        "trace.uncovered_frac": uncovered / wall if wall else 0.0,
    }
    metrics = spans.per_layer_metrics(tracer, extra)
    report.extend(table)
    report.append(f"tracing overhead: jobs_per_s {untraced_jps:.6g} "
                  f"untraced vs {traced_jps:.6g} traced "
                  f"({extra['trace.overhead_frac']:+.1%})")
    return metrics, [base, phase], problems


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload hermetically; returns (result dict, report lines,
    phases, raw end-to-end figures or None)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    hermetic_env(str(workdir))
    raw = None
    try:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        t0 = time.perf_counter()
        import workloads
        import spans
        import_s = (time.perf_counter() - t0, calibrate()[1])
        factory = workloads.WORKLOADS[workload]
        probe = spans.StatsProbe()
        probe.install()
        report: list[str] = []
        try:
            if trace:
                metrics, phases, problems = traced(
                    factory, workload, seed, seconds, workdir, probe, report)
                units = {k: spans.unit_of(k) for k in metrics}
            else:
                metrics, raw, phase = untraced(
                    factory, workload, seed, seconds, workdir, probe,
                    import_s, report)
                phases, problems, units = [phase], [], UNITS
        finally:
            probe.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for phase in phases:
        problems.extend(phase.problems())
    report.extend(f"FAIL {msg}" for msg in problems)
    result = {"correct": not problems,
              "attempted": sum(len(p.jobs) for p in phases),
              "failed": sum(not j.ok for p in phases for j in p.jobs),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, report, phases, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              f"is missing)", file=sys.stderr)
        return 2
    result, report, _phases, raw = measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    for line in report:
        print(line)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                             "seconds": args.seconds,
                             "provenance": provenance(args.seed),
                             **result, "raw": raw}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
