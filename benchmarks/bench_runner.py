"""Fast-path benchmark runner.

Times the simulated-kernel benchmarks under ``kernel_fastpath='off'``
(tree-walk reference) and ``'on'`` (closure-compiled warp execution) and
writes ``BENCH_kernel_fastpath.json`` with per-benchmark wall-clock of
the run (the program compiles once per point, outside the timed region),
speedup and a functional-equivalence verdict (output arrays and the
paper-metric simulated time must match bitwise between modes).

Usage:
    PYTHONPATH=src python benchmarks/bench_runner.py
    PYTHONPATH=src python benchmarks/bench_runner.py --check   # CI smoke
    PYTHONPATH=src python benchmarks/bench_runner.py --points gemm:128
    PYTHONPATH=src python benchmarks/bench_runner.py --profile-overhead

``--check`` runs a single small point and exits non-zero if the fast
path is slower than the reference or produces different results.
``--profile-overhead`` times the gemm smoke case with activity profiling
off vs on (best of 3) and exits non-zero if enabling the profiler costs
more than 10% wall-clock.
``--shard-check`` runs the gemm smoke case once on a single device and
once sharded across 4 simulated devices (``shard(4)`` on the target
construct, ``num_devices=4``) and exits non-zero unless the sharded
output is bit-identical and every device launched a shard.
``--host-fastpath`` times the host-heavy gemm/mvt/atax variants
(``repro.bench.hostinit``) under ``REPRO_HOST_FASTPATH=off`` vs ``on``
and writes ``BENCH_host_fastpath.json``; each workload must be
bit-identical across modes (outputs, stdout and simulated time) and at
least two of the three must clear a 10x wall-clock speedup.  The
artifact also records the persistent compile cache serving the second
compilation of every source from disk (no cfront parse, no codegen).
``--host-fastpath-check`` is the CI smoke variant: smaller sizes, one
shared speedup floor of 3x.
``--serving-check`` delegates to ``bench_serving.py --check``: a 64
session x 4 device load test against the persistent offload server,
failing on p99 latency above the checked-in budget, output divergence
from standalone runs, or missing batching/eviction/warm-TTFL wins.
``--resilience-check`` delegates to ``bench_resilience.py --check``: the
same load shape fault-free vs under ``devlost:p=0.02``, failing on
output divergence, requests that neither complete nor carry a typed
rejection, missing failover, or chaos p99 inflation over the checked-in
budget.
``--reduction-check`` delegates to ``bench_reductions.py --check``: the
correlation/covariance/doitgen reduction workloads plus the 2048x2048
tree-vs-atomic headline sum, failing on reference divergence, a
reduction checksum that is not the sequential fold, shard(2) output
drift, or the tree lowering not beating the atomic-merge baseline
(writes ``BENCH_reductions.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import get_app
from repro.bench.harness import _heap_capacity, _prog_name, run_ompi

#: the paper's kernel-heavy applications used for the headline numbers
DEFAULT_POINTS = (("gemm", 256), ("mvt", 2048), ("atax", 2048))
CHECK_POINTS = (("gemm", 128),)


def run_point(app_name: str, n: int) -> dict:
    """Both fast-path modes of one point.  The program compiles once,
    outside the timed region, so ``wall_s`` is the run alone."""
    from repro.ompi.cache import CompileCache
    from repro.ompi.config import OmpiConfig

    app = get_app(app_name)
    entry: dict = {"benchmark": app_name, "size": n, "modes": {}}
    outputs: dict = {}
    cache = CompileCache()
    for mode in ("off", "on"):
        prog = cache.get(app.omp_source(n), _prog_name(app, n),
                         OmpiConfig(block_shape=app.block_shape,
                                    kernel_fastpath=mode))
        seed = app.seed(n)
        t0 = time.perf_counter()
        run = prog.run(launch_mode="sample", seed_arrays=seed,
                       heap_capacity=_heap_capacity(app, n))
        wall = time.perf_counter() - t0
        entry["modes"][mode] = {
            "wall_s": round(wall, 4),
            "simulated_s": run.log.measured_time,
        }
        outputs[mode] = {
            name: np.asarray(run.machine.global_array(name)).copy()
            for name in app.outputs
        }
    entry["identical_output"] = bool(all(
        np.array_equal(outputs["off"][name], outputs["on"][name])
        for name in app.outputs
    ))
    entry["identical_simulated_time"] = (
        entry["modes"]["off"]["simulated_s"]
        == entry["modes"]["on"]["simulated_s"]
    )
    entry["speedup"] = round(
        entry["modes"]["off"]["wall_s"] / entry["modes"]["on"]["wall_s"], 2)
    return entry


#: permitted wall-clock cost of enabling the activity recorder
PROFILE_OVERHEAD_LIMIT = 0.10


def profile_overhead(app_name: str = "gemm", n: int = 128,
                     repeats: int = 3) -> dict:
    """Best-of-N wall-clock with profiling disabled vs enabled."""
    app = get_app(app_name)
    walls: dict[str, float] = {}
    records = 0
    for profile in (None, True):
        key = "on" if profile else "off"
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            res, _machine = run_ompi(app, n, launch_mode="sample",
                                     profile=profile)
            best = min(best, time.perf_counter() - t0)
        walls[key] = best
        if profile:
            # count through a fresh recorder so the number is exact
            from repro.prof.activity import ActivityRecorder
            rec = ActivityRecorder()
            run_ompi(app, n, launch_mode="sample", profile=rec)
            records = rec.emitted
    overhead = walls["on"] / walls["off"] - 1.0
    return {
        "benchmark": app_name, "size": n, "repeats": repeats,
        "wall_s_off": round(walls["off"], 4),
        "wall_s_on": round(walls["on"], 4),
        "records": records,
        "overhead": round(overhead, 4),
        "limit": PROFILE_OVERHEAD_LIMIT,
    }


def shard_check(app_name: str = "gemm", n: int = 128,
                shards: int = 4) -> dict:
    """Single-device vs sharded multi-device run of one benchmark point;
    the sharded output must be bit-identical (full functional execution
    on both sides — sharded launches never sample by construction)."""
    from repro.bench.harness import _heap_capacity
    from repro.ompi.compiler import OmpiCompiler
    from repro.ompi.config import OmpiConfig

    app = get_app(app_name)
    src = app.omp_source(n)
    marker = "target teams distribute parallel for"
    sharded_src = src.replace(marker, f"{marker} shard({shards})", 1)
    assert sharded_src != src, f"{app_name} has no shardable construct"

    outputs: dict[str, dict] = {}
    devices_used: list[int] = []
    for key, (source, ndev) in (("single", (src, 1)),
                                ("sharded", (sharded_src, shards))):
        config = OmpiConfig(block_shape=app.block_shape, num_devices=ndev,
                            profile=(key == "sharded"))
        prog = OmpiCompiler(config).compile(source, f"{app_name}_{key}")
        run = prog.run(launch_mode="full", seed_arrays=app.seed(n),
                       heap_capacity=_heap_capacity(app, n))
        outputs[key] = {
            name: np.asarray(run.machine.global_array(name)).copy()
            for name in app.outputs
        }
        if key == "sharded":
            devices_used = sorted({r.device for r in run.ort.prof
                                   if r.kind == "kernel"})
    identical = all(
        outputs["single"][name].tobytes() == outputs["sharded"][name].tobytes()
        for name in app.outputs
    )
    return {
        "benchmark": app_name, "size": n, "shards": shards,
        "devices_used": devices_used,
        "bit_identical": bool(identical),
    }


#: full-run speedup floor (acceptance: >= 2 of 3 workloads clear it)
HOST_FASTPATH_SPEEDUP = 10.0
#: smoke-run floor: small sizes leave less host work to amortise
HOST_FASTPATH_CHECK_SPEEDUP = 3.0


def host_fastpath_point(name: str, n: int | None, disk_root: str) -> dict:
    """One host-heavy workload under host_fastpath off vs on.

    Both modes compile through one CompileCache backed by a disk tier
    rooted at ``disk_root``; the config fingerprint excludes runtime
    knobs, so the second mode's compilation must be served from cache —
    the artifact records the hit counters as proof that a warm cache
    skips the entire cfront parse/outline/codegen pipeline.
    """
    from repro.bench.hostinit import HOST_WORKLOADS
    from repro.ompi.cache import CompileCache
    from repro.ompi.config import OmpiConfig
    from repro.ompi.diskcache import DiskCompileCache

    w = HOST_WORKLOADS[name]
    n = n or w.default_n
    source = w.source(n)
    entry: dict = {"benchmark": name, "size": n, "modes": {}}
    outputs: dict = {}
    stdout: dict = {}
    # fresh in-memory tier per mode (simulates two processes), shared disk
    for mode in ("off", "on"):
        cache = CompileCache(disk=DiskCompileCache(disk_root))
        prog = cache.get(source, f"{name}_host",
                         OmpiConfig(host_fastpath=mode))
        t0 = time.perf_counter()
        run = prog.run(launch_mode="sample",
                       heap_capacity=w.heap_capacity(n))
        wall = time.perf_counter() - t0
        entry["modes"][mode] = {
            "wall_s": round(wall, 4),
            "simulated_s": run.log.measured_time,
            "compile_cache": {k: cache.stats[k]
                              for k in ("hits", "misses", "compiles",
                                        "disk_hits", "disk_misses")},
        }
        outputs[mode] = {
            o: np.asarray(run.machine.global_array(o)).copy()
            for o in w.outputs
        }
        stdout[mode] = run.stdout
    entry["identical_output"] = bool(all(
        np.array_equal(outputs["off"][o], outputs["on"][o])
        for o in w.outputs))
    entry["identical_stdout"] = stdout["off"] == stdout["on"]
    entry["identical_simulated_time"] = (
        entry["modes"]["off"]["simulated_s"]
        == entry["modes"]["on"]["simulated_s"])
    entry["speedup"] = round(
        entry["modes"]["off"]["wall_s"]
        / max(entry["modes"]["on"]["wall_s"], 1e-9), 2)
    # the second mode's compile must have come from the disk tier
    entry["second_compile_from_disk"] = (
        entry["modes"]["on"]["compile_cache"]["compiles"] == 0
        and entry["modes"]["on"]["compile_cache"]["disk_hits"] == 1)
    return entry


def host_fastpath_run(check: bool, output: str | None) -> int:
    import tempfile

    from repro.bench.hostinit import CHECK_SIZES, HOST_WORKLOADS

    floor = (HOST_FASTPATH_CHECK_SPEEDUP if check
             else HOST_FASTPATH_SPEEDUP)
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        for name in HOST_WORKLOADS:
            n = CHECK_SIZES[name] if check else None
            print(f"[bench] host fastpath {name}"
                  f" n={n or HOST_WORKLOADS[name].default_n} ...", flush=True)
            entry = host_fastpath_point(name, n, root)
            print(f"[bench]   off {entry['modes']['off']['wall_s']:.2f}s  "
                  f"on {entry['modes']['on']['wall_s']:.2f}s  "
                  f"speedup {entry['speedup']}x  "
                  f"identical={entry['identical_output']}  "
                  f"disk_warm={entry['second_compile_from_disk']}")
            results.append(entry)

    out = {
        "metric": "wall-clock of the OMPi pipeline per host_fastpath mode",
        "launch_mode": "sample",
        "speedup_floor": floor,
        "floor_mode": "all" if check else "2-of-3",
        "results": results,
    }
    out_path = Path(output) if output else (
        Path(__file__).resolve().parent.parent / "BENCH_host_fastpath.json")
    out_path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"[bench] wrote {out_path}")

    failures = []
    cleared = 0
    for entry in results:
        label = f"{entry['benchmark']}:{entry['size']}"
        for key in ("identical_output", "identical_stdout",
                    "identical_simulated_time"):
            if not entry[key]:
                failures.append(f"{label}: {key} is False between modes")
        if not entry["second_compile_from_disk"]:
            failures.append(f"{label}: second compile not served from "
                            f"the disk cache")
        if entry["speedup"] >= floor:
            cleared += 1
        elif check:
            failures.append(f"{label}: speedup {entry['speedup']}x below "
                            f"the {floor}x smoke floor")
    if not check and cleared < 2:
        failures.append(f"only {cleared}/3 workloads cleared the "
                        f"{floor}x speedup floor (need 2)")
    for msg in failures:
        print(f"[bench] FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


def parse_points(specs: list[str]) -> list[tuple[str, int]]:
    points = []
    for spec in specs:
        name, _, size = spec.partition(":")
        points.append((name, int(size or 256)))
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="CI smoke: one small point; fail if the fast path "
                         "is slower or diverges")
    ap.add_argument("--points", nargs="*", metavar="APP:SIZE",
                    help="benchmark points to run (default: gemm:256 "
                         "mvt:2048 atax:2048)")
    ap.add_argument("--output", default=None,
                    help="output JSON path (default: BENCH_kernel_fastpath"
                         ".json next to the repo root)")
    ap.add_argument("--profile-overhead", action="store_true",
                    help="measure activity-profiler overhead on the gemm "
                         "smoke case; fail if enabled-vs-disabled wall-clock "
                         "exceeds 10%%")
    ap.add_argument("--shard-check", action="store_true",
                    help="run the gemm smoke case sharded across 4 simulated "
                         "devices; fail unless the output is bit-identical "
                         "to the single-device run")
    ap.add_argument("--serving-check", action="store_true",
                    help="serving load-test smoke: 64 sessions x 4 devices "
                         "on the offload server; fail on p99 budget "
                         "regression or divergence from standalone runs")
    ap.add_argument("--resilience-check", action="store_true",
                    help="chaos serving smoke: the 64x4 load test fault-free "
                         "vs devlost:p=0.02; fail on divergence, untyped "
                         "failures, or p99 inflation over budget")
    ap.add_argument("--reduction-check", action="store_true",
                    help="deterministic-reduction smoke: correlation/"
                         "covariance/doitgen plus the 2048x2048 tree-vs-"
                         "atomic sum; fail on divergence, non-sequential "
                         "combine order, shard drift, or the tree not "
                         "beating the atomic-merge baseline")
    ap.add_argument("--host-fastpath", action="store_true",
                    help="time the host-heavy gemm/mvt/atax variants under "
                         "host_fastpath off vs on and write "
                         "BENCH_host_fastpath.json; fail unless outputs "
                         "are bit-identical and 2 of 3 clear 10x")
    ap.add_argument("--host-fastpath-check", action="store_true",
                    help="CI smoke variant of --host-fastpath: smaller "
                         "sizes, 3x floor on every workload")
    args = ap.parse_args(argv)

    if args.host_fastpath or args.host_fastpath_check:
        return host_fastpath_run(check=args.host_fastpath_check,
                                 output=args.output)

    if args.reduction_check:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_reductions
        red_args = ["--check"]
        if args.output:
            red_args += ["--output", args.output]
        return bench_reductions.main(red_args)

    if args.resilience_check:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_resilience
        res_args = ["--check"]
        if args.output:
            res_args += ["--output", args.output]
        return bench_resilience.main(res_args)

    if args.serving_check:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_serving
        serving_args = ["--check"]
        if args.output:
            serving_args += ["--output", args.output]
        return bench_serving.main(serving_args)

    if args.shard_check:
        print("[bench] shard check (gemm:128, 1 device vs shard(4)) ...",
              flush=True)
        entry = shard_check()
        print(f"[bench]   devices used: {entry['devices_used']}  "
              f"bit_identical={entry['bit_identical']}")
        out_path = Path(args.output) if args.output else (
            Path(__file__).resolve().parent.parent / "BENCH_shard.json")
        out_path.write_text(json.dumps(entry, indent=2) + "\n")
        print(f"[bench] wrote {out_path}")
        failures = []
        if not entry["bit_identical"]:
            failures.append("sharded output differs from single-device run")
        if entry["devices_used"] != list(range(entry["shards"])):
            failures.append(f"expected kernels on devices "
                            f"{list(range(entry['shards']))}, "
                            f"got {entry['devices_used']}")
        for msg in failures:
            print(f"[bench] FAIL {msg}", file=sys.stderr)
        return 1 if failures else 0

    if args.profile_overhead:
        print("[bench] profiler overhead (gemm:128, best of 3) ...",
              flush=True)
        entry = profile_overhead()
        print(f"[bench]   off {entry['wall_s_off']:.2f}s  "
              f"on {entry['wall_s_on']:.2f}s  "
              f"overhead {entry['overhead'] * 100:+.1f}%  "
              f"({entry['records']} records)")
        out_path = Path(args.output) if args.output else (
            Path(__file__).resolve().parent.parent
            / "BENCH_profile_overhead.json")
        out_path.write_text(json.dumps(entry, indent=2) + "\n")
        print(f"[bench] wrote {out_path}")
        if entry["overhead"] > PROFILE_OVERHEAD_LIMIT:
            print(f"[bench] FAIL profiler overhead "
                  f"{entry['overhead'] * 100:.1f}% exceeds "
                  f"{PROFILE_OVERHEAD_LIMIT * 100:.0f}%", file=sys.stderr)
            return 1
        return 0

    if args.points:
        points = parse_points(args.points)
    else:
        points = list(CHECK_POINTS if args.check else DEFAULT_POINTS)

    results = []
    for name, n in points:
        print(f"[bench] {name} n={n} ...", flush=True)
        entry = run_point(name, n)
        off, on = entry["modes"]["off"]["wall_s"], entry["modes"]["on"]["wall_s"]
        print(f"[bench]   off {off:.2f}s  on {on:.2f}s  "
              f"speedup {entry['speedup']}x  "
              f"identical={entry['identical_output']}")
        results.append(entry)

    out = {
        "metric": "wall-clock of the OMPi program run (compile excluded) "
                  "per kernel_fastpath mode",
        "launch_mode": "sample",
        "results": results,
    }
    out_path = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "BENCH_kernel_fastpath.json")
    out_path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"[bench] wrote {out_path}")

    failures = []
    for entry in results:
        label = f"{entry['benchmark']}:{entry['size']}"
        if not entry["identical_output"]:
            failures.append(f"{label}: outputs diverged between modes")
        if not entry["identical_simulated_time"]:
            failures.append(f"{label}: simulated time diverged between modes")
        if args.check and entry["speedup"] < 1.0:
            failures.append(f"{label}: fast path slower than reference "
                            f"({entry['speedup']}x)")
    for msg in failures:
        print(f"[bench] FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
