#!/usr/bin/env python3
"""Portability matrix: the Figure-4 kernel suite on every device backend.

The paper's central claim is that one OpenMP source runs unchanged on any
CUDA device OMPi carries a transformation set for.  This benchmark makes
that measurable for the reproduction's heterogeneous registry
(``repro.devices``):

* **matrix** — every Figure-4 kernel runs on every named backend
  (``nano``, ``tx2``, ``v100``); outputs must be *bit-identical* to the
  single-Nano baseline (the kernels are compiled once for the primary
  arch and retargeted per device), while the modelled times reflect each
  device's timing model;
* **mixed shard** — a ``shard(2)`` GEMM on a ``nano,v100`` registry under
  equal-split vs throughput-balanced planning: both must stay
  bit-identical to the single-Nano run, and the throughput plan must
  lower both the total modelled time and the per-device imbalance
  (max/min shard kernel time over devices that received work).

Writes ``BENCH_portability.json``.  ``--check`` runs the smoke sizes and
exits non-zero if any invariant fails (used by CI's portability job).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import get_app  # noqa: E402
from repro.bench.harness import _heap_capacity, _prog_name  # noqa: E402
from repro.ompi.compiler import OmpiCompiler  # noqa: E402
from repro.ompi.config import OmpiConfig  # noqa: E402

#: the Fig. 4 suite at bit-identity-friendly sizes (full functional runs)
MATRIX_POINTS = (("3dconv", 20), ("bicg", 96), ("atax", 96),
                 ("mvt", 64), ("gemm", 64), ("gramschmidt", 24))
CHECK_POINTS = (("atax", 96), ("gemm", 64))

BACKENDS = ("nano", "tx2", "v100")

SHARD_APP, SHARD_N = "gemm", 64


def _digest(machine, outputs) -> str:
    h = hashlib.sha256()
    for name in outputs:
        h.update(np.asarray(machine.global_array(name)).tobytes())
    return h.hexdigest()[:16]


def _run_on(app, n: int, backends=None, num_devices=None, source=None,
            profile: bool = False):
    """One full functional run of ``app`` at size ``n`` on the given
    registry; compiled fresh so per-arch image maps never leak between
    configurations."""
    config = OmpiConfig(block_shape=app.block_shape, profile=profile)
    prog = OmpiCompiler(config).compile(source or app.omp_source(n),
                                        _prog_name(app, n))
    return prog.run(launch_mode="full", seed_arrays=app.seed(n),
                    heap_capacity=_heap_capacity(app, n),
                    devices=backends, num_devices=num_devices)


def matrix_point(name: str, n: int) -> dict:
    app = get_app(name)
    entry: dict = {"benchmark": name, "size": n, "backends": {}}
    baseline = None
    for backend in BACKENDS:
        t0 = time.perf_counter()
        run = _run_on(app, n, backends=[backend])
        wall = time.perf_counter() - t0
        digest = _digest(run.machine, app.outputs)
        if baseline is None:
            baseline = digest
        entry["backends"][backend] = {
            "arch": run.ort.cudadev.backend.arch,
            "digest": digest,
            "bit_identical_to_nano": digest == baseline,
            "modelled_s": run.measured_time,
            "wall_s": round(wall, 3),
        }
    entry["bit_identical"] = all(b["bit_identical_to_nano"]
                                 for b in entry["backends"].values())
    return entry


def _per_device_kernel_s(run) -> dict[int, float]:
    per: dict[int, float] = {}
    for rec in run.profile.records():
        if rec.kind == "kernel":
            per[rec.device] = per.get(rec.device, 0.0) \
                + (rec.t_end - rec.t_start)
    return per


def _imbalance(per_device: dict[int, float]) -> float:
    busy = [t for t in per_device.values() if t > 0.0]
    return max(busy) / min(busy) if busy else float("inf")


def shard_point() -> dict:
    app = get_app(SHARD_APP)
    src = app.omp_source(SHARD_N)
    marker = "target teams distribute parallel for"
    sharded = src.replace(marker, f"{marker} shard(2)", 1)
    assert sharded != src, f"{SHARD_APP} has no shardable construct"

    single = _run_on(app, SHARD_N, num_devices=1)
    baseline = _digest(single.machine, app.outputs)
    entry: dict = {
        "benchmark": SHARD_APP, "size": SHARD_N,
        "registry": "nano,v100",
        "single_nano": {"digest": baseline,
                        "modelled_s": single.measured_time},
        "modes": {},
    }
    for mode in ("equal", "throughput"):
        os.environ["REPRO_SHARD_BALANCE"] = mode
        try:
            run = _run_on(app, SHARD_N, backends="nano,v100",
                          source=sharded, profile=True)
        finally:
            del os.environ["REPRO_SHARD_BALANCE"]
        per = _per_device_kernel_s(run)
        entry["modes"][mode] = {
            "digest": _digest(run.machine, app.outputs),
            "bit_identical_to_nano":
                _digest(run.machine, app.outputs) == baseline,
            "modelled_s": run.measured_time,
            "per_device_kernel_s": {str(k): v for k, v in sorted(per.items())},
            "imbalance": _imbalance(per),
        }
    eq, tp = entry["modes"]["equal"], entry["modes"]["throughput"]
    entry["bit_identical"] = (eq["bit_identical_to_nano"]
                              and tp["bit_identical_to_nano"])
    entry["throughput_beats_equal"] = (
        tp["modelled_s"] < eq["modelled_s"]
        and tp["imbalance"] <= eq["imbalance"])
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="smoke subset + invariant enforcement (CI)")
    parser.add_argument("--output", default="BENCH_portability.json")
    args = parser.parse_args(argv)

    points = CHECK_POINTS if args.check else MATRIX_POINTS
    report: dict = {"matrix": [], "backends": list(BACKENDS)}
    ok = True
    for name, n in points:
        print(f"[bench] portability {name} n={n} ...", flush=True)
        entry = matrix_point(name, n)
        report["matrix"].append(entry)
        ok &= entry["bit_identical"]

    print(f"[bench] mixed shard {SHARD_APP} n={SHARD_N} ...", flush=True)
    report["mixed_shard"] = shard_point()
    ok &= report["mixed_shard"]["bit_identical"]
    ok &= report["mixed_shard"]["throughput_beats_equal"]

    report["ok"] = bool(ok)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"[bench] wrote {args.output}")

    for entry in report["matrix"]:
        times = "  ".join(
            f"{b}={v['modelled_s'] * 1e3:.3f}ms"
            for b, v in entry["backends"].items())
        print(f"  {entry['benchmark']:12s} n={entry['size']:<4d} "
              f"bit-identical={entry['bit_identical']}  {times}")
    ms = report["mixed_shard"]
    print(f"  shard {ms['benchmark']} on {ms['registry']}: "
          f"equal {ms['modes']['equal']['modelled_s'] * 1e3:.3f}ms "
          f"(imb {ms['modes']['equal']['imbalance']:.2f}) -> throughput "
          f"{ms['modes']['throughput']['modelled_s'] * 1e3:.3f}ms "
          f"(imb {ms['modes']['throughput']['imbalance']:.2f}), "
          f"bit-identical={ms['bit_identical']}")

    if not ok:
        print("[bench] PORTABILITY CHECK FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
