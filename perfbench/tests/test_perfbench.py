"""Tests of the benchmark itself: its gate can fail, every layer it names
is measured where it should be, and tracing leaves nothing behind.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """Keep the run's history and traces out of the benchmark directory
    and give the process its environment back afterwards."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "HISTORY", tmp_path / "history.jsonl")
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def test_corrupted_output_fails_the_run(monkeypatch, capsys):
    from repro.ompi.compiler import CompiledProgram
    real_run = CompiledProgram.run

    def corrupting_run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        for name in ("C", "x2", "y"):
            if name in result.machine.globals:
                result.machine.global_array(name)[0] += 1.0
        return result
    monkeypatch.setattr(CompiledProgram, "run", corrupting_run)

    code = run.main(["--workload", "host_heavy", "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    failed_frac = next(line for line in lines
                       if line.startswith("failed_frac"))
    assert float(failed_frac.split()[1]) > 0
    history = json.loads(run.HISTORY.read_text().splitlines()[-1])
    assert history["correct"] is False
    assert history["provenance"]["seed"] == 3


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_covers_its_layers_and_unwraps(workload):
    before = spans.installed_targets()
    result, report, phases, _raw = run.measure(workload, seed=5,
                                               seconds=1, trace=True)
    assert spans.installed_targets() == before

    assert result["correct"], report
    assert result["failed"] == 0
    traced = phases[-1]
    times = traced.tracer.layer_times()
    for layer in spans.EXPECTED_LAYERS[workload]:
        assert times.get(layer, (0.0, 0))[1] >= 1, layer
    # the traced passes ran the same simulation as the untraced ones
    assert traced.sim_digests[0] == phases[0].sim_digests[0]
    assert traced.out_digests[0] == phases[0].out_digests[0]
    assert set(result["metrics"]) == set(_per_layer_names())
    assert (run.OUT / f"{workload}.trace.json").exists()
    assert "where the wall time went" in (
        run.OUT / f"{workload}.layers.txt").read_text()


def test_untraced_run_reports_every_end_to_end_metric():
    result, report, phases, raw = run.measure("serve_mixed", seed=2,
                                              seconds=5, trace=False)
    assert result["correct"], report
    assert set(result["metrics"]) == set(_end_to_end_names())
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # every serving request is a job: far more than 200 of them
    assert any(line.startswith("job_p95_s") for line in report)


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _end_to_end_names() -> list[str]:
    return [m["name"] for m in _benchmark_json()["end_to_end"]]


def _per_layer_names() -> list[str]:
    return [m["name"] for m in _benchmark_json()["per_layer"]]
