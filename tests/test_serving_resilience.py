"""Tests for the serving-tier resilience layer
(repro.serving.resilience): device health scores, per-device circuit
breakers, request deadlines, retry failover and live session migration,
plus the observability hooks (summary counters, resilience trace track).
"""

import json

import numpy as np
import pytest

from repro.ompi.cache import CompileCache
from repro.ompi.config import OmpiConfig
from repro.serving import (
    BreakerPolicy, CircuitBreaker, DeadlineExceeded, OffloadServer,
    resolve_breaker, resolve_deadline,
)

N = 64

VADD = f"""
float a[{N}], b[{N}], c[{N}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: a, b) map(from: c)
  for (int i = 0; i < {N}; i++) c[i] = a[i] * 2.0f + b[i];
  return 0;
}}
"""

#: one mid-run sticky device loss on the first kernel launch
DEVLOST = "device_unavailable@cuLaunchKernel:count=1,sticky=1"


def _vec(seed, shape=N):
    return np.random.default_rng(seed).random(shape, dtype=np.float32)


def _standalone(source, name, seed_arrays, outputs):
    prog = CompileCache().get(source, name, OmpiConfig())
    run = prog.run(seed_arrays=seed_arrays, num_devices=1)
    return {out: np.asarray(run.machine.global_array(out)).tobytes()
            for out in outputs}


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------

def test_resolve_deadline():
    assert resolve_deadline(None) is None
    assert resolve_deadline("off") is None
    assert resolve_deadline("") is None
    assert resolve_deadline(0) is None
    assert resolve_deadline(-1.0) is None
    assert resolve_deadline("2.5e-3") == 2.5e-3
    assert resolve_deadline(0.01) == 0.01


def test_resolve_breaker():
    assert resolve_breaker(None) == BreakerPolicy()   # on by default
    assert resolve_breaker("off") is None
    assert resolve_breaker("on") == BreakerPolicy()
    policy = resolve_breaker("threshold=2,cooldown=1e-3,window=0.02")
    assert policy.failure_threshold == 2
    assert policy.cooldown_s == 1e-3
    assert policy.window_s == 0.02
    with pytest.raises(ValueError, match="unknown breaker option"):
        resolve_breaker("frobnicate=1")


# ---------------------------------------------------------------------------
# Breaker state machine (pure virtual-clock unit tests)
# ---------------------------------------------------------------------------

def test_breaker_opens_probes_and_closes():
    policy = BreakerPolicy(failure_threshold=2, window_s=1.0,
                           cooldown_s=1e-3)
    brk = CircuitBreaker(0, policy)
    assert brk.routable(0.0)
    brk.record_failure(0.0)
    assert brk.state == "closed"            # below threshold
    brk.record_failure(0.0001)
    assert brk.state == "open" and brk.opens == 1
    assert not brk.routable(0.0002)         # cooldown running
    assert brk.routable(0.0001 + 1e-3)      # cooldown elapsed: canary slot
    assert brk.state == "half_open" and brk.probes == 1
    brk.record_success(0.002)
    assert brk.state == "closed" and brk.closes == 1
    assert brk.cooldown == policy.cooldown_s


def test_breaker_failed_probe_escalates_bounded_cooldown():
    policy = BreakerPolicy(failure_threshold=1, cooldown_s=1e-3,
                           cooldown_factor=2.0, max_cooldown_s=3e-3)
    brk = CircuitBreaker(0, policy)
    brk.record_failure(0.0)
    assert brk.state == "open"
    cooldowns = []
    t = 0.0
    for _ in range(4):
        t = brk.opened_at + brk.cooldown
        assert brk.routable(t)              # half-open probe
        brk.record_failure(t)               # probe fails: re-open
        cooldowns.append(brk.cooldown)
    assert cooldowns == [2e-3, 3e-3, 3e-3, 3e-3]   # doubled, then capped


def test_breaker_device_loss_is_permanently_open():
    brk = CircuitBreaker(0, BreakerPolicy(cooldown_s=1e-6))
    brk.trip_lost(0.0)
    assert brk.state == "open" and brk.permanent
    assert not brk.routable(1e9)            # no probe loop for a dead device
    assert not brk.allows(1e9)
    brk.record_failure(1.0)                 # no-op, no flapping
    assert brk.opens == 1


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

def test_unmeetable_deadline_rejected_at_admission():
    with OffloadServer(num_devices=1) as server:
        sess = server.open_session()
        with pytest.raises(DeadlineExceeded):
            server.submit(sess, VADD, name="vadd", outputs=("c",),
                          arrival=1.0, deadline=1.0)
        assert server.stats.deadline_rejections == 1
        assert sess.pending == 0            # nothing leaked into the queue


def test_completion_past_deadline_is_typed_rejection():
    # a 1ns budget cannot cover any modelled offload: the work runs but
    # the client gets a typed rejection, never a silently-late result
    with OffloadServer(num_devices=1, deadline=1e-9) as server:
        sess = server.open_session()
        req = server.submit(sess, VADD, name="vadd", outputs=("c",),
                            arrival=0.0)
        server.drain()
        assert req.status == "rejected"
        assert "DeadlineExceeded" in req.error
        assert server.stats.completed == 0
        assert server.stats.deadline_rejections == 1
        assert server.summary()["deadline_rejections"] == 1


def test_generous_deadline_does_not_perturb_service():
    seeds = {"a": _vec(1), "b": _vec(2)}
    ref = _standalone(VADD, "vadd", seeds, ("c",))
    with OffloadServer(num_devices=1, deadline=10.0) as server:
        sess = server.open_session()
        req = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                            outputs=("c",))
        server.drain()
        assert req.status == "done"
        assert req.deadline == req.arrival + 10.0
        assert np.asarray(req.result["c"]).tobytes() == ref["c"]
        assert server.stats.deadline_rejections == 0


# ---------------------------------------------------------------------------
# Failover: device loss mid-request retries on a healthy peer
# ---------------------------------------------------------------------------

def test_devlost_failover_retries_bit_identical():
    seeds = {"a": _vec(3), "b": _vec(4)}
    ref = _standalone(VADD, "vadd", seeds, ("c",))
    with OffloadServer(num_devices=2, faults={0: DEVLOST}) as server:
        sess = server.open_session(device=0)
        req = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                            outputs=("c",))
        server.drain()
        # the request lost its device mid-launch, failed over to the
        # healthy peer after a backoff, and completed bit-identically
        assert req.status == "done"
        assert req.retries == 1
        assert req.device == 1 and sess.device == 1
        assert np.asarray(req.result["c"]).tobytes() == ref["c"]
        summary = server.summary()
        assert summary["retries"] == 1
        assert summary["migrations"] >= 1
        assert summary["fault_recovery"]["device_lost"] == 1
        assert summary["breakers"]["states"] == ["open", "closed"]
        assert summary["device_health"][0] == 0.0
        assert summary["device_health"][1] > 0.0


def test_new_work_routes_around_lost_device():
    with OffloadServer(num_devices=2, faults={0: DEVLOST}) as server:
        pinned = server.open_session(device=0)
        req = server.submit(pinned, VADD, name="vadd", outputs=("c",))
        server.drain()
        assert req.status == "done" and pinned.device == 1
        # placement skips the permanently-open device ...
        fresh = server.open_session()
        assert fresh.device == 1
        # ... and a later submit on the failed-over session stays put
        again = server.submit(pinned, VADD, name="vadd", outputs=("c",))
        server.drain()
        assert again.status == "done" and again.device == 1
        assert again.retries == 0           # no second fault to recover


def test_retry_respects_request_deadline():
    # the failover backoff would land past the deadline: the request is
    # rejected with the typed deadline error instead of retried late
    with OffloadServer(num_devices=2, faults={0: DEVLOST},
                       deadline=1e-9) as server:
        sess = server.open_session(device=0)
        req = server.submit(sess, VADD, name="vadd", outputs=("c",),
                            arrival=0.0)
        server.drain()
        assert req.status == "rejected"
        assert "DeadlineExceeded" in req.error
        assert server.stats.retries == 0
        assert server.stats.failed == 0     # failure converted, not kept


# ---------------------------------------------------------------------------
# Live migration of warm session state
# ---------------------------------------------------------------------------

def test_migration_moves_warm_buffers_digest_verified():
    seeds = {"a": _vec(5), "b": _vec(6)}
    ref = _standalone(VADD, "vadd", seeds, ("c",))
    with OffloadServer(num_devices=2) as server:
        sess = server.open_session(device=0)
        r1 = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                           outputs=("c",))
        server.drain()
        assert r1.status == "done"
        parked = sess.resident_bytes
        assert parked > 0                   # warm state exists to migrate
        assert server._device_resident[0] == parked
        moved = server.migrate_session(sess, 1, reason="test")
        assert moved == parked              # every buffer verified across
        assert sess.device == 1 and sess.migrations == 1
        assert server._device_resident[0] == 0
        assert server._device_resident[1] == parked
        assert server.stats.migrated_bytes == parked
        # the migrated bytes are live warm state: the resubmit borrows
        # them on the new device and elides the unchanged HtoD copies
        r2 = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                           outputs=("c",))
        server.drain()
        assert r2.status == "done" and r2.device == 1
        assert np.asarray(r2.result["c"]).tobytes() == ref["c"]
        assert sess.warm_borrows >= 3 and sess.reuse_hits >= 2


def test_planned_drain_migrates_sessions_and_resume_restores():
    with OffloadServer(num_devices=2) as server:
        s0 = server.open_session(device=0)
        s1 = server.open_session(device=1)
        r0 = server.submit(s0, VADD, name="vadd", outputs=("c",))
        r1 = server.submit(s1, VADD, name="vadd", outputs=("c",))
        done = server.drain(device=0)       # planned drain of device 0
        assert {r.status for r in done} == {"done"}
        assert s0.device == 1 and s0.migrations == 1
        assert r0.device == 1 and r1.device == 1
        assert server.summary()["draining"] == [0]
        # device 0 is out of placement until resumed
        assert server.open_session().device == 1
        server.resume(0)
        assert "draining" not in server.summary()
        assert server.open_session().device == 0


# ---------------------------------------------------------------------------
# Determinism and observability
# ---------------------------------------------------------------------------

def test_chaos_outcomes_deterministic_across_reruns():
    def run():
        seeds = {"a": _vec(7), "b": _vec(8)}
        with OffloadServer(num_devices=4,
                           faults="devlost:p=0.3,seed=11") as server:
            sessions = [server.open_session(f"t{i}") for i in range(8)]
            reqs = [server.submit(s, VADD, name="vadd", seed_arrays=seeds,
                                  outputs=("c",), arrival=0.0)
                    for s in sessions]
            server.drain()
            outcomes = [(r.status, r.device, r.retries, r.done_time)
                        for r in reqs]
            summary = server.summary()
            return outcomes, summary["breakers"], summary["migrations"]

    assert run() == run()


def test_per_device_fault_seeds_are_decorrelated():
    # one shared probabilistic spec must not make all devices fail on
    # the same draw — each registry slot derives its own stream
    with OffloadServer(num_devices=4,
                       faults="devlost:p=0.3,seed=11") as server:
        sessions = [server.open_session(device=k) for k in range(4)]
        for s in sessions:
            server.submit(s, VADD, name="vadd", outputs=("c",))
        server.drain()
        lost = [mod.lost for mod in server.devices]
        assert any(lost) and not all(lost)


def test_resilience_activity_and_chrome_track(tmp_path):
    trace = tmp_path / "resilience.json"
    with OffloadServer(num_devices=2, faults={0: DEVLOST},
                       profile=str(trace)) as server:
        sess = server.open_session(device=0)
        req = server.submit(sess, VADD, name="vadd", outputs=("c",))
        server.drain()
        assert req.status == "done"
        ops = {r.op for r in server.prof.records("resilience")}
        assert {"breaker_open", "retry", "migrate", "health"} <= ops
    data = json.loads(trace.read_text())
    res = [e for e in data["traceEvents"] if e.get("pid") == 5]
    instants = [e for e in res if e.get("ph") == "i"]
    assert any(e["name"] == "resilience:breaker_open" for e in instants)
    assert any(e["name"] == "resilience:retry" for e in instants)
    counters = [e for e in res if e.get("ph") == "C"]
    assert counters and all("score" in e["args"] for e in counters)
