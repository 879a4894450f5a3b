"""Tests for the offload-as-a-service runtime (repro.serving): the
shared compile cache, deterministic admission and batching, session warm
state with digest-gated transfer elision, tenant quotas and eviction,
and leak-free session teardown."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.ompi.cache import CompileCache, compile_cached, source_key
from repro.ompi.config import OmpiConfig
from repro.serving import (
    AdmissionQueue, OffloadServer, QuotaError, TenantQuota, percentile,
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

SCALE = f"""
float x[{N}], y[{N}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: x) map(tofrom: y)
  for (int i = 0; i < {N}; i++) y[i] = 2.5f * x[i] + y[i];
  return 0;
}}
"""

G = 8

GEMM = f"""
float A[{G}][{G}], B[{G}][{G}], C[{G}][{G}];
int main(void) {{
  #pragma omp target teams distribute parallel for collapse(2) \\
          map(to: A, B) map(tofrom: C)
  for (int i = 0; i < {G}; i++)
    for (int j = 0; j < {G}; j++) {{
      float acc = 0.0f;
      for (int k = 0; k < {G}; k++) acc += A[i][k] * B[k][j];
      C[i][j] += acc;
    }}
  return 0;
}}
"""

NOWAIT = f"""
float u[{N}], v[{N}];
int main(void) {{
  #pragma omp target teams distribute parallel for nowait depend(out: u) \\
          map(tofrom: u)
  for (int i = 0; i < {N}; i++) u[i] = u[i] * 2.0f;
  #pragma omp target teams distribute parallel for nowait depend(out: v) \\
          map(tofrom: v)
  for (int i = 0; i < {N}; i++) v[i] = v[i] * 3.0f;
  #pragma omp taskwait
  return 0;
}}
"""


def _vec(seed, shape=N):
    return np.random.default_rng(seed).random(shape, dtype=np.float32)


def _standalone(source, name, seed_arrays, outputs, cache=None,
                config=None):
    cache = cache if cache is not None else CompileCache()
    prog = cache.get(source, name, config or OmpiConfig())
    run = prog.run(seed_arrays=seed_arrays, num_devices=1)
    return {out: np.asarray(run.machine.global_array(out)).tobytes()
            for out in outputs}


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------
def test_compile_cache_hit_and_miss():
    cache = CompileCache()
    p1 = cache.get(VADD, "vadd", OmpiConfig())
    p2 = cache.get(VADD, "vadd", OmpiConfig())
    assert p1.host_unit is p2.host_unit       # same compiled artifact
    assert cache.stats["misses"] == 1
    assert cache.stats["hits"] == 1


def test_compile_cache_keys_on_source_and_config():
    cache = CompileCache()
    cache.get(VADD, "vadd", OmpiConfig())
    cache.get(SCALE, "vadd", OmpiConfig())              # different source
    cache.get(VADD, "vadd", OmpiConfig(block_shape=(4, 4, 1)))  # codegen knob
    assert cache.stats["misses"] == 3
    assert source_key(VADD, "vadd", OmpiConfig()) != source_key(
        VADD, "vadd", OmpiConfig(block_shape=(4, 4, 1)))
    # runtime-only knobs share a compilation
    assert source_key(VADD, "vadd", OmpiConfig()) == source_key(
        VADD, "vadd", OmpiConfig(num_devices=4))


def test_compile_cache_lru_eviction():
    cache = CompileCache(max_entries=1)
    cache.get(VADD, "vadd")
    cache.get(SCALE, "scale")                 # evicts vadd
    assert cache.stats["evictions"] == 1
    cache.get(VADD, "vadd")                   # recompiles
    assert cache.stats["misses"] == 3


def test_compile_cached_uses_global_cache():
    p1 = compile_cached(VADD, "vadd_global_cache_probe")
    p2 = compile_cached(VADD, "vadd_global_cache_probe")
    assert p1.host_unit is p2.host_unit


def test_default_server_cache_is_bounded_and_releases_evicted_kernels(
        monkeypatch):
    """A server built without a compile cache keeps its own bounded one:
    an evicted program's compiled closures are unreachable afterwards."""
    from repro.serving import server as server_module
    monkeypatch.setattr(server_module, "COMPILE_CACHE_ENTRIES", 1,
                        raising=False)
    server = OffloadServer(num_devices=1)
    session = server.open_session()
    server.submit(session, VADD, name="gone")
    server.drain()
    prog = server.compile_cache.get(VADD, "gone", server.config)
    kernel = prog.images["gone_kernel0"].module.kernels["gone_kernel0"]
    body = weakref.ref(kernel.closures.body_fn)
    del prog, kernel
    req = server.submit(session, SCALE, name="next")
    server.drain()
    assert req.status == "done"
    assert server.compile_cache.stats["evictions"] == 1
    gc.collect()
    assert body() is None
    server.close()


# ---------------------------------------------------------------------------
# Admission ordering
# ---------------------------------------------------------------------------
class _Sess:
    def __init__(self, sid, device=0):
        self.sid, self.device = sid, device


class _Req:
    def __init__(self, arrival, sid, seq, program_key="p"):
        self.session = _Sess(sid)
        self.arrival = arrival
        self.session_seq = seq
        self.program_key = program_key

    @property
    def key(self):
        return (self.arrival, self.session.sid, self.session_seq)


def test_admission_tie_breaks_on_session_id():
    q = AdmissionQueue(1)
    # pushed out of session order, same arrival instant
    for sid in (2, 0, 1):
        q.push(_Req(0.0, sid, 0))
    batch = q.pop_batch(0, now=0.0, max_batch=8)
    assert [r.session.sid for r in batch] == [0, 1, 2]


def test_batching_preserves_per_session_fifo():
    q = AdmissionQueue(1)
    q.push(_Req(0.0, 0, 0, "p"))
    q.push(_Req(0.0, 1, 0, "other"))   # incompatible: bars session 1
    q.push(_Req(0.0, 1, 1, "p"))       # compatible but must stay behind
    batch = q.pop_batch(0, now=0.0, max_batch=8)
    assert [(r.session.sid, r.session_seq) for r in batch] == [(0, 0)]
    assert q.depth(0) == 2


# ---------------------------------------------------------------------------
# Serving correctness: bit-identity with standalone runs
# ---------------------------------------------------------------------------
def test_single_session_matches_standalone():
    seeds = {"a": _vec(1), "b": _vec(2)}
    ref = _standalone(VADD, "vadd", seeds, ("c",))
    with OffloadServer(num_devices=1) as server:
        sess = server.open_session()
        req = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                            outputs=("c",))
        server.drain()
    assert req.status == "done"
    assert np.asarray(req.result["c"]).tobytes() == ref["c"]


def test_many_sessions_all_devices_bit_identical():
    """64 concurrent sessions over a 4-device registry: every session's
    result must match a standalone single-device run bitwise."""
    cache = CompileCache()
    config = OmpiConfig()
    progs = [("vadd", VADD, {"a": _vec(1), "b": _vec(2)}, ("c",)),
             ("scale", SCALE, {"x": _vec(3), "y": _vec(4)}, ("y",))]
    refs = {name: _standalone(src, name, seeds, outs, cache, config)
            for name, src, seeds, outs in progs}
    server = OffloadServer(num_devices=4, config=config, compile_cache=cache)
    sessions = [server.open_session(f"tenant{i % 8}") for i in range(64)]
    reqs = []
    for s in sessions:
        name, src, seeds, outs = progs[s.sid % len(progs)]
        reqs.append(server.submit(s, src, name=name, seed_arrays=seeds,
                                  outputs=outs, arrival=0.0))
    server.drain()
    assert sorted({s.device for s in sessions}) == [0, 1, 2, 3]
    assert all(r.status == "done" for r in reqs)
    for r in reqs:
        for out, arr in r.result.items():
            assert np.asarray(arr).tobytes() == refs[r.name][out]
    # same program + same arrival instant => multi-request batches formed
    assert any(size > 1 for size in server.stats.batches)
    server.close()


def test_interleaved_submission_order_is_irrelevant():
    """Satellite: deterministic virtual-clock ordering.  A 2-session
    interleaved gemm workload must produce bit-identical results and
    completion times no matter how the submits were interleaved."""
    def run(order):
        server = OffloadServer(num_devices=1)
        s = [server.open_session("t0"), server.open_session("t1")]
        seeds = [{"A": _vec(10, (G, G)), "B": _vec(11, (G, G)),
                  "C": np.zeros((G, G), dtype=np.float32)},
                 {"A": _vec(20, (G, G)), "B": _vec(21, (G, G)),
                  "C": np.zeros((G, G), dtype=np.float32)}]
        arrivals = {0: iter([0.0, 0.001]), 1: iter([0.0, 0.001])}
        reqs = {}
        for sid in order:
            reqs[(sid, s[sid].submitted)] = server.submit(
                s[sid], GEMM, name="gemm", seed_arrays=seeds[sid],
                outputs=("C",), arrival=next(arrivals[sid]))
        server.drain()
        out = {k: (np.asarray(r.result["C"]).tobytes(), r.done_time)
               for k, r in reqs.items()}
        server.close()
        return out

    # the same four logical requests, the two sessions' submit calls
    # interleaved two different ways (per-session order is FIFO semantics
    # and stays fixed; only the cross-session interleaving varies)
    assert run([0, 1, 0, 1]) == run([1, 0, 1, 0])


# ---------------------------------------------------------------------------
# Warm state: digest-gated transfer elision
# ---------------------------------------------------------------------------
def test_warm_resubmit_skips_htod_and_stays_correct():
    seeds = {"a": _vec(5), "b": _vec(6)}
    ref = _standalone(VADD, "vadd", seeds, ("c",))
    with OffloadServer(num_devices=1) as server:
        sess = server.open_session()
        r1 = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                           outputs=("c",))
        server.drain()
        r2 = server.submit(sess, VADD, name="vadd", seed_arrays=seeds,
                           outputs=("c",))
        server.drain()
        assert r1.status == r2.status == "done"
        assert np.asarray(r1.result["c"]).tobytes() == ref["c"]
        assert np.asarray(r2.result["c"]).tobytes() == ref["c"]
        # round 2 borrowed the parked allocations and the unchanged
        # map(to:) inputs skipped their HtoD copies
        assert sess.warm_borrows >= 3
        assert sess.reuse_hits >= 2
        assert server.stats.reuse_hits >= 2


def test_stale_resident_state_is_refreshed():
    """Changed host bytes must defeat the digest and force a fresh HtoD
    copy — a parked buffer is a cache, never a source of truth."""
    with OffloadServer(num_devices=1) as server:
        sess = server.open_session()
        server.submit(sess, VADD, name="vadd",
                      seed_arrays={"a": _vec(7), "b": _vec(8)},
                      outputs=("c",))
        server.drain()
        seeds2 = {"a": _vec(9), "b": _vec(10)}
        req = server.submit(sess, VADD, name="vadd", seed_arrays=seeds2,
                            outputs=("c",))
        server.drain()
        assert req.status == "done"
        assert sess.warm_borrows >= 3          # allocations still reused
        assert server.stats.reuse_hits == 0    # ... but no copy was elided
        ref = _standalone(VADD, "vadd", seeds2, ("c",))
        assert np.asarray(req.result["c"]).tobytes() == ref["c"]


# ---------------------------------------------------------------------------
# Quotas, rejection, eviction
# ---------------------------------------------------------------------------
def test_session_and_pending_quotas_reject():
    quota = TenantQuota(max_sessions=1, max_pending=1)
    server = OffloadServer(num_devices=1, default_quota=quota, profile=True)
    sess = server.open_session("t")
    with pytest.raises(QuotaError):
        server.open_session("t")
    server.submit(sess, VADD, name="vadd", outputs=("c",))
    with pytest.raises(QuotaError):
        server.submit(sess, VADD, name="vadd", outputs=("c",))
    assert server.stats.rejections == 2
    rejects = [r for r in server.prof.records("serving") if r.op == "reject"]
    assert len(rejects) == 2
    server.drain()                 # pending slot released at dispatch
    server.submit(sess, VADD, name="vadd", outputs=("c",))
    server.drain()
    server.close()


def test_quota_pressure_evicts_coldest_idle_session():
    """Parking beyond the tenant's resident budget sheds the tenant's
    coldest idle session — never the one whose request is in flight."""
    quota = TenantQuota(max_resident_bytes=1024)   # ~one session's arrays
    server = OffloadServer(num_devices=1, default_quota=quota)
    cold = server.open_session("t")
    warm = server.open_session("t")
    server.submit(cold, VADD, name="vadd", outputs=("c",))
    server.drain()
    assert cold.resident_bytes > 0
    server.submit(warm, VADD, name="vadd", outputs=("c",))
    server.drain()
    assert server.stats.evictions >= 1
    assert cold.resident_bytes == 0 and not cold.resident
    assert warm.resident_bytes > 0         # the active session kept hers
    assert server.quotas.resident("t") <= 1024
    server.close()


# ---------------------------------------------------------------------------
# Teardown: sessions must not leak device memory
# ---------------------------------------------------------------------------
def test_session_create_destroy_cycles_do_not_leak():
    """Satellite: after N create/submit/destroy cycles (with nowait tasks
    in flight at close), cuMemGetInfo free bytes return to the
    post-warm-up baseline on every device."""
    server = OffloadServer(num_devices=2)

    def cycle():
        sess = server.open_session("leakcheck")
        server.submit(sess, NOWAIT, name="nowait",
                      seed_arrays={"u": _vec(30), "v": _vec(31)},
                      outputs=("u", "v"))
        server.submit(sess, VADD, name="vadd",
                      seed_arrays={"a": _vec(32), "b": _vec(33)},
                      outputs=("c",))
        # close with requests still pending: teardown must drain them,
        # free the parked state and return arena blocks deterministically
        server.close_session(sess)

    cycle()                                   # warm-up: module loads stick
    for mod in server.devices:
        mod.initialize()
    baseline = [mod.driver.cuMemGetInfo() for mod in server.devices]
    for _ in range(5):
        cycle()
    after = [mod.driver.cuMemGetInfo() for mod in server.devices]
    assert after == baseline
    server.close()


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def test_serving_activity_and_chrome_track(tmp_path):
    trace = tmp_path / "serving.json"
    with OffloadServer(num_devices=1, profile=str(trace)) as server:
        sess = server.open_session("obs")
        server.submit(sess, VADD, name="vadd", outputs=("c",))
        server.drain()
        ops = {r.op for r in server.prof.records("serving")}
        assert {"session_open", "enqueue", "batch", "admit",
                "request"} <= ops
    data = json.loads(trace.read_text())
    serving = [e for e in data["traceEvents"] if e.get("pid") == 4]
    spans = [e for e in serving if e.get("ph") == "X"]
    assert spans and any(e["name"].startswith("req") for e in spans)
    counters = [e for e in serving if e.get("ph") == "C"]
    assert counters                          # admission-queue depth track


def test_request_failure_cancels_only_that_sessions_successors():
    """A failing request poisons its own session's later requests (FIFO
    chain) but a neighbour session on the same device is untouched."""
    bad_src = VADD.replace("c[i] = a[i] * 2.0f + b[i]",
                           "c[i] = undeclared_fn(a[i])", 1)
    assert "undeclared_fn" in bad_src
    with OffloadServer(num_devices=1) as server:
        bad = server.open_session("t0")
        good = server.open_session("t1")
        r1 = server.submit(bad, bad_src, name="oob", outputs=("c",),
                           arrival=0.0)
        r2 = server.submit(bad, VADD, name="vadd", outputs=("c",),
                           arrival=0.0)
        r3 = server.submit(good, VADD, name="vadd", outputs=("c",),
                           arrival=0.0)
        server.drain()
        assert r1.status == "failed" and r1.error
        assert r2.status == "failed"
        assert "earlier request" in (r2.error or "")
        assert r3.status == "done"


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([], 99) == 0.0
