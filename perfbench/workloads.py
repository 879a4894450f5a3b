"""The benchmark's four workloads: programs, seeded inputs and references.

A workload is built from a seed.  The seed only shapes the inputs (array
contents, the serving request order and its never-seen sources); the
amount of work is the same for every seed, so wall times of different
seeds compare.  Every output is checked against a reference computed
here with numpy, never by the code under test.

* ``fig4_full`` — the six Figure-4 applications, compiled once and run
  unsampled (``launch_mode="full"``).  The paper's evaluation; its wall
  time is almost all per-warp kernel simulation.
* ``sync_kernels`` — kernels that cross barriers, shared memory,
  shuffles and locks: three tree-reduction Polybench kernels, a
  ``collapse(2)`` sum, a master/worker ``parallel for`` in a bare
  ``target`` and ``atomic``/``critical`` updates.  The same simulator
  through block phases and the cross-team fold.
* ``host_heavy`` — the host-initialised gemm/mvt/atax variants, whose
  wall time is host C loops run by the host fast path.
* ``serve_mixed`` — a closed loop of 8 clients over 2 tenants against one
  offload server with 2 devices; per-request costs (compile misses,
  bind, runtime set-up, admission, per-launch set-up) dominate.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.apps.base import fmt
from repro.bench.harness import _heap_capacity, _prog_name
from repro.bench.hostinit import HOST_WORKLOADS
from repro.bench.suite import ALL_APPS, get_app
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.ompi.cache import CompileCache
from repro.ompi.diskcache import DiskCompileCache
from repro.serving import OffloadServer, TenantQuota

F32 = np.float32

#: modelled event kinds charged to the kernel and to transfers
KERNEL_KINDS = ("kernel", "launch_overhead", "jit")
XFER_KINDS = ("memcpy_h2d", "memcpy_d2h", "alloc", "free")


@dataclass
class JobResult:
    """One job of a pass: its wall time, whether every check held, and
    what the identity digests fold in."""

    name: str
    wall_s: float
    ok: bool
    kernel_modelled_s: float = 0.0
    xfer_modelled_s: float = 0.0
    #: sha256 of the job's outputs (kept instead of the outputs, so a
    #: long run holds no growing copies of them)
    outputs: bytes = b""
    why: str = ""
    #: the numpy calibration loop's seconds around the job (see run.py)
    cal: float = 0.0


def _close(got, want, rtol, atol) -> bool:
    got = np.asarray(got).reshape(np.shape(want))
    return bool(np.allclose(got, want, rtol=rtol, atol=atol))


def _fold(values: np.ndarray) -> float:
    """The sequential float64 fold in iteration order — what the
    ``reduction(+:)`` scalar must equal bit for bit."""
    acc = np.float64(0.0)
    for v in np.asarray(values).ravel():
        acc = np.float64(acc + np.float64(v))
    return float(acc)


# ---------------------------------------------------------------- programs ---

@dataclass
class Program:
    """A C program, its inputs, and a check of the finished machine.

    ``check(machine, stdout)`` returns ``None`` when every output is
    right, else a short reason."""

    name: str
    source: str
    inputs: dict
    check: Callable
    outputs: tuple
    config: OmpiConfig = field(default_factory=OmpiConfig)
    heap: int = 256 << 20


class ProgramWorkload:
    """A fixed list of programs, compiled in set-up; one pass runs each
    once with ``CompiledProgram.run``."""

    #: every pass does the same work, so passes must agree exactly
    repeatable = True

    def __init__(self, name: str, programs: list[Program]):
        self.name = name
        self.programs = programs

    def setup(self, compile_samples: list, workdir) -> dict:
        """Compile every program cold; returns name -> compiled program."""
        compiled = {}
        for p in self.programs:
            t0 = time.perf_counter()
            compiled[p.name] = OmpiCompiler(p.config).compile(p.source, p.name)
            compile_samples.append(time.perf_counter() - t0)
        return compiled

    def run_pass(self, compiled: dict, index: int, job) -> list[JobResult]:
        out = []
        for p in self.programs:
            with job() as clock:
                t0 = time.perf_counter()
                run = compiled[p.name].run(
                    launch_mode="full", seed_arrays=p.inputs,
                    heap_capacity=p.heap)
                wall = time.perf_counter() - t0
            machine = run.machine
            why = None if run.exit_code == 0 else f"exit {run.exit_code}"
            why = why or p.check(machine, run.stdout)
            blob = hashlib.sha256(run.stdout.encode())
            for o in p.outputs:
                blob.update(np.asarray(machine.global_array(o)).tobytes())
            out.append(JobResult(
                p.name, wall, why is None,
                run.log.total(*KERNEL_KINDS), run.log.total(*XFER_KINDS),
                blob.digest(), why or "", clock.cal[0]))
        return out

    def counters(self, compiled: dict) -> dict:
        return {}

    def close(self, compiled: dict) -> None:
        pass


# ----------------------------------------------------------------- fig4_full --

#: per-application size: every launch runs unsampled in well under a
#: second (3dconv is n^3, gemm and gramschmidt carry an n-long inner loop)
FIG4_SIZES = {"3dconv": 12, "bicg": 128, "atax": 128, "mvt": 128,
              "gemm": 32, "gramschmidt": 24}


def fig4_full(rng: np.random.Generator) -> ProgramWorkload:
    programs = []
    for app_name in ALL_APPS:
        app = get_app(app_name)
        n = FIG4_SIZES[app_name]
        inputs = {}
        for key, like in app.seed(n).items():
            # arrays the app seeds with zeros are outputs/accumulators
            inputs[key] = (np.zeros_like(like) if not like.any()
                           else rng.random(like.shape, dtype=F32))
        want = app.reference(n, inputs)

        def check(machine, stdout, app=app, want=want):
            for out in app.outputs:
                if not _close(machine.global_array(out), want[out],
                              app.rtol, app.atol):
                    return f"{out} differs from the numpy reference"
            return None
        programs.append(Program(
            _prog_name(app, n), app.omp_source(n), inputs, check,
            tuple(app.outputs), OmpiConfig(block_shape=app.block_shape),
            _heap_capacity(app, n)))
    return ProgramWorkload("fig4_full", programs)


# -------------------------------------------------------------- sync_kernels --

_CORRELATION = r'''
float data[{N}][{N}];
float corr[{N}][{N}], mean[{N}], stddev[{N}];
double checksum;

int main(void)
{
    int i, j, j1, j2;
    #pragma omp target teams distribute parallel for \
        map(tofrom: data) map(from: mean, stddev) num_teams({T1})
    for (j = 0; j < {N}; j++)
    {
        float m, s, d;
        m = 0.0f;
        for (i = 0; i < {N}; i++)
            m += data[i][j];
        m = m / (float){N};
        s = 0.0f;
        for (i = 0; i < {N}; i++)
        {
            d = data[i][j] - m;
            s += d * d;
        }
        s = sqrtf(s / (float){N});
        if (s <= 0.005f)
            s = 1.0f;
        mean[j] = m;
        stddev[j] = s;
    }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(tofrom: data) map(to: mean, stddev) num_teams({T2})
    for (i = 0; i < {N}; i++)
        for (j = 0; j < {N}; j++)
            data[i][j] = (data[i][j] - mean[j]) / stddev[j];
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: data) map(from: corr) num_teams({T2})
    for (j1 = 0; j1 < {N}; j1++)
        for (j2 = 0; j2 < {N}; j2++)
        {
            float acc;
            acc = 0.0f;
            for (i = 0; i < {N}; i++)
                acc += data[i][j1] * data[i][j2];
            corr[j1][j2] = acc / (float){N};
        }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: corr) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({T2})
    for (j1 = 0; j1 < {N}; j1++)
        for (j2 = 0; j2 < {N}; j2++)
            checksum += (double) corr[j1][j2];
    return 0;
}
'''

_COVARIANCE = r'''
float data[{N}][{N}];
float cov[{N}][{N}], mean[{N}];
double checksum;

int main(void)
{
    int i, j, j1, j2;
    #pragma omp target teams distribute parallel for \
        map(to: data) map(from: mean) num_teams({T1})
    for (j = 0; j < {N}; j++)
    {
        float m;
        m = 0.0f;
        for (i = 0; i < {N}; i++)
            m += data[i][j];
        mean[j] = m / (float){N};
    }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: data, mean) map(from: cov) num_teams({T2})
    for (j1 = 0; j1 < {N}; j1++)
        for (j2 = 0; j2 < {N}; j2++)
        {
            float acc;
            acc = 0.0f;
            for (i = 0; i < {N}; i++)
                acc += (data[i][j1] - mean[j1]) * (data[i][j2] - mean[j2]);
            cov[j1][j2] = acc / (float)({N} - 1);
        }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: cov) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({T2})
    for (j1 = 0; j1 < {N}; j1++)
        for (j2 = 0; j2 < {N}; j2++)
            checksum += (double) cov[j1][j2];
    return 0;
}
'''

_DOITGEN = r'''
float A[{N}][{N}][{N}], C4[{N}][{N}], S[{N}][{N}][{N}];
double checksum;

int main(void)
{
    int r, q, p, s;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A, C4) map(from: S) num_teams({T2})
    for (r = 0; r < {N}; r++)
        for (q = 0; q < {N}; q++)
            for (p = 0; p < {N}; p++)
            {
                float acc;
                acc = 0.0f;
                for (s = 0; s < {N}; s++)
                    acc += A[r][q][s] * C4[s][p];
                S[r][q][p] = acc;
            }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: S) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({T2})
    for (r = 0; r < {N}; r++)
        for (q = 0; q < {N}; q++)
            for (p = 0; p < {N}; p++)
                checksum += (double) S[r][q][p];
    return 0;
}
'''

_REDUCE2D = r'''
float A[{N}][{N}];
double total;

int main(void)
{
    int i, j;
    total = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A) map(tofrom: total) reduction(+: total) \
        num_teams({T}) num_threads(256)
    for (i = 0; i < {N}; i++)
        for (j = 0; j < {N}; j++)
            total += (double) A[i][j];
    return 0;
}
'''

#: master/worker: a bare target whose parallel loops wake the workers
#: through the B1/B2 named barriers and read the shared scalar ``s``
#: through the shared-memory stack
_MASTER_WORKER = r'''
float x[{N}], y[{N}];

int main(void)
{
    #pragma omp target map(to: x) map(tofrom: y)
    {
        int i;
        float s = 2.0f;
        #pragma omp parallel for num_threads(96)
        for (i = 0; i < {N}; i++)
            y[i] = s * x[i] + y[i];
        #pragma omp parallel for num_threads(96)
        for (i = 0; i < {N}; i++)
            y[i] = y[i] * 0.5f;
    }
    return 0;
}
'''

#: data-dependent atomic updates and a lock-protected histogram
_ATOMIC_CRITICAL = r'''
float x[{N}];
int above;
int hist[8];

int main(void)
{
    int i;
    above = 0;
    #pragma omp target teams distribute parallel for \
        map(to: x) map(tofrom: above) num_teams({T}) num_threads(128)
    for (i = 0; i < {N}; i++)
    {
        if (x[i] > 0.5f)
        {
            #pragma omp atomic
            above += 1;
        }
    }
    #pragma omp target map(to: x) map(tofrom: hist)
    {
        #pragma omp parallel num_threads(96)
        {
            int b = (int)(x[omp_get_thread_num()] * 8.0f);
            #pragma omp critical
            {
                hist[b] = hist[b] + 1;
            }
        }
    }
    return 0;
}
'''

SYNC_SIZES = {"correlation": 32, "covariance": 32, "doitgen": 12,
              "reduce2d": 64, "master_worker": 2048, "atomic": 8192}


def _teams(total: int, threads: int = 128) -> int:
    return max(1, (total + threads - 1) // threads)


def _check_reduction(array: str, want, scalar: str):
    """Output array within float32 tolerance of numpy, and the reduction
    scalar equal to the sequential fold of the device-produced array."""
    def check(machine, stdout):
        got = np.asarray(machine.global_array(array))
        if not _close(got, want, 2e-3, 1e-5):
            return f"{array} differs from the numpy reference"
        if machine.global_array(scalar).item() != _fold(got):
            return f"{scalar} is not the sequential fold of {array}"
        return None
    return check


def sync_kernels(rng: np.random.Generator) -> ProgramWorkload:
    z = SYNC_SIZES
    programs = []

    n = z["correlation"]
    data = rng.random((n, n), dtype=F32)
    d = data.astype(np.float64)
    std = np.sqrt(((d - d.mean(axis=0)) ** 2).mean(axis=0))
    norm = (d - d.mean(axis=0)) / np.where(std <= 0.005, 1.0, std)
    programs.append(Program(
        "correlation", fmt(_CORRELATION, N=n, T1=_teams(n), T2=_teams(n * n)),
        {"data": data},
        _check_reduction("corr", ((norm.T @ norm) / n).astype(F32),
                         "checksum"), ("corr", "checksum")))

    n = z["covariance"]
    data = rng.random((n, n), dtype=F32)
    c = data.astype(np.float64) - data.astype(np.float64).mean(axis=0)
    programs.append(Program(
        "covariance", fmt(_COVARIANCE, N=n, T1=_teams(n), T2=_teams(n * n)),
        {"data": data},
        _check_reduction("cov", ((c.T @ c) / (n - 1)).astype(F32),
                         "checksum"), ("cov", "checksum")))

    n = z["doitgen"]
    a, c4 = rng.random((n, n, n), dtype=F32), rng.random((n, n), dtype=F32)
    want = np.einsum("rqs,sp->rqp", a.astype(np.float64),
                     c4.astype(np.float64)).astype(F32)
    programs.append(Program(
        "doitgen", fmt(_DOITGEN, N=n, T2=_teams(n * n)), {"A": a, "C4": c4},
        _check_reduction("S", want, "checksum"), ("S", "checksum")))

    n = z["reduce2d"]
    a = rng.random((n, n), dtype=F32)
    total = _fold(a)

    def check_total(machine, stdout, total=total):
        if machine.global_array("total").item() != total:
            return "total is not the sequential fold of A"
        return None
    programs.append(Program(
        "reduce2d", fmt(_REDUCE2D, N=n, T=_teams(n * n, 256)), {"A": a},
        check_total, ("total",)))

    n = z["master_worker"]
    x, y = rng.random(n, dtype=F32), rng.random(n, dtype=F32)
    want_y = (F32(2.0) * x + y) * F32(0.5)

    def check_mw(machine, stdout, want=want_y):
        if not _close(machine.global_array("y"), want, 1e-6, 0.0):
            return "y differs from the numpy reference"
        return None
    programs.append(Program(
        "master_worker", fmt(_MASTER_WORKER, N=n), {"x": x, "y": y},
        check_mw, ("y",)))

    n = z["atomic"]
    x = rng.random(n, dtype=F32)
    above = int((x > F32(0.5)).sum())
    hist = np.bincount((x[:96] * F32(8.0)).astype(np.int32), minlength=8)

    def check_atomic(machine, stdout, above=above, hist=hist):
        if machine.global_array("above").item() != above:
            return "atomic count differs from numpy"
        if not np.array_equal(machine.global_array("hist"), hist):
            return "critical histogram differs from numpy"
        return None
    programs.append(Program(
        "atomic", fmt(_ATOMIC_CRITICAL, N=n, T=_teams(n)), {"x": x},
        check_atomic, ("above", "hist")))
    return ProgramWorkload("sync_kernels", programs)


# ---------------------------------------------------------------- host_heavy --

#: size where host C loops dominate a run (about 0.4 s each)
HOST_N = 1024


def _idx(n):
    return np.meshgrid(np.arange(n), np.arange(n), indexing="ij")


def _host_reference(name: str, n: int) -> dict:
    """numpy re-implementation of the hostinit programs (float32 element
    arithmetic; the matrix products sum in another order)."""
    i, j = _idx(n)
    r = np.arange(n)
    if name == "gemm":
        A = ((i * 17 + j * 3) % 1024).astype(F32) * F32(0.001) + F32(1.0)
        B = ((i * 5 + j * 11) % 512).astype(F32) * F32(0.002) - F32(0.25)
        C = ((i + j) % 64).astype(F32) * F32(0.01)
        A, B, C = A.ravel(), B.ravel(), C.ravel()
        C[:n] = F32(1.5) * A[:n] + F32(0.5) * B[:n]
        C = C * F32(0.5) + A * F32(0.25) - B * F32(0.125)
        return {"C": C, "sums": [C.astype(np.float64).sum()]}
    if name == "mvt":
        x1 = (r % 256).astype(F32) * F32(0.01)
        x2 = (r % 128).astype(F32) * F32(0.02)
        y1 = ((r * 3) % 512).astype(F32) * F32(0.005)
        y2 = ((r * 7) % 256).astype(F32) * F32(0.0025)
        A = ((i * 13 + j * 7) % 2048).astype(F32) * F32(0.0005)
        x1 = x1 + y1 * F32(2.0)
        x2 = (x2.astype(np.float64) + A.T.astype(np.float64)
              @ y2.astype(np.float64)).astype(F32)
        return {"x1": x1, "x2": x2,
                "sums": [x1.astype(np.float64).sum(),
                         x2.astype(np.float64).sum()]}
    x = ((r * 11) % 1024).astype(F32) * F32(0.001)
    A = ((i * 19 + j * 23) % 4096).astype(F32) * F32(0.00025)
    tmp = x * F32(3.0)
    a64 = A.astype(np.float64)
    y = (a64.T @ (a64 @ tmp.astype(np.float64))).astype(F32)
    return {"y": y, "tmp": tmp, "sums": [y.astype(np.float64).sum()]}


def host_heavy(rng: np.random.Generator) -> ProgramWorkload:
    programs = []
    # the seed orders the pass; the programs initialise their own arrays
    for name in rng.permutation(sorted(HOST_WORKLOADS)):
        w = HOST_WORKLOADS[str(name)]
        want = _host_reference(w.name, HOST_N)

        def check(machine, stdout, w=w, want=want):
            for out in w.outputs:
                if not _close(machine.global_array(out), want[out],
                              1e-3, 1e-5):
                    return f"{out} differs from the numpy reference"
            sums = [float(t) for t in stdout.split()[2:]]
            if not np.allclose(sums, want["sums"], rtol=1e-4):
                return "printed checksums differ from numpy"
            return None
        programs.append(Program(
            f"host_{w.name}", w.source(HOST_N), {}, check, w.outputs,
            OmpiConfig(host_fastpath="on"), w.heap_capacity(HOST_N)))
    return ProgramWorkload("host_heavy", programs)


# --------------------------------------------------------------- serve_mixed --

#: each client's known program
SERVE_MIX = ("vadd", "scale", "gemm", "vadd", "scale", "vadd", "gemm",
             "scale")
SERVE_CLIENTS = len(SERVE_MIX)
SERVE_TENANTS = 2
SERVE_DEVICES = 2
#: rounds per pass; in each round every client submits one request
SERVE_ROUNDS = 6
#: requests per round that submit a never-seen source in place of a
#: vadd client's known one
SERVE_FRESH_PER_ROUND = 1
#: resident bytes a tenant may keep parked: small enough that parking
#: evicts colder sessions every round
SERVE_RESIDENT_QUOTA = 1024
SERVE_N = 64
SERVE_G = 8

_VADD = r'''
float a[{N}], b[{N}], c[{N}];
int main(void) {
  #pragma omp target teams distribute parallel for map(to: a, b) map(from: c)
  for (int i = 0; i < {N}; i++) c[i] = a[i] * {K} + b[i];
  return 0;
}
'''

_SCALE = r'''
float x[{N}], y[{N}];
int main(void) {
  #pragma omp target teams distribute parallel for map(to: x) map(tofrom: y)
  for (int i = 0; i < {N}; i++) y[i] = 2.5f * x[i] + y[i];
  return 0;
}
'''

_GEMM = r'''
float A[{G}][{G}], B[{G}][{G}], C[{G}][{G}];
int main(void) {
  #pragma omp target teams distribute parallel for collapse(2) \
      map(to: A, B) map(tofrom: C)
  for (int i = 0; i < {G}; i++)
    for (int j = 0; j < {G}; j++) {
      float acc = 0.0f;
      for (int k = 0; k < {G}; k++) acc = acc + A[i][k] * B[k][j];
      C[i][j] = acc;
    }
  return 0;
}
'''


@dataclass
class ServeProgram:
    name: str
    source: str
    inputs: dict
    want: dict
    rtol: float = 1e-6


def _vadd(rng, k: str, name: str = "vadd") -> ServeProgram:
    a, b = rng.random(SERVE_N, dtype=F32), rng.random(SERVE_N, dtype=F32)
    return ServeProgram(name, fmt(_VADD, N=SERVE_N, K=k), {"a": a, "b": b},
                        {"c": a * F32(float(k.rstrip("f"))) + b})


def _known_program(kind: str, rng) -> ServeProgram:
    if kind == "vadd":
        return _vadd(rng, "2.0f")
    if kind == "scale":
        x, y = rng.random(SERVE_N, dtype=F32), rng.random(SERVE_N, dtype=F32)
        return ServeProgram("scale", fmt(_SCALE, N=SERVE_N), {"x": x, "y": y},
                            {"y": F32(2.5) * x + y})
    g = SERVE_G
    a, b = rng.random((g, g), dtype=F32), rng.random((g, g), dtype=F32)
    return ServeProgram("gemm", fmt(_GEMM, G=g),
                        {"A": a, "B": b, "C": np.zeros((g, g), F32)},
                        {"C": (a.astype(np.float64) @ b).astype(F32)},
                        rtol=1e-5)


class ServeWorkload:
    """The closed loop: every round, each client submits one request and
    the server drains.  Clients repeat their own known program and
    inputs (compile-cache hits, digest-gated buffer reuse); a seeded
    client per round submits a never-seen source instead (a miss)."""

    name = "serve_mixed"
    #: passes differ: each submits its own never-seen sources and finds
    #: the server's warm state where the previous pass left it
    repeatable = False

    def __init__(self, rng: np.random.Generator):
        self.seed = int(rng.integers(1 << 31))
        # the program mix is fixed so every seed does the same work
        self.clients = [_known_program(kind, rng) for kind in SERVE_MIX]

    def sources(self) -> list[ServeProgram]:
        seen = {}
        for p in self.clients:
            seen.setdefault(p.source, p)
        return list(seen.values())

    def setup(self, compile_samples: list, workdir) -> tuple:
        """Compile the known sources cold, then build the server and the
        clients' sessions; returns (server, sessions)."""
        config = OmpiConfig()
        for p in self.sources():
            t0 = time.perf_counter()
            OmpiCompiler(config).compile(p.source, p.name)
            compile_samples.append(time.perf_counter() - t0)
        cache = CompileCache(max_entries=16, disk=DiskCompileCache(workdir))
        server = OffloadServer(
            num_devices=SERVE_DEVICES, config=config, compile_cache=cache,
            default_quota=TenantQuota(
                max_resident_bytes=SERVE_RESIDENT_QUOTA))
        sessions = [server.open_session(f"tenant{i % SERVE_TENANTS}")
                    for i in range(SERVE_CLIENTS)]
        # the server's own cold start: its cache compiles the known sources
        for p in self.sources():
            cache.get(p.source, p.name, config)
        return server, sessions

    def _round_plan(self, index: int, rnd: int) -> list[ServeProgram]:
        rng = np.random.default_rng([self.seed, index, rnd])
        plan = list(self.clients)
        vadds = [i for i, kind in enumerate(SERVE_MIX) if kind == "vadd"]
        for slot in rng.choice(vadds, SERVE_FRESH_PER_ROUND, replace=False):
            # a constant no earlier request used makes the source new
            k = f"{1.0 + (index * 1000 + rnd * 10 + int(slot)) / 4096:.9f}f"
            plan[int(slot)] = _vadd(rng, k, "fresh")
        return plan

    def run_pass(self, state: tuple, index: int, job) -> list[JobResult]:
        server, sessions = state
        mods = server.devices
        out = []
        for rnd in range(SERVE_ROUNDS):
            plan = self._round_plan(index, rnd)
            before = [(m.driver.log.total(*KERNEL_KINDS),
                       m.driver.log.total(*XFER_KINDS)) for m in mods]
            with job() as clock:
                t0 = time.perf_counter()
                reqs = [server.submit(s, p.source, name=p.name,
                                      seed_arrays=p.inputs,
                                      outputs=tuple(p.want))
                        for s, p in zip(sessions, plan)]
                server.drain()
                t_end = time.perf_counter()
            kernel = sum(m.driver.log.total(*KERNEL_KINDS) - b[0]
                         for m, b in zip(mods, before))
            xfer = sum(m.driver.log.total(*XFER_KINDS) - b[1]
                       for m, b in zip(mods, before))
            # a request's wall time runs from its dispatch to the next
            # dispatch (the last one to the end of the drain); the
            # round's submits are charged to its first request
            stamps = sorted((r.dispatch_wall or t_end, i)
                            for i, r in enumerate(reqs))
            walls = [0.0] * len(reqs)
            for pos, (stamp, i) in enumerate(stamps):
                nxt = stamps[pos + 1][0] if pos + 1 < len(stamps) else t_end
                walls[i] = nxt - (t0 if pos == 0 else stamp)
            for i, (req, p) in enumerate(zip(reqs, plan)):
                why = ""
                if req.status != "done":
                    why = f"request {req.status}: {req.error}"
                else:
                    for key, want in p.want.items():
                        got = req.result.get(key)
                        if got is None or not _close(got, want, p.rtol, 0.0):
                            why = f"{key} differs from the numpy reference"
                blob = hashlib.sha256(repr((req.status, req.latency,
                                            req.batch_size,
                                            req.device)).encode())
                for k in p.want:
                    blob.update(np.asarray(req.result.get(k, b"")).tobytes())
                # the round's modelled time is charged to its first job
                out.append(JobResult(
                    p.name, walls[i], not why,
                    kernel if i == 0 else 0.0, xfer if i == 0 else 0.0,
                    blob.digest(), why, clock.cal[0]))
        return out

    def counters(self, state: tuple) -> dict:
        st = state[0].stats
        batches = sum(st.batches.values())
        return {
            "serving.batches": batches,
            "serving.batch_mean": (sum(k * v for k, v in st.batches.items())
                                   / batches if batches else 0.0),
            "serving.reuse_hits": st.reuse_hits,
            "serving.reuse_bytes": st.reuse_bytes,
            "serving.evictions": st.evictions,
        }

    def close(self, state: tuple) -> None:
        state[0].close()


WORKLOADS = {
    "fig4_full": fig4_full,
    "sync_kernels": sync_kernels,
    "host_heavy": host_heavy,
    "serve_mixed": ServeWorkload,
}
