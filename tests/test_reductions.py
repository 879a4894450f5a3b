"""Deterministic-reduction matrix: bit-identity across execution modes.

The tree-reduction pipeline (warp shuffle -> shared-memory tree ->
fixed-order cross-team combine on copy-back) promises results that are
bit-identical to the sequential loop and invariant across the compiled
fast paths, device counts and ``shard(n)`` splits.  The matrix here uses
integer-valued floats so the sequential reference itself is exact and the
bit-identity assertions are meaningful for every operator.

Also covers the satellite regressions: no float ``atomicMax``/``atomicMin``
in the atomic-merge baseline, parse-time rejection of unsupported
reduction operators, the ``atomic`` directive forms, ``collapse(n)``, and
the empty-mask early return in the engine's load/store path.
"""

import numpy as np
import pytest

from repro.ompi import OmpiCompiler, OmpiConfig


def compile_run(src, name, config=None):
    prog = OmpiCompiler(config).compile(src, name)
    return prog, prog.run()


# -- the reduction matrix ------------------------------------------------------

N = 32  # NxN iteration space: several teams, partial warps, exact doubles

REDUCTION_SRC = r'''
double red;
double A[@N@][@N@];
int main(void)
{
    int i, j;
    for (i = 0; i < @N@; i++)
        for (j = 0; j < @N@; j++)
            A[i][j] = @SEED@;
    red = @INIT@;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A) map(tofrom: red) reduction(@OP@: red) num_teams(4) num_threads(96)
    for (i = 0; i < @N@; i++)
        for (j = 0; j < @N@; j++)
            red = @BODY@;
    return 0;
}
'''

# flat-index seeds, mirrored exactly by seed_matrix(): default exact-integer
# doubles; '*' a bounded {1, 2, 0.5, 4} pattern so the product stays finite
SEED_DEFAULT = "(double)(((i * @N@ + j) * 31) % 257) - 128.0"
SEED_PRODUCT = ("(i * @N@ + j) % 4 == 0 ? 1.0 : "
                "((i * @N@ + j) % 4 == 1 ? 2.0 : "
                "((i * @N@ + j) % 4 == 2 ? 0.5 : 4.0))")

#: op -> (initial value literal, kernel body, sequential fold)
MATRIX = {
    "+":   ("3.0", "red + A[i][j]", lambda a, x: np.float64(a + x)),
    "-":   ("3.0", "red - A[i][j]", lambda a, x: np.float64(a - x)),
    "*":   ("1.0", "red * A[i][j]", lambda a, x: np.float64(a * x)),
    "max": ("-1e30", "A[i][j] > red ? A[i][j] : red",
            lambda a, x: a if a > x else np.float64(x)),
    "min": ("1e30", "A[i][j] < red ? A[i][j] : red",
            lambda a, x: a if a < x else np.float64(x)),
}


def seed_matrix(op: str) -> np.ndarray:
    idx = np.arange(N * N).reshape(N, N)
    if op == "*":
        # keep the product finite and exact: values in {1, 2, 0.5, 4}
        return np.choose(idx % 4, [1.0, 2.0, 0.5, 4.0]).astype(np.float64)
    return ((idx * 31) % 257).astype(np.float64) - 128.0


def sequential_ref(op: str) -> np.float64:
    init, _body, fold = MATRIX[op]
    acc = np.float64(float(init))
    for x in seed_matrix(op).ravel():
        acc = fold(acc, x)
    return acc


def matrix_source(op: str, extra_pragma: str = "") -> str:
    init, body, _fold = MATRIX[op]
    seed = SEED_PRODUCT if op == "*" else SEED_DEFAULT
    src = (REDUCTION_SRC.replace("@SEED@", seed).replace("@N@", str(N))
           .replace("@INIT@", init).replace("@OP@", op)
           .replace("@BODY@", body))
    if extra_pragma:
        src = src.replace("num_teams(4)", f"num_teams(4) {extra_pragma}")
    return src


def run_matrix_case(op: str, config=None, extra_pragma: str = "") -> float:
    name = {"+": "add", "-": "sub", "*": "mul"}.get(op, op)
    _, run = compile_run(matrix_source(op, extra_pragma), f"red_{name}",
                         config)
    return run.machine.global_array("red").item()


@pytest.mark.parametrize("op", sorted(MATRIX))
def test_tree_reduction_bit_identical_to_sequential(op):
    assert run_matrix_case(op) == sequential_ref(op), op


@pytest.mark.parametrize("kfp", ["on", "off", "verify"])
@pytest.mark.parametrize("op", ["+", "max"])
def test_kernel_fastpath_modes_bit_identical(op, kfp, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_FASTPATH", kfp)
    assert run_matrix_case(op) == sequential_ref(op)


@pytest.mark.parametrize("hfp", ["on", "off", "verify"])
def test_host_fastpath_modes_bit_identical(hfp, monkeypatch):
    monkeypatch.setenv("REPRO_HOST_FASTPATH", hfp)
    assert run_matrix_case("+") == sequential_ref("+")


@pytest.mark.parametrize("op", ["+", "*", "max", "min"])
def test_shard_on_mixed_registry_bit_identical(op, monkeypatch):
    """shard(n) across a heterogeneous nano,v100 registry: every global
    team slot is combined in the same fixed order regardless of which
    device owned its block range."""
    monkeypatch.setenv("REPRO_DEVICES", "nano,v100")
    got = run_matrix_case(op, extra_pragma="shard(0)")
    assert got == sequential_ref(op), op


def test_shard_device_counts_bit_identical(monkeypatch):
    vals = set()
    for n in (1, 2, 3):
        monkeypatch.setenv("REPRO_NUM_DEVICES", str(n))
        vals.add(run_matrix_case("+", extra_pragma="shard(0)"))
    assert vals == {sequential_ref("+")}


def test_devlost_fallback_computes_reduction():
    """A lost device reroutes the region to the sequential hostfn; the
    pending cross-team combine must be cancelled, not folded on top."""
    cfg = OmpiConfig(faults="device_unavailable@cuLaunchKernel:p=1.0",
                     recovery="retries=0,fallback=on")
    assert run_matrix_case("+", config=cfg) == sequential_ref("+")


def test_launch_failure_fallback_computes_reduction():
    cfg = OmpiConfig(faults="launch_failed@cuLaunchKernel:p=1.0,times=1000",
                     recovery="retries=0,fallback=on")
    assert run_matrix_case("+", config=cfg) == sequential_ref("+")


# -- atomic-merge baseline (reduction_mode='atomic') ---------------------------

def test_atomic_merge_baseline_correct_and_no_float_atomic_maxmin():
    """Regression: the legacy baseline emitted ``atomicMax``/``atomicMin``
    for float reductions — CUDA has no such hardware atomics.  Float
    max/min (and ``*``) must route through ``cudadev_atomic_red_*``."""
    src = r'''
    float fmx;
    double s;
    float v[512];
    int main(void)
    {
        int i;
        for (i = 0; i < 512; i++) v[i] = (float)((i * 37) % 101);
        fmx = -1e30f; s = 0.0;
        #pragma omp target teams distribute parallel for map(to: v) \
            map(tofrom: fmx, s) reduction(max: fmx) reduction(+: s) num_teams(4)
        for (i = 0; i < 512; i++)
        {
            if (v[i] > fmx) fmx = v[i];
            s = s + v[i];
        }
        return 0;
    }
    '''
    prog, run = compile_run(src, "amode", OmpiConfig(reduction_mode="atomic"))
    kernel = prog.kernel_sources["amode_kernel0"]
    assert "cudadev_atomic_red_max" in kernel
    assert "atomicMax" not in kernel
    v = ((np.arange(512) * 37) % 101).astype(np.float32)
    assert run.machine.global_array("fmx").item() == v.max()
    assert run.machine.global_array("s").item() == v.astype(np.float64).sum()


def test_atomic_merge_int_maxmin_keeps_hardware_atomics():
    src = r'''
    int mx;
    int v[128];
    int main(void)
    {
        int i;
        for (i = 0; i < 128; i++) v[i] = (i * 7) % 50;
        mx = -1;
        #pragma omp target teams distribute parallel for map(to: v) \
            map(tofrom: mx) reduction(max: mx)
        for (i = 0; i < 128; i++)
            if (v[i] > mx) mx = v[i];
        return 0;
    }
    '''
    prog, run = compile_run(src, "imax", OmpiConfig(reduction_mode="atomic"))
    assert "atomicMax" in prog.kernel_sources["imax_kernel0"]
    assert run.machine.global_array("mx").item() == 49


def test_reduction_mode_enters_compile_cache_fingerprint():
    from repro.ompi.cache import source_key
    tree = source_key("", "p", OmpiConfig(reduction_mode="tree"))
    atomic = source_key("", "p", OmpiConfig(reduction_mode="atomic"))
    assert tree != atomic


# -- parser/validator satellites -----------------------------------------------

@pytest.mark.parametrize("op", ["&&", "||"])
def test_rejected_reduction_operators_fail_at_parse_time(op):
    from repro.openmp.pragma_parser import OmpParseError, parse_omp_pragma
    with pytest.raises(OmpParseError, match="not supported by the device"):
        parse_omp_pragma(f"omp target teams distribute parallel for "
                         f"reduction({op}: s)")


@pytest.mark.parametrize("op", ["+", "-", "*", "max", "min", "&", "|", "^"])
def test_supported_reduction_operators_parse(op):
    from repro.openmp.pragma_parser import parse_omp_pragma
    d = parse_omp_pragma(f"omp target teams distribute parallel for "
                         f"reduction({op}: s)")
    assert d.clauses[0].op == op


def test_reduction_with_nowait_rejected_on_target():
    from repro.openmp.validator import OmpValidationError
    src = r'''
    double s; double v[64];
    int main(void) {
        int i;
        #pragma omp target teams distribute parallel for nowait \
            map(to: v) map(tofrom: s) reduction(+: s)
        for (i = 0; i < 64; i++) s = s + v[i];
        return 0;
    }
    '''
    with pytest.raises(OmpValidationError, match="synchronous join"):
        OmpiCompiler().compile(src, "bad")


# -- atomic directive ----------------------------------------------------------

def test_atomic_capture_hands_out_unique_tickets():
    src = r'''
    int cnt;
    int caps[256];
    int main(void)
    {
        int i;
        cnt = 0;
        #pragma omp target teams distribute parallel for \
            map(tofrom: cnt, caps) num_teams(2)
        for (i = 0; i < 256; i++)
        {
            int old;
            #pragma omp atomic capture
            old = cnt++;
            caps[i] = old;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "ticket")
    assert run.machine.global_array("cnt").item() == 256
    assert np.array_equal(np.sort(run.machine.global_array("caps")),
                          np.arange(256))


def test_atomic_update_forms():
    src = r'''
    double acc;
    int prod;
    int commuted;
    int main(void)
    {
        int i;
        acc = 0.0; prod = 1; commuted = 0;
        #pragma omp target teams distribute parallel for \
            map(tofrom: acc, prod, commuted)
        for (i = 0; i < 64; i++)
        {
            #pragma omp atomic
            acc += 0.25;
            #pragma omp atomic update
            prod = prod * 1;
            #pragma omp atomic
            commuted = 1 + commuted;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "upd")
    assert run.machine.global_array("acc").item() == 16.0
    assert run.machine.global_array("prod").item() == 1
    assert run.machine.global_array("commuted").item() == 64


def test_atomic_read_write_forms():
    src = r'''
    int w;
    int snap[64];
    int main(void)
    {
        int i;
        w = 0;
        #pragma omp target teams distribute parallel for map(tofrom: w, snap)
        for (i = 0; i < 64; i++)
        {
            int seen;
            #pragma omp atomic write
            w = 7;
            #pragma omp atomic read
            seen = w;
            snap[i] = seen;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "rw")
    assert run.machine.global_array("w").item() == 7
    assert set(run.machine.global_array("snap").tolist()) <= {0, 7}


def test_atomic_unsupported_form_is_rejected():
    from repro.ompi.xform_cuda import CudaXformError
    src = r'''
    int x;
    int main(void)
    {
        int i;
        #pragma omp target teams distribute parallel for map(tofrom: x)
        for (i = 0; i < 8; i++)
        {
            #pragma omp atomic
            x = x / 2;
        }
        return 0;
    }
    '''
    with pytest.raises(CudaXformError, match="atomic update"):
        OmpiCompiler().compile(src, "badat")


# -- collapse ------------------------------------------------------------------

def test_collapse_covers_full_iteration_space_device_and_host():
    src = r'''
    double out[24][24];
    double hout[12][12];
    int main(void)
    {
        int i, j;
        #pragma omp target teams map(tofrom: out)
        {
            #pragma omp parallel
            {
                #pragma omp for collapse(2)
                for (i = 0; i < 24; i++)
                    for (j = 0; j < 24; j++)
                        out[i][j] = i * 100 + j;
            }
        }
        #pragma omp parallel for collapse(2) num_threads(4)
        for (i = 0; i < 12; i++)
            for (j = 0; j < 12; j++)
                hout[i][j] = i * 10 + j;
        return 0;
    }
    '''
    _, run = compile_run(src, "coll")
    i, j = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
    assert np.array_equal(run.machine.global_array("out"), i * 100 + j)
    hi, hj = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
    assert np.array_equal(run.machine.global_array("hout"), hi * 10 + hj)


def test_collapse_non_constant_argument_rejected():
    from repro.ompi.xform_cuda import CudaXformError
    src = r'''
    double out[8][8];
    int main(void)
    {
        int i, j, k = 2;
        #pragma omp target teams distribute parallel for collapse(k) map(tofrom: out)
        for (i = 0; i < 8; i++)
            for (j = 0; j < 8; j++)
                out[i][j] = 1.0;
        return 0;
    }
    '''
    with pytest.raises(CudaXformError, match="collapse"):
        OmpiCompiler().compile(src, "badcoll")


# -- engine empty-mask regression ----------------------------------------------

def test_empty_mask_load_store_count_nothing():
    """Regression: a fully predicated-off load/store must not bump the
    instruction/transaction counters — and must not resolve its (garbage)
    addresses, which previously raised on divergent warps whose inactive
    lanes held lazily-zeroed index registers."""
    from repro.cuda.device import JETSON_NANO_GPU
    from repro.cuda.sim.engine import FunctionalEngine
    from repro.devrt import build_intrinsics
    from repro.mem import LinearMemory

    gmem = LinearMemory(1 << 20, base=0x2_0000_0000, name="gmem")
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {})
    mask = np.zeros(32, dtype=bool)
    garbage = np.full(32, 0xdead_beef_dead, dtype=np.uint64)  # unmapped
    out = engine.mem_load(None, garbage, np.dtype(np.float32), mask)
    assert np.array_equal(out, np.zeros(32, dtype=np.float32))
    engine.mem_store(None, garbage, np.dtype(np.float32),
                     np.ones(32, dtype=np.float32), mask)
    assert engine.stats.load_instructions == 0
    assert engine.stats.store_instructions == 0
    assert engine.stats.instructions == 0
    assert engine.stats.global_mem_instructions == 0
    assert engine.stats.global_transactions == 0
