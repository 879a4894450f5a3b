"""The emitted kernel file and the kernel AST compile to the same image.

OMPi writes every target region out as a standalone CUDA C kernel file
(paper Fig. 2); that text is the artifact (``kernel_sources``,
``ompicc --keep``).  The nvcc simulator compiles the kernel's AST
instead of re-reading the text, so this checks, kernel by kernel and in
both binary modes, that compiling the emitted text gives the same PTX as
the image ``OmpiCompiler`` built from the AST.
"""

import pytest

from repro.bench.suite import ALL_APPS, EXTENDED_APP_NAMES, get_app
from repro.cuda.nvcc import compile_device
from repro.cuda.ptx.ptxwriter import module_to_ptx
from repro.ompi import OmpiCompiler, OmpiConfig
from tests.test_ompi_translator import SAXPY
from tests.test_reductions import MATRIX, matrix_source

CRITICAL = r'''
int total[1];
int main(void)
{
    total[0] = 0;
    #pragma omp target map(tofrom: total)
    {
        #pragma omp parallel num_threads(96)
        {
            #pragma omp critical
            {
                total[0] = total[0] + 1;
            }
        }
    }
    return 0;
}
'''

ATOMIC = r'''
int x, y, w, snap, tickets[64];
int main(void)
{
    int i;
    #pragma omp target teams distribute parallel for \
        map(tofrom: x, y, w, snap, tickets)
    for (i = 0; i < 64; i++) {
        #pragma omp atomic
        x += i;
        #pragma omp atomic update
        y = y - 1;
        #pragma omp atomic capture
        tickets[i] = w++;
        #pragma omp atomic read
        snap = x;
    }
    return 0;
}
'''

COLLAPSE_BARRIER = r'''
double out[24][24];
int data[97];
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
    #pragma omp target map(tofrom: data)
    {
        #pragma omp parallel num_threads(96)
        {
            data[omp_get_thread_num()] = 1;
            #pragma omp barrier
            #pragma omp single
            {
                int t, total = 0;
                for (t = 0; t < 96; t++) total += data[t];
                data[96] = total;
            }
        }
    }
    return 0;
}
'''


def _programs():
    out = {}
    for name in ALL_APPS + EXTENDED_APP_NAMES:
        app = get_app(name)
        out[name] = (app.omp_source(app.verify_size),
                     {"block_shape": app.block_shape})
    for op in MATRIX:
        for mode in ("tree", "atomic"):
            out[f"reduce_{op}_{mode}"] = (matrix_source(op),
                                          {"reduction_mode": mode})
    out["masterworker"] = (SAXPY, {})
    out["critical"] = (CRITICAL, {})
    out["atomic"] = (ATOMIC, {})
    out["collapse_barrier"] = (COLLAPSE_BARRIER, {})
    return out


PROGRAMS = _programs()


@pytest.mark.parametrize("mode", ["ptx", "cubin"])
@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_emitted_text_and_ast_compile_to_the_same_image(label, mode):
    source, fields = PROGRAMS[label]
    config = OmpiConfig(binary_mode=mode, **fields)
    prog = OmpiCompiler(config).compile(source, "p")
    assert prog.kernel_sources
    for kernel, text in prog.kernel_sources.items():
        from_text = compile_device(text, kernel, mode=mode, arch=config.arch)
        assert module_to_ptx(prog.images[kernel].module) == \
            module_to_ptx(from_text.module), kernel
