"""Tests for the ompicc command-line driver."""

import pytest

from repro.ompi.cli import main

SRC = r'''
float v[256];
int main(void)
{
    int i, n = 256;
    #pragma omp target teams distribute parallel for \
        map(tofrom: v[0:n]) map(to: n) num_teams(1) num_threads(256)
    for (i = 0; i < n; i++)
        v[i] = 3.0f;
    printf("v[7] = %.1f\n", (double) v[7]);
    return 0;
}
'''


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return path


def test_compile_and_run(src_file, capsys):
    code = main([str(src_file)])
    out = capsys.readouterr()
    assert code == 0
    assert "v[7] = 3.0" in out.out
    assert "compiled 1 kernel(s)" in out.err
    assert "[combined]" in out.err


def test_no_run(src_file, capsys):
    code = main([str(src_file), "--no-run"])
    assert code == 0
    assert "v[7]" not in capsys.readouterr().out


def test_keep_writes_artifacts(src_file, tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code = main([str(src_file), "--keep", str(out_dir), "--no-run"])
    assert code == 0
    assert (out_dir / "prog_ompi.c").exists()
    assert (out_dir / "prog_kernel0.cu").exists()
    ptx = (out_dir / "prog_kernel0.ptx").read_text()
    assert ".visible .entry prog_kernel0" in ptx


def test_ptx_mode_with_cache(src_file, tmp_path, capsys):
    cache = tmp_path / "cc"
    assert main([str(src_file), "--ptx", "--cache", str(cache), "--time"]) == 0
    err = capsys.readouterr().err
    assert "jit" in err
    assert main([str(src_file), "--ptx", "--cache", str(cache)]) == 0
    assert any(cache.glob("*.cubin"))


def test_device_selection(src_file, capsys):
    # cubin mode: the kernels compile for the tx2's sm_62
    assert main([str(src_file), "--devices", "tx2"]) == 0
    assert "v[7] = 3.0" in capsys.readouterr().out


def _profile_summary(err: str) -> str:
    assert "=== repro.prof summary ===" in err
    return err.split("=== repro.prof summary ===", 1)[1]


def test_profile_summary_keeps_cache_stats(src_file, capsys):
    assert main([str(src_file), "--profile", "--cache-stats"]) == 0
    summary = _profile_summary(capsys.readouterr().err)
    assert "compile cache: hits=" in summary
    assert "disk cache: hits=" in summary


def test_profile_summary_counts_how_blocks_ran(src_file, capsys,
                                               monkeypatch):
    # one 256-thread block of a barrier-free kernel: its 8 warps run as
    # one lockstep activation
    monkeypatch.setenv("REPRO_KERNEL_FASTPATH", "on")
    assert main([str(src_file), "--profile"]) == 0
    summary = _profile_summary(capsys.readouterr().err)
    assert ("kernel blocks: 1 lockstep, 0 per-warp, "
            "0 race-guard fallback(s)") in summary


def test_profile_cache_stats_with_jit_cache(src_file, tmp_path, capsys):
    jit = tmp_path / "jit"
    assert main([str(src_file), "--ptx", "--cache", str(jit), "--profile",
                 "--cache-stats"]) == 0
    captured = capsys.readouterr()
    assert "v[7] = 3.0" in captured.out
    assert "compile cache: hits=" in _profile_summary(captured.err)
    assert any(jit.glob("*.cubin"))


def test_missing_file(capsys):
    assert main(["/does/not/exist.c"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_compile_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main(void) { #pragma omp sparkle\n return 0; }")
    assert main([str(bad)]) in (1, 2)


def test_block_shape_override(src_file, capsys):
    assert main([str(src_file), "--block-shape", "64,4"]) == 0
    assert "v[7] = 3.0" in capsys.readouterr().out


def test_exit_code_propagates(tmp_path):
    prog = tmp_path / "exit7.c"
    prog.write_text("int main(void) { return 7; }")
    assert main([str(prog)]) == 7
