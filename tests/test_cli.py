import numpy as np
import pytest

from tlf.cli import main
from tlf.config import DEFAULTS
from tlf.fixtures import deblur_fixture, inpaint_fixture, rain_fixture
from tlf.formats import read_tlft, write_kernel, write_mask, write_tlft


@pytest.fixture
def deblur_files(tmp_path):
    gt, kernel, blurry = deblur_fixture(seed=42)
    write_tlft(tmp_path / "blurry.tlft", blurry)
    write_tlft(tmp_path / "gt.tlft", gt)
    write_kernel(tmp_path / "kernel.txt", kernel)
    return tmp_path


def run_cli(args):
    return main([str(a) for a in args])


class TestDefaults:
    def test_defaults_prints_all_keys(self, capsys):
        assert run_cli(["defaults"]) == 0
        out = capsys.readouterr().out
        for key in DEFAULTS:
            assert f"{key} = " in out


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run_cli(
            ["deblur", "--input", tmp_path / "nope.tlft", "--out", tmp_path / "o"]
        )
        assert code == 2

    def test_bad_solver(self, deblur_files):
        code = run_cli(
            [
                "deblur",
                "--input", deblur_files / "blurry.tlft",
                "--solver", "sgd",
                "--out", deblur_files / "o",
            ]
        )
        assert code == 1

    def test_missing_required_input(self, tmp_path):
        assert run_cli(["deblur", "--out", tmp_path / "o"]) == 1

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert run_cli(["deblur", "--config", cfg, "--input", "x"]) == 1

    def test_malformed_pnm_header(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\nabc 4\n255\n" + bytes(16))
        assert run_cli(["deblur", "--input", bad, "--out", tmp_path / "o"]) == 2

    def test_inpaint_needs_mask(self, deblur_files):
        code = run_cli(
            ["inpaint", "--input", deblur_files / "blurry.tlft", "--out", deblur_files / "o"]
        )
        assert code == 1


class TestBench:
    def test_identity_no_reg_hits_cap(self, tmp_path):
        gt, _, _ = deblur_fixture(seed=1)
        write_tlft(tmp_path / "clean.tlft", gt)
        code = run_cli(
            [
                "bench",
                "--input", tmp_path / "clean.tlft",
                "--out", tmp_path / "out",
                "--solver", "pg",
                "--lambda1", "0", "--lambda2", "0",
                "--max-iters", "300", "--rel-tol", "1e-12",
            ]
        )
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "psnr_pg = 100.000000" in summary

    def test_multi_solver_parallel(self, deblur_files):
        def bench(jobs):
            out = deblur_files / f"bench{jobs}"
            code = run_cli(
                [
                    "bench",
                    "--input", deblur_files / "gt.tlft",
                    "--kernel", deblur_files / "kernel.txt",
                    "--noise", "1.0",
                    "--out", out,
                    "--solver", "pg,tlf",
                    "--max-iters", "20", "--rel-tol", "0",
                    "--jobs", jobs,
                ]
            )
            assert code == 0
            return out

        threaded = bench(2)
        summary = (threaded / "summary.txt").read_text()
        assert "psnr_pg" in summary and "psnr_tlf" in summary
        # the threads share the model's precomputed spectra; sharing must not
        # change a single byte of either solver's trace
        sequential = bench(1)
        for solver in ("pg", "tlf"):
            got = (threaded / solver / "trace.csv").read_bytes()
            assert got == (sequential / solver / "trace.csv").read_bytes()


class TestDeblurRun:
    def test_outputs_and_determinism(self, deblur_files):
        args = [
            "deblur",
            "--input", deblur_files / "blurry.tlft",
            "--kernel", deblur_files / "kernel.txt",
            "--gt", deblur_files / "gt.tlft",
            "--solver", "tlf",
            "--max-iters", "25", "--rel-tol", "0",
        ]
        assert run_cli(args + ["--out", deblur_files / "a"]) == 0
        assert run_cli(args + ["--out", deblur_files / "b"]) == 0
        csv_a = (deblur_files / "a" / "trace.csv").read_bytes()
        csv_b = (deblur_files / "b" / "trace.csv").read_bytes()
        assert csv_a == csv_b
        restored = read_tlft(deblur_files / "a" / "restored.tlft")
        assert restored.shape == (1, 64, 64)
        summary = (deblur_files / "a" / "summary.txt").read_text()
        assert "psnr = " in summary and "ssim = " in summary

    def test_trace_schema(self, deblur_files):
        out = deblur_files / "schema"
        assert run_cli(
            [
                "deblur",
                "--input", deblur_files / "blurry.tlft",
                "--kernel", deblur_files / "kernel.txt",
                "--solver", "dtlf",
                "--max-iters", "5", "--rel-tol", "0",
                "--out", out,
            ]
        ) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == (
            "k,F,rel_err,norm_xF_x,norm_xG_x,norm_xGmu_x,alpha,mu,"
            "mdus_branch,bus_branch,psnr"
        )


class TestInpaintRun:
    def test_masked_summary(self, tmp_path):
        gt, mask, observed = inpaint_fixture(seed=5, size=32, missing_fraction=0.3)
        write_tlft(tmp_path / "obs.tlft", observed)
        write_tlft(tmp_path / "gt.tlft", gt)
        write_mask(tmp_path / "mask.pgm", mask)
        assert run_cli(
            [
                "inpaint",
                "--input", tmp_path / "obs.tlft",
                "--mask", tmp_path / "mask.pgm",
                "--gt", tmp_path / "gt.tlft",
                "--solver", "tlf",
                "--max-iters", "40", "--rel-tol", "0",
                "--out", tmp_path / "out",
            ]
        ) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "masked_psnr = " in summary


class TestDerainRun:
    def test_layers_written(self, tmp_path):
        y, xb, xr = rain_fixture(seed=3, size=32)
        write_tlft(tmp_path / "rainy.tlft", y)
        write_tlft(tmp_path / "gt.tlft", xb)
        assert run_cli(
            [
                "derain",
                "--input", tmp_path / "rainy.tlft",
                "--gt", tmp_path / "gt.tlft",
                "--max-iters", "15", "--rel-tol", "0",
                "--gamma", "0.8",
                "--out", tmp_path / "out",
            ]
        ) == 0
        bg = read_tlft(tmp_path / "out" / "background.tlft")
        rain = read_tlft(tmp_path / "out" / "rain.tlft")
        assert bg.data.min() >= 0.0 and bg.data.max() <= 1.0
        assert rain.data.min() >= 0.0 and rain.data.max() <= 1.0
        assert "layer_sum_residual" in (tmp_path / "out" / "summary.txt").read_text()


class TestGoldenTrace:
    def test_deblur_reproduces_golden_trace(self, deblur_files, tmp_path):
        import csv
        from pathlib import Path

        golden_path = Path(__file__).parent / "data" / "golden_deblur_trace.csv"
        out = tmp_path / "golden_run"
        assert run_cli(
            [
                "deblur",
                "--input", deblur_files / "blurry.tlft",
                "--kernel", deblur_files / "kernel.txt",
                "--gt", deblur_files / "gt.tlft",
                "--solver", "tlf",
                "--max-iters", "40", "--rel-tol", "0",
                "--out", out,
            ]
        ) == 0
        with open(golden_path) as fh:
            golden = list(csv.DictReader(fh))
        with open(out / "trace.csv") as fh:
            fresh = list(csv.DictReader(fh))
        assert len(golden) == len(fresh)
        for grow, frow in zip(golden, fresh):
            for key, gval in grow.items():
                fval = frow[key]
                try:
                    g = float(gval)
                except ValueError:
                    assert fval == gval
                    continue
                f = float(fval)
                assert abs(f - g) <= 1e-6 * max(1.0, abs(g)), key
