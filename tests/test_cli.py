import struct
from pathlib import Path

import numpy as np
import pytest

from tlf import cli
from tlf.cli import build_parser, main
from tlf.config import DEFAULTS, SOLVERS
from tlf.denoise import DESIGNED_KINDS, KINDS
from tlf.fixtures import deblur_fixture, inpaint_fixture, rain_fixture
from tlf.formats import read_image, write_kernel, write_mask, write_tlft


@pytest.fixture
def deblur_files(tmp_path):
    gt, kernel, blurry = deblur_fixture(seed=42)
    write_tlft(tmp_path / "blurry.tlft", blurry)
    write_tlft(tmp_path / "gt.tlft", gt)
    write_kernel(tmp_path / "kernel.txt", kernel)
    return tmp_path


DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main([str(a) for a in args])


class TestDefaults:
    def test_defaults_prints_all_keys(self, capsys):
        assert run_cli(["defaults"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "defaults.txt").read_text()


class TestFlags:
    def test_one_flag_per_key(self, monkeypatch):
        parser = build_parser()
        deblur = next(a for a in parser._actions if a.dest == "command").choices["deblur"]
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or 0)
        for key, default in DEFAULTS.items():
            if key == "task":
                continue
            (action,) = [a for a in deblur._actions if a.dest == key]
            flag = "--noise" if key == "noise_percent" else "--" + key.replace("_", "-")
            assert action.option_strings == [flag]
            if isinstance(default, str):
                value = {"solver": "pg", "denoiser": "median", "denoiser_rain": "median"}.get(key, "v")
            elif key in ("p", "q", "p1", "p2"):
                value = 0.5  # an exponent must be one of 0, 1/2, 2/3, 1
            else:  # in range: every key's range rule runs before the run starts
                value = default + 1 if isinstance(default, int) else default / 2 or 0.5
            assert run_cli(["deblur", "--input", "x", flag, value]) == 0
            assert getattr(seen[-1], key) == value, key

    def test_help_names_every_solver_and_kind(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deblur", "--help"])
        text = "".join(capsys.readouterr().out.split())  # argparse may wrap at a hyphen
        assert "|".join(SOLVERS) in text
        assert text.count("|".join(DESIGNED_KINDS) + "[:strength[,s1,...]]") == 2  # --denoiser, --denoiser-rain
        assert "|".join(KINDS) not in text  # external is set by --external-denoiser


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run_cli(
            ["deblur", "--input", tmp_path / "nope.tlft", "--out", tmp_path / "o"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "key,value",
        [("max_iters", "0"), ("rel_tol", "-1"), ("alpha0", "1"), ("gamma", "1"),
         ("mu0", "0"), ("beta", "1"), ("bus_c", "0")],
        ids=["max_iters", "rel_tol", "alpha0", "gamma", "mu0", "beta", "bus_c"],
    )
    def test_solver_keys_checked_before_reading(self, tmp_path, capsys, key, value):
        # a range error exits 1 before the missing input could exit 2
        flag = "--" + key.replace("_", "-")
        assert run_cli(["deblur", "--input", tmp_path / "nope.tlft", flag, value]) == 1
        assert key in capsys.readouterr().err

    def test_empty_denoiser_strength_checked_before_reading(self, tmp_path, capsys):
        assert run_cli(["deblur", "--input", tmp_path / "nope.tlft", "--denoiser", "tv-rof:"]) == 1
        assert "bad denoiser strength" in capsys.readouterr().err

    def test_rho1_zero_checked_before_reading(self, tmp_path, capsys):
        # rho1 is also the background model's HQS penalty, so 0 is out of range
        assert run_cli(["derain", "--input", tmp_path / "nope.tlft", "--rho1", "0"]) == 1
        assert "rho1 must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["deblur", "inpaint", "derain", "bench"])
    def test_step_checked_before_any_solve(self, tmp_path, capsys, monkeypatch, task):
        # step 5 is outside (0, 1/L) for every task here (L = 1 for the
        # fixtures' kernel, the mask and derain's codes), so no solve starts
        calls = []

        def recorder(name, real):
            def record(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return record

        for name in ("solve_baseline", "tlf_solve", "dtlf_solve", "derain_init"):
            monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
        gt, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "in.tlft", gt if task == "bench" else observed)
        write_mask(tmp_path / "mask.pgm", mask)
        extra = {"inpaint": ["--mask", tmp_path / "mask.pgm"], "bench": ["--solver", "pg,tlf,dtlf"]}.get(task, [])
        out = tmp_path / "o"
        assert run_cli([task, "--input", tmp_path / "in.tlft", *extra, "--step", "5", "--out", out]) == 1
        assert "step 5.0 outside (0, 1/L)" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

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
        # a solver named twice would make two bench jobs write one directory
        code = run_cli(
            [
                "bench",
                "--input", deblur_files / "gt.tlft",
                "--solver", "pg,pg",
                "--jobs", "2",
                "--out", deblur_files / "o",
            ]
        )
        assert code == 1
        assert not (deblur_files / "o").exists()

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

    @pytest.mark.parametrize("h,w,c", [(0, 4, 1), (4, 4, 2)], ids=["height-zero", "two-channels"])
    def test_malformed_tlft_header(self, tmp_path, h, w, c):
        bad = tmp_path / "bad.tlft"
        bad.write_bytes(b"TLFT" + struct.pack("<III", h, w, c) + bytes(8 * h * w * c))
        assert run_cli(["deblur", "--input", bad, "--out", tmp_path / "o"]) == 2

    def test_nan_tlft_input(self, tmp_path, capsys):
        data = np.full((1, 16, 16), 0.5)
        data[0, 3, 4] = np.nan
        bad = tmp_path / "nan.tlft"
        bad.write_bytes(b"TLFT" + struct.pack("<III", 16, 16, 1) + data.astype("<f8").tobytes())
        assert run_cli(["deblur", "--input", bad, "--out", tmp_path / "o"]) == 1
        assert "image contains NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["deblur", "inpaint", "derain", "bench"])
    def test_image_smaller_than_ssim_window(self, tmp_path, capsys, monkeypatch, task):
        # the ground truth (bench: the input) is too small for SSIM, so the
        # run exits 1 before any solve and writes nothing
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        for name in ("_solve_composite", "derain_solve", "derain_init", "build_deblur", "build_inpaint"):
            monkeypatch.setattr(cli, name, no_solve)
        gt, mask, observed = inpaint_fixture(seed=5, size=8)
        write_tlft(tmp_path / "in.tlft", observed)
        write_tlft(tmp_path / "gt.tlft", gt)
        write_mask(tmp_path / "mask.pgm", mask)
        extra = {"inpaint": ["--mask", tmp_path / "mask.pgm"], "bench": []}.get(task, [])
        if task != "bench":
            extra += ["--gt", tmp_path / "gt.tlft"]
        out = tmp_path / "o"
        assert run_cli([task, "--input", tmp_path / "in.tlft", *extra, "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert ("bench input" if task == "bench" else "--gt image") in err
        assert "smaller than 11x11 SSIM window" in err
        if task == "bench":  # the input is bench's ground truth
            return
        # a ground truth of another shape than the input is caught as early
        _, _, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "in.tlft", observed)
        write_tlft(tmp_path / "gt.tlft", inpaint_fixture(seed=5, size=32)[0])
        assert run_cli([task, "--input", tmp_path / "in.tlft", *extra, "--out", out]) == 1
        assert not out.exists()
        assert "--gt image shape (1, 32, 32) differs from input (1, 16, 16)" in capsys.readouterr().err

    def test_inpaint_needs_mask(self, deblur_files):
        code = run_cli(
            ["inpaint", "--input", deblur_files / "blurry.tlft", "--out", deblur_files / "o"]
        )
        assert code == 1

    def test_wrong_size_mask_exits_1(self, tmp_path, capsys):
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "obs.tlft", observed)
        write_mask(tmp_path / "mask.pgm", mask[:, :8])
        args = ["inpaint", "--input", tmp_path / "obs.tlft", "--mask", tmp_path / "mask.pgm"]
        assert run_cli(args + ["--out", tmp_path / "o"]) == 1
        assert "mask (1, 16, 8) vs image (1, 16, 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_bad_cg_tol(self, tmp_path, tol):
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "obs.tlft", observed)
        write_mask(tmp_path / "mask.pgm", mask)
        code = run_cli(
            [
                "inpaint",
                "--input", tmp_path / "obs.tlft",
                "--mask", tmp_path / "mask.pgm",
                "--levels", "2",
                "--cg-tol", tol,
                "--out", tmp_path / "o",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "task,extra",
        [
            ("deblur", ["--cg-tol", "nan"]),
            ("deblur", ["--rel-tol", "nan"]),
            ("deblur", ["--noise", "-5"]),
            ("deblur", ["--solver", "dtlf", "--denoiser", "tv-rof:abc"]),
            ("deblur", ["--levels", "-1"]),
            ("deblur", ["--solver", "pg,tlf"]),
            ("inpaint", ["--solver", "pg,tlf"]),
            ("deblur", ["--solver", "tlf", "--denoiser", "tv-rof:abc"]),
            ("deblur", ["--denoiser-rain", "bogus"]),
            ("derain", ["--levels", "-1"]),
            ("derain", ["--hqs-iters", "-2"]),
            ("derain", ["--hqs-rho", "0"]),
            ("deblur", ["--solver", "dtlf", "--external-denoiser", 'foo "bar']),
            ("deblur", ["--solver", "dtlf", "--external-denoiser", "   "]),
            ("derain", ["--lambda1", "-3"]),
            ("derain", ["--lambda2", "-1"]),
            ("inpaint", ["--nu1", "-1"]),
            ("inpaint", ["--p1", "0.3"]),
            ("deblur", ["--step", "-1"]),
        ],
        ids=["cg-tol-nan", "rel-tol-nan", "noise-negative", "denoiser-strength",
             "levels-negative", "deblur-solver-list", "inpaint-solver-list",
             "tlf-denoiser-strength", "denoiser-rain-kind", "derain-levels-negative",
             "derain-hqs-iters-negative", "derain-hqs-rho-zero",
             "external-denoiser-unbalanced-quote", "external-denoiser-blank",
             "derain-lambda1-negative", "derain-lambda2-negative", "inpaint-nu1-negative",
             "inpaint-p1-unsupported", "deblur-step-negative"],
    )
    def test_bad_values_rejected(self, tmp_path, task, extra):
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "obs.tlft", observed)
        write_mask(tmp_path / "mask.pgm", mask)
        args = [
            task,
            "--input", tmp_path / "obs.tlft",
            "--mask", tmp_path / "mask.pgm",
            "--levels", "2",
            "--max-iters", "2",
            "--out", tmp_path / "o",
        ]
        assert run_cli(args + extra) == 1

    def test_cg_stall_exits_3(self, tmp_path, capsys):
        _, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "obs.tlft", observed)
        write_mask(tmp_path / "mask.pgm", mask)
        args = ["inpaint", "--input", tmp_path / "obs.tlft", "--mask", tmp_path / "mask.pgm"]
        assert run_cli(args + ["--cg-tol", "1e-300", "--out", tmp_path / "o"]) == 3
        assert "numerical error: CG stalled" in capsys.readouterr().err

    def test_external_denoiser_replaces_denoiser(self, deblur_files, echo_denoiser):
        # --denoiser external alone has no command; --external-denoiser supplies it
        code = run_cli(
            [
                "deblur",
                "--input", deblur_files / "blurry.tlft",
                "--kernel", deblur_files / "kernel.txt",
                "--solver", "dtlf",
                "--denoiser", "external",
                "--external-denoiser", echo_denoiser,
                "--max-iters", "2",
                "--out", deblur_files / "o",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("flag", ["--denoiser", "--denoiser-rain"])
    def test_external_kind_names_its_flag(self, capsys, flag):
        # checked before the input is read, so no file is needed
        assert run_cli(["derain", "--input", "x", flag, "external:1"]) == 1
        assert "--external-denoiser" in capsys.readouterr().err

    def test_gaussian_kind_is_gone(self, capsys):
        assert run_cli(["deblur", "--input", "x", "--denoiser", "gaussian:1"]) == 1
        assert "unknown denoiser kind 'gaussian'" in capsys.readouterr().err

    def test_external_denoiser_that_cannot_start_falls_back(self, deblur_files, not_executable):
        # every anchored step is a BUS fallback, as for a missing command
        code = run_cli(
            [
                "deblur",
                "--input", deblur_files / "blurry.tlft",
                "--kernel", deblur_files / "kernel.txt",
                "--solver", "dtlf",
                "--external-denoiser", not_executable,
                "--max-iters", "3",
                "--out", deblur_files / "o",
            ]
        )
        assert code == 0
        rows = (deblur_files / "o" / "trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        fields = [dict(zip(header, row.split(","))) for row in rows[1:]]
        assert [(f["bus_branch"], f["norm_xGmu_x"]) for f in fields] == [("fell-back-xG", "nan")] * 3

    def test_derain_levels_passed_on(self, tmp_path):
        # 20 is divisible by 4 but not by 8: runs only if every step uses 2
        # levels (and a rain denoiser other than the 3-level wavelet-shrink)
        y, _, _ = rain_fixture(seed=42, size=20)
        write_tlft(tmp_path / "rainy.tlft", y)
        code = run_cli(
            [
                "derain",
                "--input", tmp_path / "rainy.tlft",
                "--levels", "2",
                "--denoiser-rain", "tv-rof:0.01",
                "--max-iters", "2",
                "--out", tmp_path / "o",
            ]
        )
        assert code == 0
        assert (tmp_path / "o" / "background.pgm").exists()

    def test_derain_default_rain_denoiser_on_20x20(self, tmp_path):
        # wavelet-shrink takes the 2 levels a 20x20 image allows
        y, _, _ = rain_fixture(seed=42, size=20)
        write_tlft(tmp_path / "rainy.tlft", y)
        args = ["derain", "--input", tmp_path / "rainy.tlft", "--levels", "2", "--max-iters", "2"]
        assert run_cli(args + ["--out", tmp_path / "o"]) == 0

    @pytest.mark.parametrize(
        "extra",
        [["--bus-c", "1e-9", "--max-iters", "1100"], ["--mu0", "1e-320", "--bus-c", "1e-9", "--max-iters", "40"]],
        ids=["mu-decays-to-zero", "tiny-mu0"],
    )
    def test_mu_underflow_exits_0(self, tmp_path, extra):
        _, kernel, blurry = deblur_fixture(seed=42, size=16)
        write_tlft(tmp_path / "blurry.tlft", blurry)
        write_kernel(tmp_path / "kernel.txt", kernel)
        args = [
            "deblur", "--input", tmp_path / "blurry.tlft", "--kernel", tmp_path / "kernel.txt",
            "--levels", "2", "--solver", "dtlf", "--rel-tol", "0", "--out", tmp_path / "o",
        ]
        assert run_cli(args + extra) == 0
        rows = (tmp_path / "o" / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == int(extra[-1])
        assert rows[-1].split(",")[7] == "0"  # mu


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
        restored = read_image(deblur_files / "a" / "restored.tlft")
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
        bg = read_image(tmp_path / "out" / "background.tlft")
        rain = read_image(tmp_path / "out" / "rain.tlft")
        assert bg.data.min() >= 0.0 and bg.data.max() <= 1.0
        assert rain.data.min() >= 0.0 and rain.data.max() <= 1.0
        assert "layer_sum_residual" in (tmp_path / "out" / "summary.txt").read_text()


_COMPOSITE_KEYS = ["task", "solver", "iterations", "final_F", "final_rel_err"]
_RESTORED = {"restored.pgm", "restored.tlft", "trace.csv", "summary.txt"}


def _summary_keys(path):
    return [line.split(" = ")[0] for line in path.read_text().splitlines()]


class TestRunOutputs:
    """The exact files each task writes and the ordered keys of its summary."""

    @pytest.fixture
    def small_files(self, tmp_path):
        gt, kernel, blurry = deblur_fixture(seed=42, size=16)
        write_tlft(tmp_path / "blurry.tlft", blurry)
        write_tlft(tmp_path / "gt.tlft", gt)
        write_kernel(tmp_path / "kernel.txt", kernel)
        gt, mask, observed = inpaint_fixture(seed=5, size=16)
        write_tlft(tmp_path / "masked.tlft", observed)
        write_tlft(tmp_path / "inpaint_gt.tlft", gt)
        write_mask(tmp_path / "mask.pgm", mask)
        y, xb, _ = rain_fixture(seed=3, size=16)
        write_tlft(tmp_path / "rainy.tlft", y)
        write_tlft(tmp_path / "rain_gt.tlft", xb)
        return tmp_path

    @pytest.mark.parametrize(
        "args,files,keys",
        [
            (["deblur", "--input", "blurry.tlft", "--kernel", "kernel.txt", "--gt", "gt.tlft"],
             _RESTORED, _COMPOSITE_KEYS + ["psnr", "ssim"]),
            (["deblur", "--input", "blurry.tlft", "--kernel", "kernel.txt", "--solver", "dtlf"],
             _RESTORED, _COMPOSITE_KEYS),
            (["inpaint", "--input", "masked.tlft", "--mask", "mask.pgm", "--gt", "inpaint_gt.tlft"],
             _RESTORED, _COMPOSITE_KEYS + ["psnr", "ssim", "masked_psnr"]),
            (["derain", "--input", "rainy.tlft", "--gt", "rain_gt.tlft"],
             {"background.pgm", "background.tlft", "rain.pgm", "rain.tlft", "trace.csv", "summary.txt"},
             _COMPOSITE_KEYS + ["layer_sum_residual", "psnr", "ssim"]),
            (["bench", "--input", "gt.tlft", "--kernel", "kernel.txt", "--solver", "pg,tlf"],
             {"summary.txt"} | {f"{s}/{name}" for s in ("pg", "tlf") for name in _RESTORED},
             ["task", "input_psnr", "psnr_pg", "iters_pg", "psnr_tlf", "iters_tlf"]),
        ],
        ids=["deblur-gt", "deblur-no-gt", "inpaint-gt", "derain-gt", "bench"],
    )
    def test_files_and_summary_keys(self, small_files, args, files, keys):
        out = small_files / "out"
        args = [small_files / a if a.endswith((".tlft", ".txt", ".pgm")) else a for a in args]
        assert run_cli(args + ["--levels", "2", "--max-iters", "3", "--out", out]) == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == files
        assert _summary_keys(out / "summary.txt") == keys
        for solver in ("pg", "tlf") if args[0] == "bench" else ():
            got = _summary_keys(out / solver / "summary.txt")
            assert got == _COMPOSITE_KEYS + ["psnr", "ssim"]


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

    @pytest.mark.parametrize(
        "golden,args",
        [
            ("golden_deblur_dtlf_trace.csv",
             ["deblur", "--input", "blurry.tlft", "--kernel", "kernel.txt", "--gt", "gt.tlft",
              "--solver", "dtlf", "--max-iters", "40", "--rel-tol", "0"]),
            ("golden_derain_trace.csv",
             ["derain", "--input", "rainy.tlft", "--gt", "rain_gt.tlft",
              "--max-iters", "12", "--rel-tol", "0"]),
            # a small BUS bound rejects x_Gmu: mu decays and v can win MDUS
            ("golden_deblur_dtlf_bus_trace.csv",
             ["deblur", "--input", "blurry.tlft", "--kernel", "kernel.txt", "--gt", "gt.tlft",
              "--solver", "dtlf", "--max-iters", "40", "--rel-tol", "0", "--bus-c", "0.2"]),
            ("golden_derain_bus_trace.csv",
             ["derain", "--input", "rainy.tlft", "--gt", "rain_gt.tlft",
              "--max-iters", "12", "--rel-tol", "0", "--bus-c", "0.5"]),
            # the masked x-step runs CG
            ("golden_inpaint_dtlf_trace.csv",
             ["inpaint", "--input", "masked.tlft", "--mask", "mask.pgm", "--gt", "inpaint_gt.tlft",
              "--solver", "dtlf", "--max-iters", "40", "--rel-tol", "0", "--lambda2", "0.02",
              "--mu0", "0.001", "--denoiser", "median:1"]),
        ],
        ids=["deblur-dtlf", "derain", "deblur-dtlf-bus-reject", "derain-bus-reject", "inpaint-dtlf"],
    )
    def test_reproduces_golden_trace(self, deblur_files, golden, args):
        """The same comparison for DTLF, the derain block and inpainting."""
        import csv

        y, xb, _ = rain_fixture(seed=42, size=64)
        write_tlft(deblur_files / "rainy.tlft", y)
        write_tlft(deblur_files / "rain_gt.tlft", xb)
        gt, mask, observed = inpaint_fixture(seed=42, size=64)
        write_tlft(deblur_files / "masked.tlft", observed)
        write_tlft(deblur_files / "inpaint_gt.tlft", gt)
        write_mask(deblur_files / "mask.pgm", mask)
        out = deblur_files / "golden_run"
        args = [deblur_files / a if a.endswith((".tlft", ".txt", ".pgm")) else a for a in args]
        assert run_cli(args + ["--out", out]) == 0
        with open(DATA / golden) as fh:
            golden_rows = list(csv.DictReader(fh))
        with open(out / "trace.csv") as fh:
            fresh = list(csv.DictReader(fh))
        assert len(golden_rows) == len(fresh)
        for grow, frow in zip(golden_rows, fresh):
            for key, gval in grow.items():
                fval = frow[key]
                try:
                    g = float(gval)
                except ValueError:
                    assert fval == gval
                    continue
                f = float(fval)
                assert abs(f - g) <= 1e-6 * max(1.0, abs(g)), key
