"""Command-line experiment runner.

Subcommands: deblur, inpaint, derain, bench, defaults.  Exit codes:
0 success, 1 configuration/validation error, 2 I/O or format error,
3 numerical failure.
"""

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import DEFAULTS, TASKS, ExperimentConfig, format_defaults, read_config_file
from .denoise import DenoiserSpec
from .engine import dtlf_solve, tlf_solve
from .errors import (
    ConfigError,
    DenoiserError,
    FormatError,
    NumericalError,
    ShapeError,
    TlfError,
    ValidationError,
)
from .formats import read_image, read_kernel, read_mask, write_image, write_tlft
from .metrics import psnr, ssim
from .noise import add_gaussian_noise
from .problem import SolverParams, solve_baseline
from .tasks import DerainWeights, build_deblur, build_inpaint, derain_init, derain_solve
from .tensor import BlurKernel, CircularConvolution

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


# Every config key but task is a flag: --key-name, except for these.
_FLAG_NAMES = {"noise_percent": "--noise"}
_FLAG_HELP = {
    "solver": "pg|apg|mapg|tlf|dtlf (bench: comma list)",
    "denoiser": "kind[:strength[,s1,...]]",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _solver_params(cfg: ExperimentConfig) -> SolverParams:
    return SolverParams(
        step=cfg.step if cfg.step > 0 else None,
        max_iters=cfg.max_iters,
        rel_tol=cfg.rel_tol,
        alpha0=cfg.alpha0,
        gamma=cfg.gamma,
        mu0=cfg.mu0,
        beta=cfg.beta,
        bus_c=cfg.bus_c,
    )


def _deblur_problem(cfg, blurry, kernel):
    """Add the configured noise to ``blurry`` and build the deblur problem.

    Returns the noisy observation with the problem and feasibility model.
    """
    if cfg.noise_percent > 0:
        blurry = add_gaussian_noise(blurry, cfg.noise_percent, cfg.seed)
    prob, feas = build_deblur(
        blurry, kernel, cfg.lambda1, cfg.p, cfg.lambda2, cfg.q,
        levels=cfg.levels, hqs_rho=cfg.hqs_rho, hqs_iters=cfg.hqs_iters,
    )
    return blurry, prob, feas


def _write_summary(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            if isinstance(value, float):
                fh.write(f"{key} = {value:.6f}\n")
            else:
                fh.write(f"{key} = {value}\n")


def _run_composite(cfg, solver, prob, feas, gt, out_dir):
    params = _solver_params(cfg)
    if solver in ("pg", "apg", "mapg"):
        x, trace = solve_baseline(prob, solver, params, ground_truth=gt)
    elif solver == "tlf":
        x, trace = tlf_solve(prob, feas, params, ground_truth=gt)
    else:
        x, trace = dtlf_solve(prob, feas, cfg.denoiser_spec(), params, ground_truth=gt)
    restored = prob.to_image(x)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_image(out_dir / ("restored.pgm" if restored.channels == 1 else "restored.ppm"), restored)
    write_tlft(out_dir / "restored.tlft", restored)
    trace.write_csv(out_dir / "trace.csv")
    entries = [
        ("task", cfg.task),
        ("solver", solver),
        ("iterations", len(trace)),
        ("final_F", trace.final().F_value),
        ("final_rel_err", trace.final().rel_err),
    ]
    if gt is not None:
        entries.append(("psnr", psnr(restored, gt)))
        entries.append(("ssim", ssim(restored, gt)))
    _write_summary(out_dir / "summary.txt", entries)
    return restored, trace


def run_experiment(cfg: ExperimentConfig) -> int:
    out_root = Path(cfg.out)
    if cfg.task == "deblur":
        blurry = read_image(cfg.input)
        kernel = read_kernel(cfg.kernel) if cfg.kernel else BlurKernel.delta()
        gt = read_image(cfg.gt) if cfg.gt else None
        _, prob, feas = _deblur_problem(cfg, blurry, kernel)
        _run_composite(cfg, cfg.solver_list()[0], prob, feas, gt, out_root)
        return EXIT_OK

    if cfg.task == "inpaint":
        observed = read_image(cfg.input)
        mask = read_mask(cfg.mask)
        gt = read_image(cfg.gt) if cfg.gt else None
        prob, feas = build_inpaint(
            observed, mask, cfg.lambda1, cfg.p, cfg.lambda2, cfg.q,
            levels=cfg.levels, hqs_rho=cfg.hqs_rho, hqs_iters=cfg.hqs_iters,
            cg_tol=cfg.cg_tol,
        )
        restored, trace = _run_composite(cfg, cfg.solver_list()[0], prob, feas, gt, out_root)
        if gt is not None:
            missing = mask[None, :, :] == 0.0
            if missing.any():
                extra = [("masked_psnr", psnr(restored, gt, mask=np.broadcast_to(missing, restored.shape)))]
                with open(out_root / "summary.txt", "a") as fh:
                    fh.write(f"masked_psnr = {extra[0][1]:.6f}\n")
        return EXIT_OK

    if cfg.task == "derain":
        rainy = read_image(cfg.input)
        gt = read_image(cfg.gt) if cfg.gt else None
        params = _solver_params(cfg)
        weights = DerainWeights(
            nu1=cfg.nu1, nu2=cfg.nu2, rho1=cfg.rho1, rho2=cfg.rho2,
            p1=cfg.p1, p2=cfg.p2, recon_weight=cfg.recon_weight,
        )
        n_b = cfg.denoiser_spec()
        n_r = DenoiserSpec.parse(cfg.denoiser_rain)
        init = derain_init(rainy, weights, params, levels=cfg.levels)
        state, trace = derain_solve(rainy, init, (n_b, n_r), params, ground_truth=gt)
        out_root.mkdir(parents=True, exist_ok=True)
        suffix = "pgm" if state.x_b.channels == 1 else "ppm"
        write_image(out_root / f"background.{suffix}", state.x_b)
        write_image(out_root / f"rain.{suffix}", state.x_r)
        write_tlft(out_root / "background.tlft", state.x_b)
        write_tlft(out_root / "rain.tlft", state.x_r)
        trace.write_csv(out_root / "trace.csv")
        entries = [
            ("task", "derain"),
            ("solver", "dtlf"),
            ("iterations", len(trace)),
            ("final_F", trace.final().F_value),
            ("final_rel_err", trace.final().rel_err),
            ("layer_sum_residual", float(
                np.linalg.norm(rainy.data - state.x_b.data - state.x_r.data)
                / max(np.linalg.norm(rainy.data), 1e-30)
            )),
        ]
        if gt is not None:
            entries.append(("psnr", psnr(state.x_b, gt)))
            entries.append(("ssim", ssim(state.x_b, gt)))
        _write_summary(out_root / "summary.txt", entries)
        return EXIT_OK

    # bench: degrade a clean input, run the requested solvers, compare PSNR
    clean = read_image(cfg.input)
    kernel = read_kernel(cfg.kernel) if cfg.kernel else BlurKernel.delta()
    degraded, prob, feas = _deblur_problem(cfg, CircularConvolution(kernel).apply(clean), kernel)
    solvers = cfg.solver_list()

    def one(solver):
        restored, trace = _run_composite(cfg, solver, prob, feas, clean, out_root / solver)
        return solver, psnr(restored, clean), len(trace)

    if cfg.jobs > 1 and len(solvers) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(one, solvers))
    else:
        results = [one(s) for s in solvers]
    out_root.mkdir(parents=True, exist_ok=True)
    entries = [("task", "bench"), ("input_psnr", psnr(degraded, clean))]
    for solver, value, iters in results:
        entries.append((f"psnr_{solver}", value))
        entries.append((f"iters_{solver}", iters))
    _write_summary(out_root / "summary.txt", entries)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="tlf", description="Latent-feasibility image restoration experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="flat key=value config file")
    for key in DEFAULTS:
        if key != "task":  # the subcommand
            flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
            common.add_argument(flag, dest=key, default=None, help=_FLAG_HELP.get(key))
    for task in TASKS:
        sub.add_parser(task, parents=[common])
    sub.add_parser("defaults")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "defaults":
            sys.stdout.write(format_defaults())
            return EXIT_OK
        overrides = {
            key: getattr(args, key) for key in DEFAULTS if hasattr(args, key)
        }
        layers = []
        if args.config:
            layers.append(read_config_file(args.config))
        overrides["task"] = args.command
        layers.append(overrides)
        cfg = ExperimentConfig.from_mappings(*layers)
        return run_experiment(cfg)
    except (ConfigError, ValidationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FormatError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, DenoiserError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TlfError as exc:  # any other package error counts as config misuse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
