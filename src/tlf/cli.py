"""Command-line experiment runner.

Subcommands: deblur, inpaint, derain, bench, defaults.  Exit codes:
0 success, 1 configuration/validation error, 2 I/O or format error,
3 numerical failure.
"""

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import DEFAULTS, SOLVERS, TASKS, ExperimentConfig, format_defaults, read_config_file
from .denoise import DESIGNED_KINDS, DenoiserSpec
from .engine import dtlf_solve, tlf_solve
from .errors import ConfigError, DenoiserError, FormatError, NumericalError, ShapeError, TlfError
from .formats import read_image, read_kernel, read_mask, write_image, write_tlft
from .metrics import psnr, require_ssim_size, ssim
from .noise import add_gaussian_noise
from .problem import BASELINE_METHODS, solve_baseline
from .tasks import build_deblur, build_inpaint, derain_init, derain_solve
from .tensor import BlurKernel, CircularConvolution, norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


# Every config key but task is a flag: --key-name, except for these.
_FLAG_NAMES = {"noise_percent": "--noise"}
_DENOISER_HELP = "|".join(DESIGNED_KINDS) + "[:strength[,s1,...]]"
_FLAG_HELP = {
    "solver": "|".join(SOLVERS) + " (bench: comma list)",
    "denoiser": _DENOISER_HELP,
    "denoiser_rain": _DENOISER_HELP,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _write_run(out_dir, images, trace, entries):
    """Write each named image as <name>.pgm|ppm and <name>.tlft, then
    trace.csv when a trace is given, then summary.txt from the ordered
    (key, value) entries."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, img in images.items():
        write_image(out_dir / f"{name}.{'pgm' if img.channels == 1 else 'ppm'}", img)
        write_tlft(out_dir / f"{name}.tlft", img)
    if trace is not None:
        trace.write_csv(out_dir / "trace.csv")
    with open(out_dir / "summary.txt", "w") as fh:
        for key, value in entries:
            if isinstance(value, float):
                fh.write(f"{key} = {value:.6f}\n")
            else:
                fh.write(f"{key} = {value}\n")


def _summary(task, solver, trace, image, gt, extra=()):
    """Summary entries of one solve: its trace, then ``extra``, then PSNR
    and SSIM of ``image`` against ``gt`` when one is given."""
    entries = [
        ("task", task),
        ("solver", solver),
        ("iterations", len(trace)),
        ("final_F", trace.final().F_value),
        ("final_rel_err", trace.final().rel_err),
        *extra,
    ]
    if gt is not None:
        entries.append(("psnr", psnr(image, gt)))
        entries.append(("ssim", ssim(image, gt)))
    return entries


def _solve_composite(cfg, solver, prob, feas, gt):
    """Run one solver on a composite problem; returns the restored image and trace."""
    params = cfg.solver_params()
    if solver in BASELINE_METHODS:
        x, trace = solve_baseline(prob, solver, params, ground_truth=gt)
    elif solver == "tlf":
        x, trace = tlf_solve(prob, feas, params, ground_truth=gt)
    else:
        x, trace = dtlf_solve(prob, feas, cfg.denoiser_spec(), params, ground_truth=gt)
    return prob.to_image(x), trace


def run_experiment(cfg: ExperimentConfig) -> int:
    out_root = Path(cfg.out)
    observed = read_image(cfg.input)
    # The ground truth (bench: the clean input) is size-checked before any
    # solve, so that a run cannot fail in its final SSIM.
    if cfg.task == "bench":
        gt = require_ssim_size(observed, "bench input")
    else:
        gt = require_ssim_size(read_image(cfg.gt), "--gt image") if cfg.gt else None
        if gt is not None and gt.data.shape != observed.data.shape:
            raise ShapeError(f"--gt image shape {gt.data.shape} differs from input {observed.data.shape}")
    if cfg.task == "derain":
        params = cfg.solver_params()
        params.resolve_step(1.0)  # the code step's L: W is orthonormal
        n_b = cfg.denoiser_spec()
        n_r = DenoiserSpec.parse(cfg.denoiser_rain)
        init = derain_init(observed, cfg.derain_weights(), params, levels=cfg.levels)
        state, trace = derain_solve(observed, init, (n_b, n_r), params, ground_truth=gt)
        residual = norm(observed.data - state.x_b.data - state.x_r.data) / max(norm(observed.data), 1e-30)
        entries = _summary("derain", "dtlf", trace, state.x_b, gt, [("layer_sum_residual", residual)])
        _write_run(out_root, {"background": state.x_b, "rain": state.x_r}, trace, entries)
        return EXIT_OK

    # deblur, inpaint and bench: composite solves
    weights = (cfg.lambda1, cfg.p, cfg.lambda2, cfg.q)
    keywords = dict(levels=cfg.levels, hqs_rho=cfg.hqs_rho, hqs_iters=cfg.hqs_iters)
    if cfg.task == "inpaint":
        mask = read_mask(cfg.mask)
        prob, feas = build_inpaint(observed, mask, *weights, **keywords, cg_tol=cfg.cg_tol)
    else:
        kernel = read_kernel(cfg.kernel) if cfg.kernel else BlurKernel.delta()
        if cfg.task == "bench":  # blur the clean input, which is the ground truth
            observed = CircularConvolution(kernel).apply(observed)
        if cfg.noise_percent > 0:
            observed = add_gaussian_noise(observed, cfg.noise_percent, cfg.seed)
        prob, feas = build_deblur(observed, kernel, *weights, **keywords)
    cfg.solver_params().resolve_step(prob.lipschitz)  # before any solve, as L is now known

    def one(solver, out_dir):
        restored, trace = _solve_composite(cfg, solver, prob, feas, gt)
        entries = _summary(cfg.task, solver, trace, restored, gt)
        if cfg.task == "inpaint" and gt is not None and (mask == 0.0).any():
            entries.append(("masked_psnr", psnr(restored, gt, mask=mask == 0.0)))
        _write_run(out_dir, {"restored": restored}, trace, entries)
        return dict(entries)

    if cfg.task != "bench":
        one(cfg.solver_list()[0], out_root)
        return EXIT_OK
    # bench: every solver in its own directory, then one PSNR comparison
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(lambda s: one(s, out_root / s), cfg.solver_list()))
    entries = [("task", "bench"), ("input_psnr", psnr(observed, gt))]
    for run in results:
        entries.append((f"psnr_{run['solver']}", run["psnr"]))
        entries.append((f"iters_{run['solver']}", run["iterations"]))
    _write_run(out_root, {}, None, entries)
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
    except (OSError, FormatError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, DenoiserError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TlfError as exc:  # config, validation, shape and any other misuse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
