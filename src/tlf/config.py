"""Experiment configuration: defaults, flat key=value files, CLI overrides.

``ExperimentConfig`` is the one schema: each field is a config key, its
default is the key's default and the default's type is the key's parse type.
A key that a library type reads (``SolverParams``, ``DerainWeights``,
``FeasibilityModel``, ``WaveletForward``) takes that type's default and
range rule; the type is built from the config, never restated here.
"""

import math
from dataclasses import dataclass, fields

from .denoise import DenoiserSpec
from .errors import ConfigError
from .feasibility import FeasibilityModel, check_hqs_keys
from .problem import BASELINE_METHODS, SolverParams
from .prox import canonical_p
from .tasks import DerainWeights
from .tensor import DEFAULT_LEVELS, WaveletForward

TASKS = ("deblur", "inpaint", "derain", "bench")
SOLVERS = BASELINE_METHODS + ("tlf", "dtlf")


# The literal defaults were tuned once on the 64x64 synthetic deblur scene
# and frozen.
@dataclass
class ExperimentConfig:
    task: str = "deblur"
    input: str = ""
    kernel: str = ""
    mask: str = ""
    gt: str = ""
    out: str = "out"
    solver: str = "tlf"
    max_iters: int = SolverParams.max_iters
    rel_tol: float = SolverParams.rel_tol
    seed: int = 42
    step: float = SolverParams.step  # 0 -> 0.99 / L
    alpha0: float = SolverParams.alpha0
    gamma: float = SolverParams.gamma
    mu0: float = SolverParams.mu0
    beta: float = SolverParams.beta
    bus_c: float = SolverParams.bus_c
    lambda1: float = 5e-4
    lambda2: float = 2e-3
    p: float = 1.0
    q: float = 1.0
    nu1: float = DerainWeights.nu1
    nu2: float = DerainWeights.nu2
    rho1: float = DerainWeights.rho1
    rho2: float = DerainWeights.rho2
    recon_weight: float = DerainWeights.recon_weight
    p1: float = DerainWeights.p1
    p2: float = DerainWeights.p2
    levels: int = DEFAULT_LEVELS
    hqs_rho: float = FeasibilityModel.hqs_rho
    hqs_iters: int = 10
    cg_tol: float = FeasibilityModel.cg_tol
    denoiser: str = "tv-rof:0.002"
    denoiser_rain: str = "wavelet-shrink:0.01"
    external_denoiser: str = ""
    denoiser_hint: float = 1.0
    noise_percent: float = 0.0
    jobs: int = 1

    @classmethod
    def from_mappings(cls, *layers):
        """Merge defaults with config-file and CLI layers (later wins)."""
        merged = dict(DEFAULTS)
        for layer in layers:
            for key, value in layer.items():
                if value is None:
                    continue
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                if isinstance(DEFAULTS[key], str):
                    merged[key] = str(value)
                else:
                    merged[key] = parse_number(key, value)
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        solvers = self.solver_list()
        for name in solvers:
            if name not in SOLVERS:
                raise ConfigError(f"unknown solver {name!r}; expected one of {SOLVERS}")
        if len(set(solvers)) < len(solvers):
            raise ConfigError(f"solver list {self.solver!r} names a solver twice")
        if self.task != "bench" and len(solvers) > 1:
            raise ConfigError(f"{self.task} runs one solver; only bench takes a comma list")
        if not self.input:
            raise ConfigError("input image path is required")
        if self.task == "inpaint" and not self.mask:
            raise ConfigError("inpaint task requires a mask")
        if not self.jobs >= 1:
            raise ConfigError("jobs must be >= 1")
        if not self.noise_percent >= 0:
            raise ConfigError(f"noise_percent must be >= 0, got {self.noise_percent}")
        # every key's range rule, whether or not this task reads the key
        self.solver_params()
        self.derain_weights()
        check_hqs_keys(self.hqs_rho, self.hqs_iters, self.cg_tol)
        WaveletForward(self.levels)
        for key in ("lambda1", "lambda2"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key in ("p", "q"):
            canonical_p(getattr(self, key), key)
        self.denoiser_spec()
        DenoiserSpec.parse(self.denoiser_rain)

    def _build(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def solver_params(self) -> SolverParams:
        return self._build(SolverParams)

    def derain_weights(self) -> DerainWeights:
        return self._build(DerainWeights)

    def denoiser_spec(self) -> DenoiserSpec:
        """The DTLF (and derain background) denoiser: ``external_denoiser``
        when set, else ``denoiser``."""
        if self.external_denoiser:
            return DenoiserSpec(kind="external", command=self.external_denoiser, strength=self.denoiser_hint)
        return DenoiserSpec.parse(self.denoiser)

    def solver_list(self):
        return [s.strip() for s in self.solver.split(",")]


DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_number(key, raw):
    """Parse a number of the key's default type; floats accept fraction
    strings like '2/3' for exponents and must be finite."""
    text = str(raw).strip()
    try:
        if isinstance(DEFAULTS[key], int):
            return int(text)
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"bad value for {key}: {raw!r} is not finite")
    return value


def read_config_file(path):
    """Flat 'key = value' text file; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def format_defaults():
    return "\n".join(f"{k} = {v}" for k, v in DEFAULTS.items()) + "\n"
