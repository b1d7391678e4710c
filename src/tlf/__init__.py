"""Latent-feasibility solvers for nonconvex image restoration."""

from .denoise import DenoiserSpec, denoise, external_roundtrip
from .engine import bus, dtlf_solve, mdus, tlf_solve
from .feasibility import FeasibilityModel, solve_G, solve_G_mu
from .metrics import psnr, ssim
from .problem import CompositeProblem, SolverParams, eval_F, pg_step, solve_baseline
from .prox import ProxSpec, project_box01, prox_lp
from .tasks import (
    DerainState,
    DerainWeights,
    build_deblur,
    build_inpaint,
    derain_solve,
    derain_step,
)
from .tensor import (
    BlurKernel,
    CircularConvolution,
    Identity,
    ImageTensor,
    LinearOperator,
    Mask,
    WaveletForward,
)
from .trace import IterateTrace, TraceRecord

__version__ = "0.1.0"
