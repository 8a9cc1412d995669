"""Mode-seeking vs small-ball Bayes reports for upper semicontinuous priors.

The package models densities as explicit piecewise objects (or grids),
computes exact ball-mass objectives, locates their maximizer sets, and
provides diagnostics that classify whether small-ball Bayes reports
approach the mode as the loss sharpens — including a worked family where
they provably do not.
"""

from .counterexample import (
    NonconvergenceReport,
    build,
    domination_margin,
    ideal_total_mass,
    objective_at_origin,
    omitted_tail_mass,
    plateau_bound,
    plateau_center,
    sample_curve,
    scale_ladder,
    verify_nonconvergence,
)
from .argmax import ArgmaxResult, maximize_density, maximize_window
from .density import (
    BayesModel,
    GridDensity,
    Piece,
    UscDensity1D,
    affine_piece,
    constant_piece,
    density_from_json,
    evidence,
    posterior,
    sqrt_piece,
)
from .diagnostics import (
    ConditionReport,
    HypoReport,
    HypoRow,
    LevelSetReport,
    SweepRow,
    SweepTrace,
    check_conditions,
    hypo_diagnostic,
    level_set,
    sup_on_interval,
    sweep,
)
from .errors import (
    ConfigError,
    CutoffTooSmall,
    DivergentEvidence,
    EmptySearchBox,
    MapBayesError,
    SearchNotCertified,
    ZeroEvidence,
)
from .estimators import ApproxGap, LossSpec, approx_gap, bayes_estimate, map_estimate
from .gallery import (
    asymmetric_triangle,
    quasiconcave_family,
    ramp,
    staircase,
    step,
    triangle,
    two_bumps,
    uniform,
)
from .windows import BallObjective, ball_integral, mollified_sup

__version__ = "0.1.0"

__all__ = [
    "ApproxGap",
    "ArgmaxResult",
    "BallObjective",
    "BayesModel",
    "ConditionReport",
    "ConfigError",
    "CutoffTooSmall",
    "DivergentEvidence",
    "EmptySearchBox",
    "GridDensity",
    "HypoReport",
    "HypoRow",
    "LevelSetReport",
    "LossSpec",
    "MapBayesError",
    "NonconvergenceReport",
    "Piece",
    "SearchNotCertified",
    "SweepRow",
    "SweepTrace",
    "UscDensity1D",
    "ZeroEvidence",
    "affine_piece",
    "approx_gap",
    "asymmetric_triangle",
    "ball_integral",
    "bayes_estimate",
    "build",
    "check_conditions",
    "constant_piece",
    "density_from_json",
    "domination_margin",
    "hypo_diagnostic",
    "ideal_total_mass",
    "level_set",
    "map_estimate",
    "maximize_density",
    "maximize_window",
    "mollified_sup",
    "objective_at_origin",
    "evidence",
    "omitted_tail_mass",
    "plateau_bound",
    "plateau_center",
    "posterior",
    "quasiconcave_family",
    "ramp",
    "sample_curve",
    "scale_ladder",
    "sqrt_piece",
    "staircase",
    "step",
    "sup_on_interval",
    "sweep",
    "triangle",
    "two_bumps",
    "uniform",
    "verify_nonconvergence",
]
