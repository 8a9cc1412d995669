"""Small bundled densities used by the CLI builtins, demos, and tests."""

from __future__ import annotations

from .density import UscDensity1D, affine_piece, constant_piece

__all__ = [
    "triangle",
    "asymmetric_triangle",
    "uniform",
    "step",
    "ramp",
    "staircase",
    "two_bumps",
    "quasiconcave_family",
]


def uniform(lo: float = 0.0, hi: float = 1.0) -> UscDensity1D:
    """Uniform density on [lo, hi)."""
    return UscDensity1D((constant_piece(lo, hi, 1.0 / (hi - lo)),))


def triangle() -> UscDensity1D:
    """Symmetric triangle 1 - |t| on [-1, 1]; unique mode at 0."""
    return UscDensity1D((
        affine_piece(-1.0, 0.0, 1.0, 1.0),
        affine_piece(0.0, 1.0, 1.0, -1.0),
    ))


def asymmetric_triangle(lo: float, apex: float, hi: float) -> UscDensity1D:
    """Triangle with its peak at apex; normalized so the area is 1."""
    if not lo < apex < hi:
        raise ValueError("need lo < apex < hi")
    h = 2.0 / (hi - lo)
    up = h / (apex - lo)
    down = h / (hi - apex)
    return UscDensity1D((
        affine_piece(lo, apex, 0.0, up, t0=lo),
        affine_piece(apex, hi, 0.0, -down, t0=hi),
    ))


def step() -> UscDensity1D:
    """Value 2 on [0, 0.5); zero elsewhere."""
    return UscDensity1D((constant_piece(0.0, 0.5, 2.0),))


def ramp() -> UscDensity1D:
    """Density 2t on [0, 1]: increasing, mode plateau degenerate at t=1."""
    return UscDensity1D((affine_piece(0.0, 1.0, 0.0, 2.0),))


def staircase() -> UscDensity1D:
    """Two steps up then a drop to zero: 0.4 on [0,1), 1.2 on [1,1.5)."""
    return UscDensity1D((
        constant_piece(0.0, 1.0, 0.4),
        constant_piece(1.0, 1.5, 1.2),
    ))


def two_bumps() -> UscDensity1D:
    """Two separated plateaus; deliberately not quasiconcave."""
    return UscDensity1D((
        constant_piece(-1.0, -0.5, 1.2),
        constant_piece(0.5, 1.0, 0.8),
    ))


def quasiconcave_family() -> dict[str, UscDensity1D]:
    """The bundled quasiconcave densities exercised by the diagnostics."""
    return {
        "triangle": triangle(),
        "uniform": uniform(),
        "step": step(),
        "ramp": ramp(),
        "staircase": staircase(),
        "asym_right": asymmetric_triangle(-1.0, 0.5, 1.0),
        "asym_left": asymmetric_triangle(-0.5, -0.2, 1.0),
    }
