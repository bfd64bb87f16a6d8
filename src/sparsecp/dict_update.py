"""Dictionary update stage: empirical gradient, descent step, renormalization.

The gradient is one product over all selected sample columns. Both
kernels take float64 arrays as given; they check shapes and the
gradient's finiteness, nothing entrywise on their inputs.
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import normalize_columns

# Not called here: the benchmark's tracer wraps this module attribute by name.
from .linalg import as_matrix  # noqa: F401

__all__ = ["SampleMode", "gradient", "step_and_normalize"]


class SampleMode(enum.Enum):
    """Which recovered code columns feed the gradient."""

    ALL_NONZERO = "all_nonzero"
    INDEPENDENT_ONLY = "independent_only"

    @classmethod
    def parse(cls, text: str) -> "SampleMode":
        key = text.strip().lower()
        aliases = {
            "all_nonzero": cls.ALL_NONZERO,
            "allnonzero": cls.ALL_NONZERO,
            "independent_only": cls.INDEPENDENT_ONLY,
            "independentonly": cls.INDEPENDENT_ONLY,
        }
        if key not in aliases:
            raise ValueError(
                f"Unknown sample_mode {text!r}; expected all_nonzero or independent_only"
            )
        return aliases[key]


def gradient(A, Xsel, Ysel) -> np.ndarray:
    """Return (1/p') (A Xsel - Ysel) sign(Xsel)^T with sign(0) = 0.

    Xsel/Ysel are the columns already selected per sample_mode; p' = 0 is
    an error, the caller skips the update for that iteration instead.
    """
    n, m = A.shape
    p = Xsel.shape[1]
    if p == 0:
        raise ValueError("gradient needs at least one sample column (p' = 0)")
    if Xsel.shape[0] != m or Ysel.shape != (n, p):
        raise ValueError(
            f"Shape mismatch: A {n}x{m}, Xsel {Xsel.shape[0]}x{p}, "
            f"Ysel {Ysel.shape[0]}x{Ysel.shape[1]}"
        )

    g = (A @ Xsel - Ysel) @ np.sign(Xsel).T / p
    if not np.all(np.isfinite(g)):
        raise ValueError("Gradient has non-finite entries")
    return g


def step_and_normalize(A, g, eta_A: float) -> np.ndarray:
    """Return normalize_columns(A - eta_A * g)."""
    if A.shape != g.shape:
        raise ValueError(
            f"Shape mismatch: A {A.shape[0]}x{A.shape[1]}, g {g.shape[0]}x{g.shape[1]}"
        )
    return normalize_columns(A - eta_A * g, context="dictionary step")

