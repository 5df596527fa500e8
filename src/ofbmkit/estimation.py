"""Selfsimilarity exponent estimators built on wavelet spectra.

Three estimators share one weighted log2-regression across octaves j1..j2:

* univariate: regress log2 of the spectrum diagonals (valid without mixing);
* multivariate: regress log2 of the sorted spectrum eigenvalues;
* bias-corrected multivariate: eigenvalues are computed on fixed-size windows
  (the coarsest-scale count n_j2) at every octave and their logs averaged
  across windows before regression, so the finite-sample eigenvalue repulsion
  is equally strong at all scales and cancels from the slope (at j2 the one
  window is the whole octave, so its eigenvalues are the full-sample ones).

Each estimate is H_m = (sum_j w_j y_m(j) - 1) / 2 with weights satisfying
sum w_j = 0 and sum j w_j = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateRange,
    NonFiniteData,
    NonPositiveDiagonal,
    NotSymmetric,
    RankDeficientSpectrum,
    SampleTooSmall,
    ShapeMismatch,
)
from .wavelet import WaveletPyramid, dwt, spectrum_set, windowed_spectra

WEIGHT_MODES = ("uniform", "by_count")
DEFAULT_BALANCE = "by_count"


@dataclass(frozen=True)
class RegressionWeights:
    """Slope weights over octaves j1..j2 with sum w = 0 and sum j*w = 1, built
    by :func:`regression_weights` only, which makes ``w`` read-only."""

    j1: int
    j2: int
    w: np.ndarray


def _check_octaves(j1: int, j2: int) -> None:
    """Raise DegenerateRange unless 1 <= j1 < j2."""
    if not 1 <= j1 < j2:
        raise DegenerateRange(f"need 1 <= j1 < j2, got ({j1}, {j2})")


def regression_weights(
    j1: int, j2: int, balance: str = DEFAULT_BALANCE, counts=None
) -> RegressionWeights:
    """Weighted-least-squares slope weights w_j = b_j (V0 j - V1) / (V0 V2 - V1^2).

    ``balance`` picks b_j = 1 ("uniform") or b_j = n_j ("by_count", the
    default, which requires ``counts`` aligned with j1..j2).  Raises
    DegenerateRange unless 1 <= j1 < j2.
    """
    _check_octaves(j1, j2)
    if balance not in WEIGHT_MODES:
        raise ShapeMismatch(f"balance must be one of {WEIGHT_MODES}")
    j = np.arange(j1, j2 + 1, dtype=float)
    if balance == "uniform":
        b = np.ones_like(j)
    else:
        if counts is None:
            raise ShapeMismatch("by_count weights require per-octave counts")
        b = np.asarray(counts, dtype=float)
        if b.size != j.size or not (np.isfinite(b) & (b > 0)).all():
            raise ShapeMismatch("counts must be positive and span j1..j2")
    v0 = b.sum()
    v1 = (b * j).sum()
    v2 = (b * j * j).sum()
    w = b * (v0 * j - v1) / (v0 * v2 - v1 * v1)
    w.setflags(write=False)
    return RegressionWeights(j1=j1, j2=j2, w=w)


# Base octave range at the reference size n0
J1_0, J2_0 = 6, 9


@dataclass(frozen=True)
class ScalingRangeConfig:
    """Sample-size-driven octave range: (J1_0, J2_0) shifted by log2 a(n).

    The asymptotic guarantees need ``beta`` above 1/(2w + 1), where w is the
    smallest positive gap of (0, H_1..H_M) or H_1/2 + 1/4 if that is smaller.
    A ``beta`` outside (0, 1) or an ``n0`` below 2^J2_0 raises DegenerateRange.
    """

    beta: float = 0.9
    n0: int = 2**13

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise DegenerateRange(f"beta must be in (0, 1), got {self.beta}")
        if self.n0 < 2**J2_0:
            raise DegenerateRange(f"n0 = {self.n0} cannot support octave {J2_0}")


def scaling_range(
    n: int, cfg: ScalingRangeConfig, j1: int | None = None, j2: int | None = None
) -> tuple[int, int]:
    """The octave range: (j1, j2) when both are given, else, for sample size n,
    (J1_0, J2_0) shifted by floor(beta*log2(n/n0)).

    Raises DegenerateRange when only one of j1, j2 is given or unless
    1 <= j1 < j2, and SampleTooSmall when n < n0 for a derived range.
    """
    if (j1 is None) != (j2 is None):
        raise DegenerateRange("pass j1 and j2 together or neither")
    if j1 is not None:
        _check_octaves(j1, j2)
        return j1, j2
    if n < cfg.n0:
        raise SampleTooSmall(f"sample size {n} below the reference size {cfg.n0}")
    shift = math.floor(cfg.beta * math.log2(n / cfg.n0))
    return J1_0 + shift, J2_0 + shift


def sorted_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix, or of each in a (..., M, M)
    stack; raises NotSymmetric unless the stack is exactly symmetric."""
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {s.shape}")
    if not np.array_equal(s, s.swapaxes(-1, -2)):
        raise NotSymmetric("matrix is not exactly symmetric")
    return np.linalg.eigvalsh(s)


def _numerical_rank(lam: np.ndarray) -> np.ndarray:
    """Numerical rank from ascending eigenvalues ``lam`` (..., M): how many exceed
    M * eps * the largest, a cutoff that holds whatever the sign of rounding noise."""
    return (lam > lam.shape[-1] * np.finfo(float).eps * lam[..., -1:]).sum(axis=-1)


def _raise(error: type[DataError], at, message: str) -> None:
    """Raise ``error(message)`` whose ``window`` is ``at``, an index on a pyramid's window axes."""
    exc = error(message)
    exc.window = tuple(int(i) for i in at)
    raise exc


def _check_rank(rank: np.ndarray, m: int, j1: int, spectrum: str = "the wavelet spectrum") -> None:
    """Raise RankDeficientSpectrum, the one place that does, at the first octave and
    there the first window whose rank, in ``rank`` (octaves, ...) from octave j1
    over a pyramid's window axes, is below M; ``spectrum`` opens the message."""
    if (rank < m).any():
        j, *at = np.argwhere(rank < m)[0]
        _raise(
            RankDeficientSpectrum, at,
            f"{spectrum} at octave {j1 + j} has numerical rank {rank[(j, *at)]} < M = {m}: "
            "the channels are linearly dependent; drop a channel or undo the common reference",
        )


def averaged_log_eigenvalues(windows: np.ndarray, j: int) -> np.ndarray:
    """Mean over windows of sorted log2 eigenvalues; windows is (..., T, M, M),
    the windowed spectra at octave j.  Raises RankDeficientSpectrum naming
    octave j, and the leading index ``...``, when a window's numerical rank is below M."""
    lam = np.linalg.eigvalsh(windows)
    rank = _numerical_rank(lam).min(axis=-1)  # the lowest of the T windows, per leading index
    _check_rank(rank[None], lam.shape[-1], j, "a windowed wavelet spectrum")
    # C order, so that the mean adds the windows in the same order whatever
    # the layout of a stack of windows
    return np.log2(lam, order="C").mean(axis=-2)


# estimator code -> the EstimateRecord field that holds its estimates
ESTIMATORS = {"U": "h_u", "M": "h_m", "BC": "h_m_bc"}


@dataclass(frozen=True)
class EstimateRecord:
    """All three estimates, the weights of octaves weights.j1..j2 and the tables
    behind them.  A pyramid with leading window axes puts those axes in front."""

    h_u: np.ndarray
    h_m: np.ndarray
    h_m_bc: np.ndarray
    weights: RegressionWeights
    log_eig: np.ndarray  # (n_octaves, M) sorted log2 eigenvalues
    log_eig_bc: np.ndarray  # (n_octaves, M) window-averaged log2 eigenvalues
    diag_logs: np.ndarray  # (n_octaves, M) log2 spectrum diagonals
    t_start: int | None = None


def analyze(
    x: np.ndarray | WaveletPyramid,
    j1: int,
    j2: int,
    f=None,
    balance: str = DEFAULT_BALANCE,
    t_start: int | None = None,
) -> EstimateRecord:
    """Run the full estimation pipeline on a series (or prebuilt pyramid).

    A pyramid of (..., M, n_j) window stacks (views are fine) keeps those
    leading axes in every estimate and table, and each window's numbers are
    its own analyze's bit for bit: a spectrum entry is one dot product, an
    eigendecomposition one LAPACK call.  Raises DegenerateRange unless
    1 <= j1 < j2, ShapeMismatch for a pyramid with an ``f``, ScaleUnavailable
    when a pyramid stops short of j2, and NonPositiveDiagonal for a flat channel;
    an error found in one window holds that window's index as its ``window``.
    """
    _check_octaves(j1, j2)
    if isinstance(x, WaveletPyramid) and f is not None:
        raise ShapeMismatch("a filter goes with a series; a pyramid has its filter already")
    pyr = x if isinstance(x, WaveletPyramid) else dwt(np.asarray(x, dtype=float), j2, f)
    counts = [pyr.details(j).shape[-1] for j in range(j1, j2 + 1)]
    w = regression_weights(j1, j2, balance=balance, counts=counts)
    # finite samples can still overflow in the coefficients' products
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = spectrum_set(pyr, j1, j2)  # (octaves, ..., M, M)
    if not np.isfinite(spectra).all():
        j, *at, _, _ = np.argwhere(~np.isfinite(spectra))[0]
        _raise(NonFiniteData, at, f"the wavelet spectrum at octave {j1 + j} overflows double precision")
    diags = spectra.diagonal(axis1=-2, axis2=-1)
    flat = diags <= diags.shape[-1] * np.finfo(float).eps * diags.max(axis=-1, keepdims=True)
    if flat.any():
        j, *at, c = np.argwhere(flat)[0]
        _raise(NonPositiveDiagonal, at, f"channel {c + 1} has no fluctuation at octave {j1 + j}")

    # windows first: a window n_j2 below M raises WindowTooSmall there, and
    # would make the full-sample spectrum at j2 singular too
    windows = [windowed_spectra(pyr, j, j2) for j in range(j1, j2)]
    lam = sorted_eigenvalues(spectra)
    _check_rank(_numerical_rank(lam), lam.shape[-1], j1)

    # octaves next to the components, (..., octaves, M), in C order, so that
    # the regression sees the layout of a stack of per-octave rows
    log_diag = np.log2(np.moveaxis(diags, 0, -2), order="C")
    log_eig = np.log2(np.moveaxis(lam, 0, -2), order="C")
    # the one window at j2 is the whole octave: its spectrum is S(2^j2) bit
    # for bit, and the mean of its log-eigenvalues is log_eig's last row
    bc = [averaged_log_eigenvalues(s, j) for j, s in enumerate(windows, j1)]
    log_eig_bc = np.stack(bc + [log_eig[..., -1, :]], axis=-2)
    h_u, h_m, h_m_bc = (0.5 * (w.w @ y - 1.0) for y in (log_diag, log_eig, log_eig_bc))
    return EstimateRecord(h_u, h_m, h_m_bc, w, log_eig, log_eig_bc, log_diag, t_start)


def record_to_dict(r: EstimateRecord) -> dict:
    """estimate.json, whose j1 and j2 are the weights' octave range."""
    return {
        "H_U": r.h_u.tolist(),
        "H_M": r.h_m.tolist(),
        "H_M_bc": r.h_m_bc.tolist(),
        "j1": r.weights.j1,
        "j2": r.weights.j2,
        "weights": r.weights.w.tolist(),
        "log_eig": r.log_eig.tolist(),
        "log_eig_bc": r.log_eig_bc.tolist(),
        "diag_logs": r.diag_logs.tolist(),
    }
