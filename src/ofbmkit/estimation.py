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
        if b.size != j.size or np.any(b <= 0):
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
    """Ascending real eigenvalues of a symmetric matrix, or of each in a (..., M, M) stack.

    A stack that is not exactly symmetric must be symmetric within 1e-8 of
    each matrix's largest entry (else NotSymmetric); its symmetric part is
    decomposed, which for an exactly symmetric one is the stack itself.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {s.shape}")
    st = s.swapaxes(-1, -2)
    if not np.array_equal(s, st):
        scale = np.abs(s).max(axis=(-2, -1))
        if (np.abs(s - st).max(axis=(-2, -1)) > 1e-8 * scale).any():
            raise NotSymmetric("matrix is asymmetric beyond tolerance")
        s = 0.5 * (s + st)
    return np.linalg.eigvalsh(s)


def _ranks(lam: np.ndarray) -> np.ndarray:
    """Numerical ranks of spectra from their ascending eigenvalues (..., M): the
    count above M * eps * the largest.  A singular spectrum's eigenvalues are
    rounding noise of either sign, so the rule holds whatever the noise's sign."""
    return (lam > lam.shape[-1] * np.finfo(float).eps * lam[..., -1:]).sum(axis=-1)


def _rank_deficient(spectrum: str, rank, m: int) -> RankDeficientSpectrum:
    return RankDeficientSpectrum(
        f"{spectrum} has numerical rank {rank} < M = {m}: "
        "the channels are linearly dependent; drop a channel or undo the common reference"
    )


def _check_rank(lam: np.ndarray, j1: int) -> None:
    """Raise RankDeficientSpectrum at the first octave whose spectrum, in any
    window, has numerical rank below M; ``lam`` is (octaves, ..., M) from octave j1."""
    m = lam.shape[-1]
    rank = _ranks(lam).reshape(len(lam), -1).min(axis=1)
    if (rank < m).any():
        row = int(np.argmax(rank < m))
        raise _rank_deficient(f"the wavelet spectrum at octave {j1 + row}", rank[row], m)


def averaged_log_eigenvalues(windows: np.ndarray) -> np.ndarray:
    """Mean over windows of sorted log2 eigenvalues; windows is (..., T, M, M).
    Raises RankDeficientSpectrum when a window's numerical rank is below M."""
    lam = np.linalg.eigvalsh(windows)
    rank = _ranks(lam).min()
    if rank < lam.shape[-1]:
        raise _rank_deficient("a windowed wavelet spectrum", rank, lam.shape[-1])
    # C order, so that the mean adds the windows in the same order whatever
    # the layout of a stack of windows
    return np.log2(lam, order="C").mean(axis=-2)


@dataclass(frozen=True)
class EstimateRecord:
    """All three estimates plus the log-eigenvalue tables behind them."""

    h_u: np.ndarray
    h_m: np.ndarray
    h_m_bc: np.ndarray
    j1: int
    j2: int
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

    Raises DegenerateRange unless 1 <= j1 < j2, and ScaleUnavailable when a
    pyramid stops short of j2.
    """
    _check_octaves(j1, j2)
    pyr = x if isinstance(x, WaveletPyramid) else dwt(np.asarray(x, dtype=float), j2, f)
    counts = [pyr.details(j).shape[-1] for j in range(j1, j2 + 1)]
    w = regression_weights(j1, j2, balance=balance, counts=counts)
    h_u, h_m, h_m_bc, log_eig, log_eig_bc, diag_logs = _estimates(pyr, w)
    return EstimateRecord(h_u, h_m, h_m_bc, j1, j2, w, log_eig, log_eig_bc, diag_logs, t_start)


def estimate_windows(pyr: WaveletPyramid, w: RegressionWeights, t_starts) -> list[EstimateRecord]:
    """All three estimates for each of T windows in one batched pass.

    ``pyr`` holds the windows' coefficients as (T, M, n_j) stacks (views are
    fine).  Every window gets the same numbers, bit for bit, as
    :func:`analyze` on that window alone: each spectrum entry is one dot
    product of two coefficient rows and each eigendecomposition its own
    LAPACK call.  Record i holds row i of each stacked table and estimate.
    """
    rows = zip(*_estimates(pyr, w), t_starts)
    return [
        EstimateRecord(h_u, h_m, h_m_bc, w.j1, w.j2, w, log_eig, log_eig_bc, diag_logs, t_start)
        for h_u, h_m, h_m_bc, log_eig, log_eig_bc, diag_logs, t_start in rows
    ]


def _estimates(pyr: WaveletPyramid, w: RegressionWeights) -> tuple:
    """(h_u, h_m, h_m_bc, log_eig, log_eig_bc, diag_logs) of a pyramid, keeping
    its leading window axes."""
    # finite samples can still overflow in the coefficients' products
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = spectrum_set(pyr, w.j1, w.j2)  # (octaves, ..., M, M)
    finite = np.isfinite(spectra).reshape(len(spectra), -1).all(axis=1)
    if not finite.all():
        j = w.j1 + int(np.argmin(finite))
        raise NonFiniteData(f"the wavelet spectrum at octave {j} overflows double precision")
    diags = spectra.diagonal(axis1=-2, axis2=-1)
    if (diags <= 0.0).any():
        raise NonPositiveDiagonal("spectrum diagonal entries must be positive")

    # windows first: a window n_j2 below M raises WindowTooSmall there, and
    # would make the full-sample spectrum at j2 singular too
    windows = [windowed_spectra(pyr, j, w.j2) for j in range(w.j1, w.j2)]
    lam = sorted_eigenvalues(spectra)
    _check_rank(lam, w.j1)

    # octaves next to the components, (..., octaves, M), in C order, so that
    # the regression sees the layout of a stack of per-octave rows
    log_diag = np.log2(np.moveaxis(diags, 0, -2), order="C")
    log_eig = np.log2(np.moveaxis(lam, 0, -2), order="C")
    # the one window at j2 is the whole octave: its spectrum is S(2^j2) bit
    # for bit, and the mean of its log-eigenvalues is log_eig's last row
    log_eig_bc = np.stack(
        [averaged_log_eigenvalues(s) for s in windows] + [log_eig[..., -1, :]], axis=-2
    )
    return (
        0.5 * (w.w @ log_diag - 1.0),
        0.5 * (w.w @ log_eig - 1.0),
        0.5 * (w.w @ log_eig_bc - 1.0),
        log_eig,
        log_eig_bc,
        log_diag,
    )


def record_to_dict(r: EstimateRecord) -> dict:
    return {
        "H_U": r.h_u.tolist(),
        "H_M": r.h_m.tolist(),
        "H_M_bc": r.h_m_bc.tolist(),
        "j1": r.j1,
        "j2": r.j2,
        "weights": r.weights.w.tolist(),
        "log_eig": r.log_eig.tolist(),
        "log_eig_bc": r.log_eig_bc.tolist(),
        "diag_logs": r.diag_logs.tolist(),
    }
