"""Monte Carlo benchmarking and statistical diagnostics for the estimators.

The harness synthesizes independent realizations (realization r uses seed
seed0 + r, so reports are identical however the work is scheduled), runs the
three estimators on each, and aggregates squared-bias / covariance / MSE
matrices, their spectral norms, the estimate correlation structure, squared
Mahalanobis distances for normality checks, and the closed-form variance
approximation V_N = (log2 e)^2 / 2 * sum_j w_j^2 / n_j.

Also here: chi-square quantiles (the inverse regularized incomplete gamma of
scipy.special), a two-sided Wilcoxon rank-sum test (exact for tiny samples), the
Benjamini-Hochberg step-up rule, and a sliding-window estimation pipeline.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadProbability,
    DataError,
    EmptySample,
    NotSymmetric,
    SampleTooSmall,
    ShapeMismatch,
    SingularCovariance,
    WindowTooSmall,
    ZeroVariance,
)
from .estimation import (
    EstimateRecord,
    RegressionWeights,
    ScalingRangeConfig,
    _check_octaves,
    analyze,
    estimate_windows,
    octave_range,
    regression_weights,
)
from .model import ModelParams
from .synthesis import CirculantEmbedding, _check_seeds
from .wavelet import WaveletFilter, WaveletPyramid, check_finite, dwt, filter_bank, pyramid_counts

ESTIMATORS = ("U", "M", "BC")


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: model, sample size, realization count, seeds."""

    params: ModelParams
    n: int
    n_mc: int
    seed0: int
    range_cfg: ScalingRangeConfig = field(default_factory=ScalingRangeConfig)
    filter_name: str = "db2"
    balance: str = "by_count"
    j1: int | None = None  # explicit override of the derived range
    j2: int | None = None

    def __post_init__(self):
        if self.n_mc < 2:
            raise SampleTooSmall(f"need at least 2 realizations, got {self.n_mc}")
        _check_seeds(self.seed0, self.n_mc)  # realization r uses seed0 + r
        octave_range(self.n, self.range_cfg, self.j1, self.j2)  # fails before any synthesis


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results, keyed by estimator code U / M / BC."""

    config_n: int
    n_mc: int
    seed0: int
    j1: int
    j2: int
    h_true: np.ndarray
    weights: np.ndarray
    counts: tuple
    estimates: dict  # code -> (n_mc, M)
    bias2: dict  # code -> (M, M)
    cov: dict
    mse: dict
    spectral_norms: dict  # code -> {"bias2": .., "cov": .., "mse": ..}
    corr: dict  # code -> (M, M)
    mahalanobis: dict  # code -> (n_mc,)
    v_n: float
    rel_var_diff: dict  # code -> (M,)


def performance_matrices(est: np.ndarray, h_true) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared-bias, covariance and MSE matrices of an (n_mc, M) estimate array.

    Population (1/n_mc) normalization, so mse = bias2 + cov holds exactly.
    """
    est = np.asarray(est, dtype=float)
    h = np.asarray(h_true, dtype=float)
    if est.ndim != 2 or h.ndim != 1 or est.shape[1] != h.size:
        raise ShapeMismatch(
            f"estimates {est.shape} incompatible with true vector {h.shape}"
        )
    if est.shape[0] < 2:
        raise ShapeMismatch("need at least two realizations")
    mean = est.mean(axis=0)
    db = mean - h
    bias2 = np.outer(db, db)
    centered = est - mean
    cov = centered.T @ centered / est.shape[0]
    dev = est - h
    mse = dev.T @ dev / est.shape[0]
    return bias2, cov, mse


def spectral_norm(mat: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    scale = np.abs(mat).max()
    if scale > 0 and np.abs(mat - mat.T).max() > 1e-8 * scale:
        raise NotSymmetric("matrix is asymmetric beyond tolerance")
    if scale == 0.0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(0.5 * (mat + mat.T))).max())


def v_n_approx(w: RegressionWeights, counts) -> float:
    """First-order variance approximation (log2 e)^2 / 2 * sum_j w_j^2 / n_j."""
    counts = np.asarray(counts, dtype=float)
    if counts.size != w.w.size:
        raise ShapeMismatch("counts do not align with the weights")
    if np.any(counts <= 0):
        raise ShapeMismatch("counts must be positive")
    return float(0.5 * math.log2(math.e) ** 2 * np.sum(w.w**2 / counts))


def mahalanobis_samples(est: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of each row from the sample mean."""
    est = np.asarray(est, dtype=float)
    if est.ndim != 2 or est.shape[0] <= est.shape[1]:
        raise SingularCovariance(
            f"need more realizations than components, got shape {est.shape}"
        )
    centered = est - est.mean(axis=0)
    cov = np.cov(est, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    try:
        sol = np.linalg.solve(cov, centered.T)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"estimate covariance is singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularCovariance("estimate covariance is numerically singular")
    return np.einsum("rm,mr->r", centered, sol)


def chi2_quantiles(dof: int, probs) -> np.ndarray:
    """Inverse chi-square CDF, 2 * gammaincinv(dof / 2, p), at each probability."""
    # scipy.special is imported where it is called, so that the commands
    # that never call it start without loading it
    from scipy.special import gammaincinv

    if dof < 1:
        raise BadProbability(f"degrees of freedom must be >= 1, got {dof}")
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any((probs <= 0.0) | (probs >= 1.0)) or not np.all(np.isfinite(probs)):
        raise BadProbability("probabilities must lie strictly inside (0, 1)")
    return 2.0 * gammaincinv(dof / 2.0, probs)


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``, ties sharing the mean of the ranks they span."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # start of each tie group
    ends = np.r_[first[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (first + ends + 1), ends - first)
    return ranks


def wilcoxon_ranksum(x, y) -> float:
    """Two-sided rank-sum p-value.

    Exact (conditional on observed midranks) when both samples have at most 8
    points; otherwise a normal approximation with tie and continuity
    corrections.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise EmptySample("both samples must be nonempty")
    n1, n2 = x.size, y.size
    n = n1 + n2
    ranks = _midranks(np.concatenate([x, y]))
    w_obs = ranks[:n1].sum()
    mu = n1 * (n + 1) / 2.0

    if n1 <= 8 and n2 <= 8:
        dev = abs(w_obs - mu)
        hits = 0
        total = 0
        for idx in combinations(range(n), n1):
            total += 1
            if abs(ranks[list(idx)].sum() - mu) >= dev - 1e-9:
                hits += 1
        return hits / total

    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = ((tie_counts**3 - tie_counts).sum()) / ((n) * (n - 1.0))
    var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term)
    if var <= 0.0:
        return 1.0
    diff = w_obs - mu
    # continuity correction shrinks the deviation toward the null center
    adj = max(abs(diff) - 0.5, 0.0)
    # erfc keeps its relative accuracy in the far tail, where 1 - ndtr(z) cancels
    return min(1.0, math.erfc(adj / math.sqrt(2.0 * var)))


@dataclass(frozen=True)
class GroupTestReport:
    """Step-up multiple-testing outcome over sorted p-values."""

    pvalues: np.ndarray  # ascending
    original_indices: np.ndarray
    bh_thresholds: np.ndarray  # k * alpha / K
    rejected: np.ndarray  # aligned with the sorted order; a prefix

    def to_dict(self) -> dict:
        return {
            "pvalues": self.pvalues.tolist(),
            "original_indices": self.original_indices.tolist(),
            "bh_thresholds": self.bh_thresholds.tolist(),
            "rejected": [bool(b) for b in self.rejected],
        }


def bh_reject(pvals, alpha: float) -> GroupTestReport:
    """Benjamini-Hochberg step-up rule at false-discovery rate alpha."""
    p = np.asarray(pvals, dtype=float).ravel()
    if p.size == 0:
        raise EmptySample("no p-values supplied")
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise BadProbability("p-values must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise BadProbability(f"alpha must be in (0, 1), got {alpha}")
    order = np.argsort(p, kind="stable")
    sp = p[order]
    k = np.arange(1, p.size + 1)
    thresholds = k * alpha / p.size
    passing = np.nonzero(sp <= thresholds)[0]
    cut = passing[-1] + 1 if passing.size else 0
    rejected = k <= cut
    return GroupTestReport(
        pvalues=sp, original_indices=order, bh_thresholds=thresholds, rejected=rejected
    )


def estimate_correlation(est: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the estimate components."""
    est = np.asarray(est, dtype=float)
    if est.ndim != 2 or est.shape[0] < 3:
        raise ShapeMismatch("need an (n_mc >= 3, M) estimate array")
    if np.any(est.std(axis=0) == 0.0):
        raise ZeroVariance("an estimate component has zero variance")
    return np.corrcoef(est, rowvar=False).reshape(est.shape[1], est.shape[1])


@lru_cache(maxsize=1)
def _embedding(params: ModelParams, n: int) -> CirculantEmbedding:
    """The embedding of the last study, keyed by the params object's identity."""
    return CirculantEmbedding(params, n)


def run_mc(cfg: McConfig, threads: int = 1) -> McReport:
    """Synthesize-analyze-aggregate loop; deterministic given the config.

    The next study of the same params object at the same n reuses this one's
    embedding, which holds M^2 * (size/2 + 1) doubles until another replaces it.
    """
    j1, j2 = octave_range(cfg.n, cfg.range_cfg, cfg.j1, cfg.j2)
    f = filter_bank(cfg.filter_name)
    emb = _embedding(cfg.params, cfg.n)
    m = cfg.params.m

    def one(r: int) -> EstimateRecord:
        try:
            path = emb.sample(cfg.seed0 + r, kind="mfBm")
            return analyze(path.data, j1, j2, f=f, balance=cfg.balance)
        except DataError as exc:
            raise type(exc)(f"realization {r}: {exc}") from exc

    indices = range(1, cfg.n_mc + 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, indices))
    else:
        records = [one(r) for r in indices]

    est = {
        "U": np.stack([rec.h_u for rec in records]),
        "M": np.stack([rec.h_m for rec in records]),
        "BC": np.stack([rec.h_m_bc for rec in records]),
    }
    h_true = cfg.params.hurst
    counts = pyramid_counts(cfg.n, f.length, j2)[j1 - 1 : j2]
    weights = records[0].weights
    vn = v_n_approx(weights, counts)

    bias2, cov, mse, norms, corr, mahal, relvar = {}, {}, {}, {}, {}, {}, {}
    for code in ESTIMATORS:
        b2, cv, ms = performance_matrices(est[code], h_true)
        bias2[code], cov[code], mse[code] = b2, cv, ms
        norms[code] = {
            "bias2": spectral_norm(b2),
            "cov": spectral_norm(cv),
            "mse": spectral_norm(ms),
        }
        corr[code] = (
            estimate_correlation(est[code])
            if cfg.n_mc >= 3
            else np.full((m, m), np.nan)
        )
        mahal[code] = (
            mahalanobis_samples(est[code]) if cfg.n_mc > m else np.full(cfg.n_mc, np.nan)
        )
        var = est[code].var(axis=0, ddof=1)
        relvar[code] = (var - vn) / vn

    return McReport(
        config_n=cfg.n,
        n_mc=cfg.n_mc,
        seed0=cfg.seed0,
        j1=j1,
        j2=j2,
        h_true=h_true,
        weights=weights.w,
        counts=counts,
        estimates=est,
        bias2=bias2,
        cov=cov,
        mse=mse,
        spectral_norms=norms,
        corr=corr,
        mahalanobis=mahal,
        v_n=vn,
        rel_var_diff=relvar,
    )


def _defined(stat: np.ndarray):
    """The statistic as a list, or None (JSON null) where undefined (all NaN)."""
    return None if np.isnan(stat).all() else stat.tolist()


def report_to_dict(rep: McReport) -> dict:
    return {
        "n": rep.config_n,
        "n_mc": rep.n_mc,
        "seed0": rep.seed0,
        "j1": rep.j1,
        "j2": rep.j2,
        "h_true": rep.h_true.tolist(),
        "weights": rep.weights.tolist(),
        "counts": list(rep.counts),
        "v_n": rep.v_n,
        "estimators": {
            code: {
                "estimates": rep.estimates[code].tolist(),
                "bias2": rep.bias2[code].tolist(),
                "cov": rep.cov[code].tolist(),
                "mse": rep.mse[code].tolist(),
                "spectral_norms": rep.spectral_norms[code],
                "corr": _defined(rep.corr[code]),
                "mahalanobis": _defined(rep.mahalanobis[code]),
                "rel_var_diff": rep.rel_var_diff[code].tolist(),
            }
            for code in ESTIMATORS
        },
    }


def report_to_json(rep: McReport) -> str:
    return json.dumps(report_to_dict(rep), indent=2, allow_nan=False)


def qq_pairs(samples: np.ndarray, dof: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probs, chi-square quantiles, empirical quantiles) for QQ plotting."""
    s = np.sort(np.asarray(samples, dtype=float))
    nprobs = s.size
    probs = (np.arange(1, nprobs + 1) - 0.5) / nprobs
    return probs, chi2_quantiles(dof, probs), s


def _check_hop(window: int, hop: int) -> None:
    """Raise WindowTooSmall unless 1 <= hop <= window."""
    if not 1 <= hop <= window:
        raise WindowTooSmall(f"need window >= hop >= 1, got ({window}, {hop})")


def sliding_window_estimates(
    x: np.ndarray,
    window: int,
    hop: int,
    j1: int,
    j2: int,
    f: WaveletFilter | None = None,
    balance: str = "by_count",
) -> list[EstimateRecord]:
    """Per-window estimates over a long series; timestamps are window starts.

    Windows whose starts agree mod 2^j2 share one wavelet pyramid: at every
    octave j <= j2 their coefficients are slices of it.  They are estimated
    in blocks, sized from M, the window and the octave range, so working
    memory grows neither with the number of windows nor with the hop.  Every
    record equals :func:`analyze` on its window bit for bit.  Returns an
    empty list when the series is shorter than one window.  Raises
    WindowTooSmall unless 1 <= hop <= window and DegenerateRange unless
    1 <= j1 < j2.
    """
    x = np.asarray(x, dtype=float)
    _check_hop(window, hop)
    _check_octaves(j1, j2)
    if f is None:
        f = filter_bank()
    m, n = x.shape
    counts = pyramid_counts(window, f.length, j2)
    if len(counts) < j2 or counts[-1] < m:
        raise WindowTooSmall(
            f"window of {window} samples cannot support octave {j2} with M = {m}"
        )
    check_finite(x)
    octave_counts = [counts[j - 1] for j in range(j1, j2 + 1)]
    w = regression_weights(j1, j2, balance=balance, counts=octave_counts)
    starts = range(0, n - window + 1, hop)
    # windows i and i + phases are the nearest pair whose starts agree mod 2^j2
    phases = 2**j2 // math.gcd(hop, 2**j2)
    per_block = _block_windows(m, window, j1, j2)
    out = [None] * len(starts)
    for first in range(min(phases, len(starts))):
        same_phase = range(first, len(starts), phases)
        for b in range(0, len(same_phase), per_block):
            idx = same_phase[b : b + per_block]
            block = [starts[i] for i in idx]
            pyr = _window_pyramid(x, block, window, hop * phases, j2, f, counts)
            for i, rec in zip(idx, estimate_windows(pyr, w, block)):
                out[i] = rec
    return out


# float64 values a block of windows may hold in samples and spectra
_BLOCK_VALUES = 2**21


def _block_windows(m: int, window: int, j1: int, j2: int) -> int:
    """Windows per block: about _BLOCK_VALUES values of samples and spectra."""
    matrices = (j2 - j1 + 1) + 2 ** (j2 - j1 + 1) - 1  # full-sample + windowed
    return max(1, _BLOCK_VALUES // (m * window + matrices * m * m))


def _window_pyramid(x, starts, window: int, spacing: int, j2: int, f, counts) -> WaveletPyramid:
    """(T, M, n_j) stacks of windows whose starts lie ``spacing`` apart, a multiple of 2^j2.

    The windows' samples are laid end to end ``step`` apart, where step is
    the spacing capped at the window length rounded up to a multiple of
    2^j2: overlapping windows share their samples, and the gap between
    distant ones is cut out.  One dwt of that span holds window i's octave-j
    coefficients at offset i * step >> j, from the same dot products as a
    dwt of the window alone.  The span has at most T window lengths, rounded
    up, of samples.
    """
    step = min(spacing, -(-window >> j2) << j2)
    span = np.concatenate(
        [x[:, s : s + step] for s in starts[:-1]] + [x[:, starts[-1] : starts[-1] + window]],
        axis=1,
    )
    pyr = dwt(span, j2, f)
    t = len(starts)
    coeffs = tuple(
        sliding_window_view(pyr.details(j), counts[j - 1], axis=1)[:, :: step >> j][:, :t]
        .swapaxes(0, 1)
        for j in range(1, j2 + 1)
    )
    return WaveletPyramid(coeffs=coeffs)
