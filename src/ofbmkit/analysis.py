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
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadProbability,
    DataError,
    EmptySample,
    NonFiniteData,
    NonPositiveDiagonal,
    RankDeficientSpectrum,
    SampleTooSmall,
    SeriesTooShort,
    ShapeMismatch,
    SingularCovariance,
    WindowTooSmall,
)
from .estimation import (
    DEFAULT_BALANCE,
    ESTIMATORS,
    EstimateRecord,
    RegressionWeights,
    ScalingRangeConfig,
    _check_octaves,
    _numerical_rank,
    analyze,
    regression_weights,
    scaling_range,
    sorted_eigenvalues,
)
from .model import ModelParams
from .synthesis import CirculantEmbedding, _check_length, _check_seeds
from .wavelet import (
    DEFAULT_FILTER, WaveletFilter, WaveletPyramid, as_components, check_finite, dwt, filter_bank,
    octave_counts,
)

@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: model, sample size, realization count, seeds.  Every
    check runs when the config is made, before any synthesis, which also sets the
    read-only ``counts`` (n_j1 .. n_j2), ``weights`` (of j1..j2) and their ``v_n``."""

    params: ModelParams
    n: int
    n_mc: int
    seed0: int
    range_cfg: ScalingRangeConfig = field(default_factory=ScalingRangeConfig)
    filter_name: str = DEFAULT_FILTER
    balance: str = DEFAULT_BALANCE
    j1: int | None = None  # explicit override of the derived range
    j2: int | None = None
    counts: tuple = field(init=False, repr=False, compare=False)
    weights: RegressionWeights = field(init=False, repr=False, compare=False)
    v_n: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_mc < 2:
            raise SampleTooSmall(f"need at least 2 realizations, got {self.n_mc}")
        # realization r = 1..n_mc uses seed0 + r: the base seed and every one drawn
        _check_seeds(self.seed0, self.n_mc + 1)
        j1, j2 = scaling_range(self.n, self.range_cfg, self.j1, self.j2)
        f = filter_bank(self.filter_name)
        _check_length(self.n)
        counts = octave_counts(self.n, f, j2, self.params.m)[j1 - 1 :]
        w = regression_weights(j1, j2, self.balance, counts)
        for name, value in (("counts", counts), ("weights", w), ("v_n", v_n_approx(w, counts))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results of the study ``config``."""

    config: McConfig
    estimates: dict  # code (U / M / BC) -> (n_mc, M)
    stats: dict  # code -> the statistics of _statistics, by name


def _check_finite(what: str, *arrays) -> None:
    """Raise NonFiniteData unless every value of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteData(f"{what} must be finite")


def performance_matrices(est: np.ndarray, h_true) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared-bias, covariance and MSE matrices of an (n_mc, M) estimate array.

    Population (1/n_mc) normalization, so mse = bias2 + cov holds exactly.
    Raises NonFiniteData for a NaN or infinite estimate or true value.
    """
    est = np.asarray(est, dtype=float)
    h = np.asarray(h_true, dtype=float)
    if est.ndim != 2 or h.ndim != 1 or est.shape[1] != h.size:
        raise ShapeMismatch(f"estimates {est.shape} incompatible with true vector {h.shape}")
    if est.shape[0] < 2:
        raise ShapeMismatch("need at least two realizations")
    _check_finite("estimates", est)
    _check_finite("true values", h)
    mean = est.mean(axis=0)
    db = mean - h
    bias2 = np.outer(db, db)
    centered = est - mean
    cov = centered.T @ centered / est.shape[0]
    dev = est - h
    mse = dev.T @ dev / est.shape[0]
    return bias2, cov, mse


def spectral_norm(mat: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, by the rule of sorted_eigenvalues."""
    return float(np.abs(sorted_eigenvalues(mat)).max())


def v_n_approx(w: RegressionWeights, counts) -> float:
    """First-order variance approximation (log2 e)^2 / 2 * sum_j w_j^2 / n_j."""
    counts = np.asarray(counts, dtype=float)
    if counts.size != w.w.size:
        raise ShapeMismatch("counts do not align with the weights")
    if not (np.isfinite(counts) & (counts > 0)).all():
        raise ShapeMismatch("counts must be positive")
    return float(0.5 * math.log2(math.e) ** 2 * np.sum(w.w**2 / counts))


def _checked_in_band(est: np.ndarray) -> np.ndarray:
    """(n_mc, M) estimates with each component whose largest |value| lies outside
    [2^-200, 2^200] scaled into it by a power of two, which is exact; inside it
    nothing moves.  Covariances of the scaled values neither overflow nor
    underflow.  Raises NonFiniteData for a NaN or infinite estimate, and
    SingularCovariance naming the first component whose values are all equal."""
    _check_finite("estimates", est)
    constant = est.max(axis=0) == est.min(axis=0)
    if constant.any():
        raise SingularCovariance(f"estimate component {int(np.argmax(constant))} is constant")
    top = np.abs(est).max(axis=0)
    e = np.frexp(top)[1]
    return np.ldexp(est, np.where((top < 2.0**-200) | (top > 2.0**200), -e, 0))


def mahalanobis_samples(est: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of each row from the sample mean, the same whatever
    the units of each component.  Raises NonFiniteData for a NaN or infinite estimate, and
    SingularCovariance for a constant component or a correlation of numerical rank below M."""
    est = np.asarray(est, dtype=float)
    if est.ndim != 2 or est.shape[0] <= est.shape[1]:
        raise SingularCovariance(f"need more realizations than components, got shape {est.shape}")
    est = _checked_in_band(est)
    centered = est - est.mean(axis=0)
    cov = np.atleast_2d(np.cov(est, rowvar=False, ddof=1))
    sd = np.sqrt(cov.diagonal())
    # a correlation matrix, unlike a covariance, keeps its rank whatever the units
    rank = int(_numerical_rank(np.linalg.eigvalsh(cov / np.outer(sd, sd))))
    if rank < est.shape[1]:
        raise SingularCovariance(f"estimate covariance has numerical rank {rank} < M = {est.shape[1]}")
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
    # a tie group of `size` values ending at rank c spans c - size + 1 .. c
    _, group, size = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(size) - 0.5 * (size - 1))[group]


def wilcoxon_ranksum(x, y) -> float:
    """Two-sided rank-sum p-value.

    Exact (conditional on observed midranks) when both samples have at most 8
    points; otherwise a normal approximation with tie and continuity
    corrections.  Raises NonFiniteData for a NaN or infinite sample.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise EmptySample("both samples must be nonempty")
    _check_finite("rank-sum samples", x, y)
    n1, n2 = x.size, y.size
    n = n1 + n2
    ranks = _midranks(np.concatenate([x, y]))
    w_obs = ranks[:n1].sum()
    mu = n1 * (n + 1) / 2.0

    if n1 <= 8 and n2 <= 8:
        dev = abs(w_obs - mu)
        # the rank sum of every n1-subset of the pooled sample
        sums = ranks[np.array(list(combinations(range(n), n1)))].sum(axis=1)
        return float(np.mean(np.abs(sums - mu) >= dev - 1e-9))

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


def bh_reject(pvals, alpha: float) -> dict:
    """Benjamini-Hochberg step-up rule at false-discovery rate alpha, as the record
    groups.json prints: ascending p-values, their original indices, the thresholds
    k * alpha / K and the rejected flags, a prefix of the sorted order."""
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
    return {"pvalues": sp.tolist(), "original_indices": order.tolist(),
            "bh_thresholds": thresholds.tolist(), "rejected": (k <= cut).tolist()}


def estimate_correlation(est: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the estimate components, the same whatever
    the units of each component.  Raises NonFiniteData for a NaN or infinite
    estimate and SingularCovariance for a constant component."""
    est = np.asarray(est, dtype=float)
    if est.ndim != 2 or est.shape[0] < 3:
        raise ShapeMismatch("need an (n_mc >= 3, M) estimate array")
    est = _checked_in_band(est)
    return np.corrcoef(est, rowvar=False).reshape(est.shape[1], est.shape[1])


@lru_cache(maxsize=1)
def _embedding(params: ModelParams, n: int) -> CirculantEmbedding:
    """The embedding of the last study, keyed by the params object's identity;
    its draws reuse their work buffers, one pair per draw that ran at once."""
    emb = CirculantEmbedding(params, n)
    emb._spare = []
    return emb


def _statistics(est: np.ndarray, cfg: McConfig) -> dict:
    """One estimator's statistics from its (n_mc, M) estimates in the study ``cfg``, in
    report order; corr is all NaN below 3 realizations and mahalanobis at n_mc <= M (undefined)."""
    n_mc, m = est.shape
    stats = dict(zip(("bias2", "cov", "mse"), performance_matrices(est, cfg.params.hurst)))
    stats["spectral_norms"] = {name: spectral_norm(mat) for name, mat in stats.items()}
    stats["corr"] = estimate_correlation(est) if n_mc >= 3 else np.full((m, m), np.nan)
    stats["mahalanobis"] = mahalanobis_samples(est) if n_mc > m else np.full(n_mc, np.nan)
    stats["rel_var_diff"] = (est.var(axis=0, ddof=1) - cfg.v_n) / cfg.v_n
    return stats


def run_mc(cfg: McConfig, threads: int = 1) -> McReport:
    """Synthesize-analyze-aggregate loop; deterministic given the config.

    Stacks each estimator's estimates and builds its statistics once.  The next
    study of the same params object at the same n reuses this one's
    embedding, which holds M^2 * (size/2 + 1) doubles, and the draws' work
    buffers of 2 M (size + 2) doubles per thread, until another replaces it.
    Raises ShapeMismatch for ``threads`` below 1, before any embedding is built.
    """
    if threads < 1:
        raise ShapeMismatch(f"threads must be at least 1, got {threads}")
    f = filter_bank(cfg.filter_name)
    emb = _embedding(cfg.params, cfg.n)

    def one(r: int) -> EstimateRecord:
        try:
            path = emb.sample(cfg.seed0 + r, kind="mfBm")
            return analyze(path.data, cfg.weights.j1, cfg.weights.j2, f=f, balance=cfg.balance)
        except DataError as exc:
            raise type(exc)(f"realization {r}: {exc}") from exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        records = list(pool.map(one, range(1, cfg.n_mc + 1)))

    est = {code: np.stack([getattr(r, name) for r in records]) for code, name in ESTIMATORS.items()}
    return McReport(cfg, est, {code: _statistics(a, cfg) for code, a in est.items()})


def _json(value):
    """An array as a list, or None (JSON null) where it is undefined (all NaN); else the value."""
    if not isinstance(value, np.ndarray):
        return value
    return None if np.isnan(value).all() else value.tolist()


def report_to_dict(rep: McReport) -> dict:
    """mc_report.json: the study's size, seeds, octave range, true H, weights, counts
    and V_N, then per code its estimates and statistics."""
    cfg, w = rep.config, rep.config.weights
    out = {"n": cfg.n, "n_mc": cfg.n_mc, "seed0": cfg.seed0, "j1": w.j1, "j2": w.j2,
           "h_true": cfg.params.hurst.tolist(), "weights": w.w.tolist(), "counts": cfg.counts,
           "v_n": cfg.v_n}
    out["estimators"] = {
        code: {k: _json(v) for k, v in [("estimates", rep.estimates[code]), *rep.stats[code].items()]}
        for code in ESTIMATORS
    }
    return out


def report_to_json(rep: McReport) -> str:
    return json.dumps(report_to_dict(rep), indent=2, allow_nan=False)


def _window_starts(n: int, window: int, hop: int) -> range:
    """Starts of the windows of an n-sample series, one every ``hop`` samples.

    Raises WindowTooSmall unless 1 <= hop <= window, and SeriesTooShort when
    the series is shorter than one window.
    """
    if not 1 <= hop <= window:
        raise WindowTooSmall(f"need window >= hop >= 1, got ({window}, {hop})")
    if n < window:
        raise SeriesTooShort(f"series of {n} samples is shorter than one window of {window}")
    return range(0, n - window + 1, hop)


def sliding_window_estimates(
    x: np.ndarray,
    window: int,
    hop: int,
    j1: int,
    j2: int,
    f: WaveletFilter | None = None,
    balance: str = DEFAULT_BALANCE,
) -> list[EstimateRecord]:
    """Per-window estimates over a long M x N series (a 1-d one is M = 1);
    timestamps are window starts.

    Windows whose starts agree mod 2^j2 share one wavelet pyramid: at every
    octave j <= j2 their coefficients are slices of it.  They are estimated
    in blocks, sized from M, the window and the octave range, so working
    memory grows neither with the number of windows nor with the hop.  Each
    block is one :func:`analyze` call, and every record equals it on its
    window alone, bit for bit.  Raises ShapeMismatch for more than two
    dimensions, the errors of :func:`_window_starts` (a hop outside
    1..window, a series shorter than one window), DegenerateRange unless
    1 <= j1 < j2, and the errors of :func:`~ofbmkit.wavelet.octave_counts`
    when a window cannot reach j2 with n_j2 >= M.  A NonFiniteData, NonPositiveDiagonal
    or RankDeficientSpectrum of one window is raised again prefixed by ``window at samples a..b: ``.
    """
    x = as_components(x)
    starts = _window_starts(x.shape[1], window, hop)
    _check_octaves(j1, j2)
    if f is None:
        f = filter_bank()
    m = x.shape[0]
    counts = octave_counts(window, f, j2, m)
    check_finite(x)
    # windows i and i + phases are the nearest pair whose starts agree mod 2^j2
    phases = 2**j2 // math.gcd(hop, 2**j2)
    per_block = _block_windows(m, window, j1, j2)
    out = [None] * len(starts)
    for first in range(min(phases, len(starts))):
        same_phase = range(first, len(starts), phases)
        for b in range(0, len(same_phase), per_block):
            idx = same_phase[b : b + per_block]
            pyr = _window_pyramid(x, [starts[i] for i in idx], window, hop * phases, j2, f, counts)
            try:
                s = analyze(pyr, j1, j2, balance=balance)
            except (NonFiniteData, NonPositiveDiagonal, RankDeficientSpectrum) as exc:
                t = starts[idx[exc.window[0]]]
                raise type(exc)(f"window at samples {t}..{t + window - 1}: {exc}") from exc
            block = {k.name: getattr(s, k.name) for k in fields(s)}
            # every array of the block's record has its windows in front
            stacked = [name for name, a in block.items() if isinstance(a, np.ndarray)]
            for i, *row in zip(idx, *(block[name] for name in stacked)):
                out[i] = EstimateRecord(**(block | dict(zip(stacked, row)) | {"t_start": starts[i]}))
    return out


# float64 values a block of windows may hold in samples and spectra
_BLOCK_VALUES = 2**21


def _block_windows(m: int, window: int, j1: int, j2: int) -> int:
    """Windows per block: about _BLOCK_VALUES values of samples and spectra."""
    matrices = (j2 - j1 + 1) + 2 ** (j2 - j1 + 1) - 2  # full-sample j1..j2 + windowed j1..j2-1
    return max(1, _BLOCK_VALUES // (m * window + matrices * m * m))


def _window_pyramid(x, starts, window: int, spacing: int, j2: int, f, counts) -> WaveletPyramid:
    """(T, M, n_j) stacks of windows whose starts lie ``spacing`` apart, a multiple of 2^j2.

    The windows' samples are laid end to end ``step`` apart, where step is
    the spacing capped at the window length rounded up to a multiple of
    2^j2.  Windows that overlap or abut (step == spacing) already lie so in
    x, and their span is a slice of it, not a copy; between distant ones
    the gap is cut out by a concatenation.  One dwt of that span holds window
    i's octave-j coefficients at offset i * step >> j, from the same dot
    products as a dwt of the window alone.  The span has at most T window
    lengths, rounded up, of samples.
    """
    step = min(spacing, -(-window >> j2) << j2)
    if step == spacing:
        span = x[:, starts[0] : starts[-1] + window]
    else:
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
