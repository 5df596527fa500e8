import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ofbmkit.analysis as analysis
import ofbmkit.synthesis as synthesis
from ofbmkit.analysis import (
    McConfig,
    bh_reject,
    chi2_quantiles,
    estimate_correlation,
    mahalanobis_samples,
    performance_matrices,
    report_to_json,
    run_mc,
    sliding_window_estimates,
    spectral_norm,
    v_n_approx,
    wilcoxon_ranksum,
)
from ofbmkit.errors import (
    BadProbability,
    DegenerateRange,
    EmbeddingFailed,
    EmptySample,
    NonFiniteData,
    NonPositiveDiagonal,
    NotSymmetric,
    RankDeficientSpectrum,
    SampleTooSmall,
    SeedOutOfRange,
    SeriesTooShort,
    ShapeMismatch,
    SingularCovariance,
    WindowTooSmall,
)
from ofbmkit.estimation import REFUSALS, analyze, regression_weights, sorted_eigenvalues
from ofbmkit.model import make_params
from ofbmkit.synthesis import CirculantEmbedding
from ofbmkit.wavelet import dwt, filter_bank, pyramid_counts, windowed_spectra


# ---------------------------------------------------------------------------
# performance matrices and spectral norm
# ---------------------------------------------------------------------------

def test_performance_matrices_zero_when_exact():
    h = np.array([0.4, 0.7])
    est = np.tile(h, (10, 1))
    b2, cov, mse = performance_matrices(est, h)
    for mat in (b2, cov, mse):
        np.testing.assert_allclose(mat, 0.0, atol=1e-15)


def test_performance_matrices_pure_offset():
    h = np.array([0.4, 0.7])
    est = np.tile(h + 0.1, (8, 1))
    b2, cov, mse = performance_matrices(est, h)
    np.testing.assert_allclose(cov, 0.0, atol=1e-15)
    np.testing.assert_allclose(b2, 0.01 * np.ones((2, 2)), atol=1e-12)


def test_mse_decomposition_identity():
    rng = np.random.default_rng(2)
    est = rng.normal(size=(500, 4)) * 0.03 + np.array([0.3, 0.4, 0.5, 0.6])
    h = np.array([0.35, 0.4, 0.55, 0.58])
    b2, cov, mse = performance_matrices(est, h)
    np.testing.assert_allclose(mse, b2 + cov, atol=1e-10)


def test_performance_matrices_refuse_mismatched_shapes_and_one_realization():
    with pytest.raises(ShapeMismatch, match="incompatible with true vector"):
        performance_matrices(np.zeros((5, 3)), [0.4, 0.7])
    with pytest.raises(ShapeMismatch, match="^need at least two realizations$"):
        performance_matrices(np.zeros((1, 2)), [0.4, 0.7])


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([0.1, -0.2])) == pytest.approx(0.2)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.ones((3, 3))) == pytest.approx(3.0)
    with pytest.raises(NotSymmetric):
        spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 6),
    shift=st.floats(0.0, 2.0),
    toward=st.sampled_from([-np.inf, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_is_the_largest_eigenvalue_of_the_symmetric_part(m, shift, toward, seed):
    # exactly symmetric matrices, indefinite ones too, give the bits of
    # eigvalsh(0.5 (s + s^T)), which is s itself
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m + 2)) * 10.0 ** rng.uniform(-3, 3)
    s = a @ a.T - shift * np.trace(a @ a.T) / m * np.eye(m)
    s = np.triu(s) + np.triu(s, 1).T
    assert np.array_equal(sorted_eigenvalues(s), np.linalg.eigvalsh(s))
    assert spectral_norm(s) == float(np.abs(np.linalg.eigvalsh(0.5 * (s + s.T))).max())
    if m == 1:
        return
    # one off-diagonal entry one ulp off its mirror: NotSymmetric from both
    i, k = rng.permutation(m)[:2]
    t = s.copy()
    t[i, k] = np.nextafter(t[i, k], toward)
    with pytest.raises(NotSymmetric):
        sorted_eigenvalues(t)
    with pytest.raises(NotSymmetric):
        spectral_norm(t)


def test_spectral_norm_rejects_a_non_square_matrix():
    with pytest.raises(ShapeMismatch):
        spectral_norm(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# V_N approximation
# ---------------------------------------------------------------------------

def test_v_n_reference_value():
    w = regression_weights(1, 3, "uniform")
    # ((log2 e)^2 / 2) * (0.25/2048 + 0.25/512), high-precision evaluation
    assert v_n_approx(w, [2048, 1024, 512]) == pytest.approx(6.351834048479028e-4, rel=1e-12)


def test_v_n_scales_inversely_with_counts():
    w = regression_weights(3, 6, "uniform")
    counts = np.array([800, 400, 200, 100])
    assert v_n_approx(w, 2 * counts) == pytest.approx(0.5 * v_n_approx(w, counts), rel=1e-12)


def test_v_n_dimension_checked():
    w = regression_weights(1, 3, "uniform")
    with pytest.raises(ShapeMismatch):
        v_n_approx(w, [100, 200])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_v_n_refuses_counts_that_are_not_finite_and_positive(bad):
    w = regression_weights(1, 3, "uniform")
    with pytest.raises(ShapeMismatch, match="^counts must be positive$"):
        v_n_approx(w, [bad, 2, 1])


def test_v_n_tracks_univariate_variance_nonmixing():
    p = make_params([0.6], [1.0])
    cfg = McConfig(params=p, n=2**13, n_mc=400, seed0=910, balance="uniform", j1=5, j2=8)
    rep = run_mc(cfg, threads=4)
    ratio = rep.estimates["U"].var(axis=0, ddof=1)[0] / cfg.v_n
    assert abs(ratio - 1.0) < 0.30


# ---------------------------------------------------------------------------
# Mahalanobis and chi-square
# ---------------------------------------------------------------------------

def test_mahalanobis_mean_row_zero():
    rng = np.random.default_rng(3)
    est = rng.normal(size=(40, 3))
    est[7] = est.mean(axis=0) * 40 / 39 - est[7] * 0  # overwrite, then recompute
    est[7] = (est.sum(axis=0) - est[7]) / 39  # row equal to mean of the others
    d = mahalanobis_samples(est)
    # the row closest to the center has a small distance; exact-zero case:
    est2 = np.vstack([est, est.mean(axis=0)])
    d2 = mahalanobis_samples(est2)
    assert d2[-1] < d2.max() * 0.2


def test_mahalanobis_exact_zero_at_mean():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(21, 2))
    est = np.vstack([base, 2 * base.mean(axis=0) - base[0]])  # force mean symmetry
    center = est.mean(axis=0)
    est = np.vstack([est, center])
    d = mahalanobis_samples(est)
    assert d[-1] == pytest.approx(0.0, abs=1e-18)


def test_mahalanobis_affine_invariance():
    rng = np.random.default_rng(5)
    est = rng.normal(size=(200, 3))
    a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    b = rng.normal(size=3)
    d1 = mahalanobis_samples(est)
    d2 = mahalanobis_samples(est @ a.T + b)
    np.testing.assert_allclose(d1, d2, atol=1e-8)


def qq_correlation(samples, dof):
    """Pearson correlation between empirical and theoretical QQ quantiles."""
    emp = np.sort(samples)
    probs = (np.arange(1, emp.size + 1) - 0.5) / emp.size
    return float(np.corrcoef(chi2_quantiles(dof, probs), emp)[0, 1])


def test_mahalanobis_chi2_qq():
    rng = np.random.default_rng(6)
    m = 3
    est = rng.normal(size=(5000, m))
    d = mahalanobis_samples(est)
    assert qq_correlation(d, m) >= 0.995


def test_mahalanobis_rejects_degenerate():
    rng = np.random.default_rng(7)
    est = rng.normal(size=(10, 2))
    with pytest.raises(SingularCovariance):
        mahalanobis_samples(est[:, :1] @ np.ones((1, 2)))
    with pytest.raises(SingularCovariance):
        mahalanobis_samples(est[:2])
    with pytest.raises(SingularCovariance, match="^estimate component 1 is constant$"):
        mahalanobis_samples(np.hstack([est[:, :1], np.ones((10, 1))]))
    # whether LU's last pivot of such a covariance rounds to exactly zero
    # depends on the sample; the rank rule of the wavelet spectra does not
    for seed in range(20):
        a = np.random.default_rng(seed).normal(size=(6, 1))
        for factor in (3.0, 0.3):
            with pytest.raises(SingularCovariance, match="numerical rank 1 < M = 2"):
                mahalanobis_samples(np.hstack([a, factor * a]))


def test_mahalanobis_rejects_a_numerically_singular_covariance(monkeypatch):
    # a full-rank covariance whose solve LAPACK completes with a non-finite
    # solution; no finite sample was found that makes it do so once each
    # component is scaled into range, so the solve is stood in for
    est = np.random.default_rng(0).normal(size=(6, 2))
    monkeypatch.setattr(np.linalg, "solve", lambda cov, b: np.full(b.shape, np.inf))
    with pytest.raises(SingularCovariance, match="^estimate covariance is numerically singular$"):
        mahalanobis_samples(est)


@pytest.mark.parametrize(
    "c", [1e155, 1e160, 1e-160, 1e-170, 2.0**600, 2.0**-600, np.array([1e-6, 1.0, 1e6])],
    ids=["1e155", "1e160", "1e-160", "1e-170", "2^600", "2^-600", "1e-6,1,1e6"],
)
def test_mahalanobis_and_correlation_do_not_depend_on_the_estimates_units(c):
    # each component whose largest |value| is outside [2^-200, 2^200] is moved
    # into it by a power of two, before the covariance can overflow or underflow;
    # components in units 1e12 apart have a covariance of rank M all the same
    est = np.random.default_rng(0).normal(size=(50, 3))
    d, corr = mahalanobis_samples(est * c), estimate_correlation(est * c)
    if (np.frexp(c)[0] == 0.5).all():  # a power of two scales exactly
        assert np.array_equal(d, mahalanobis_samples(est))
        assert np.array_equal(corr, estimate_correlation(est))
    np.testing.assert_allclose(d, mahalanobis_samples(est), rtol=1e-14)
    np.testing.assert_allclose(corr, estimate_correlation(est), rtol=1e-14, atol=1e-15)


def test_chi2_quantile_values():
    # chi2_2 median is 2 ln 2; chi2_6 95% quantile cross-checked with scipy
    assert chi2_quantiles(2, [0.5])[0] == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
    assert chi2_quantiles(6, [0.95])[0] == pytest.approx(12.591587243743977, abs=1e-8)


def test_chi2_dof1_matches_squared_normal_quantile():
    for p in (0.1, 0.5, 0.9, 0.99):
        z = stats.norm.ppf((1.0 + p) / 2.0)
        assert chi2_quantiles(1, [p])[0] == pytest.approx(z * z, abs=1e-9)


def test_chi2_quantiles_against_scipy_grid():
    probs = np.linspace(0.01, 0.99, 25)
    for dof in (1, 2, 4, 9, 30):
        mine = chi2_quantiles(dof, probs)
        ref = stats.chi2.ppf(probs, dof)
        np.testing.assert_allclose(mine, ref, atol=1e-8)
        assert np.all(np.diff(mine) > 0)


def test_chi2_quantiles_match_closed_forms_in_both_tails():
    # dof 1: ndtri((1 + p) / 2)^2, written as 2 erfinv(p)^2, which keeps its
    # digits at small p; dof 2: -2 ln(1 - p)
    from scipy.special import erfinv

    probs = np.concatenate([np.logspace(-6, -0.31, 40), 1.0 - np.logspace(-6, -0.31, 40)])
    np.testing.assert_allclose(chi2_quantiles(1, probs), 2.0 * erfinv(probs) ** 2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(chi2_quantiles(2, probs), -2.0 * np.log1p(-probs), rtol=1e-12, atol=0)


def test_chi2_quantiles_validate_probs():
    with pytest.raises(BadProbability):
        chi2_quantiles(2, [0.0])
    with pytest.raises(BadProbability):
        chi2_quantiles(2, [1.0])
    with pytest.raises(BadProbability):
        chi2_quantiles(0, [0.5])


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum
# ---------------------------------------------------------------------------

def test_wilcoxon_exact_separated_samples():
    assert wilcoxon_ranksum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)


def test_wilcoxon_identical_samples_with_ties():
    p = wilcoxon_ranksum([1.0, 2.0, 2.0, 3.0] * 4, [1.0, 2.0, 2.0, 3.0] * 4)
    assert p > 0.95


def test_wilcoxon_exact_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=rng.integers(3, 8))
        y = rng.normal(size=rng.integers(3, 8))
        ref = stats.mannwhitneyu(x, y, alternative="two-sided", method="exact").pvalue
        assert wilcoxon_ranksum(x, y) == pytest.approx(ref, abs=1e-12)


def test_wilcoxon_normal_approx_reasonable():
    rng = np.random.default_rng(9)
    x = rng.normal(size=40)
    y = rng.normal(size=35) + 1.2
    p = wilcoxon_ranksum(x, y)
    ref = stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic").pvalue
    assert p == pytest.approx(ref, rel=0.05, abs=1e-6)
    assert p < 0.001


@pytest.mark.parametrize("k", [20, 30, 60])
def test_wilcoxon_normal_branch_far_tail_matches_mpmath(k):
    # two fully separated groups of k: 2 (1 - ndtr(z)) was 2.8e-6 relative off
    # at k = 30 and 0.0 at k = 60, where the p-value is 3.56e-21
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        var = mpmath.mpf(k * k) * (2 * k + 1) / 12
        z = (mpmath.mpf(k * k) / 2 - mpmath.mpf(1) / 2) / mpmath.sqrt(var)
        ref = mpmath.erfc(z / mpmath.sqrt(2))
        for x, y in ((range(k), range(k, 2 * k)), (range(k, 2 * k), range(k))):
            p = wilcoxon_ranksum(list(x), list(y))
            assert abs(p - ref) <= 1e-13 * ref


def test_wilcoxon_null_pvalues_roughly_uniform():
    rng = np.random.default_rng(10)
    pvals = np.array(
        [wilcoxon_ranksum(rng.normal(size=30), rng.normal(size=30)) for _ in range(2000)]
    )
    d = stats.kstest(pvals, "uniform").statistic
    assert d < 0.06


def test_wilcoxon_midranks_match_scipy_rankdata(monkeypatch):
    rng = np.random.default_rng(11)
    cases = [
        (rng.integers(0, 3, size=n1).astype(float), rng.integers(0, 4, size=n2).astype(float))
        for n1, n2 in ((3, 5), (8, 8), (6, 9), (20, 30), (50, 41))
    ]
    cases.append(([1.0, 2.0, 2.0, 3.0] * 4, [1.0, 2.0, 2.0, 3.0] * 4))
    cases.append(([0.0] * 12, [0.0] * 9 + [1.0]))
    got = [wilcoxon_ranksum(x, y) for x, y in cases]
    monkeypatch.setattr(analysis, "_midranks", stats.rankdata)
    assert got == [wilcoxon_ranksum(x, y) for x, y in cases]


def _subset_count_pvalue(x, y) -> float:
    """The exact two-sided p-value, counting the rank sum of every n1-subset in turn."""
    n1, n = len(x), len(x) + len(y)
    ranks = analysis._midranks(np.concatenate([x, y]).astype(float))
    mu = n1 * (n + 1) / 2.0
    dev = abs(ranks[:n1].sum() - mu)
    hits = 0
    total = 0
    for idx in combinations(range(n), n1):
        total += 1
        if abs(ranks[list(idx)].sum() - mu) >= dev - 1e-9:
            hits += 1
    return hits / total


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    x=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    y=st.lists(st.integers(0, 9), min_size=1, max_size=8),
)
def test_wilcoxon_exact_branch_equals_the_subset_count(x, y):
    # integer samples, so ties occur; both groups of at most 8 take the exact branch
    assert wilcoxon_ranksum(x, y) == _subset_count_pvalue(x, y)


def test_wilcoxon_empty_rejected():
    with pytest.raises(EmptySample):
        wilcoxon_ranksum([], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wilcoxon_rejects_a_non_finite_sample(bad):
    # a NaN has no rank: it would sort last and give a p-value of no meaning
    with pytest.raises(NonFiniteData):
        wilcoxon_ranksum([1.0, 2.0, bad] * 4, [3.0, 4.0, 5.0] * 4)
    with pytest.raises(NonFiniteData):
        wilcoxon_ranksum([1.0, 2.0], [3.0, bad])


# ---------------------------------------------------------------------------
# Benjamini-Hochberg
# ---------------------------------------------------------------------------

def test_bh_step_up_example():
    rep = bh_reject([0.01, 0.02, 0.2], 0.05)
    np.testing.assert_allclose(rep["bh_thresholds"], [0.05 / 3, 0.10 / 3, 0.05])
    assert rep["rejected"] == [True, True, False]
    assert rep["original_indices"] == [0, 1, 2]


def test_bh_rejection_set_is_prefix():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(size=rng.integers(1, 30))
        rep = bh_reject(p, 0.1)
        r = np.array(rep["rejected"], dtype=int)
        assert np.all(np.diff(r) <= 0)  # ones then zeros
        assert np.all(np.diff(rep["bh_thresholds"]) > 0)


def test_bh_edge_cases():
    assert not any(bh_reject([1.0, 1.0, 1.0], 0.05)["rejected"])
    rep = bh_reject([0.0, 0.9], 0.05)
    assert rep["rejected"][0]
    with pytest.raises(BadProbability):
        bh_reject([0.5, 1.2], 0.05)
    with pytest.raises(BadProbability):
        bh_reject([0.5], 0.0)


def test_bh_rejects_an_empty_sample():
    with pytest.raises(EmptySample, match="^no p-values supplied$"):
        bh_reject([], 0.05)


def test_bh_step_up_jump():
    # p_(2) fails its threshold but p_(3) passes: step-up rejects the first three
    rep = bh_reject([0.01, 0.06, 0.07, 0.9], 0.1)
    assert rep["rejected"] == [True, True, True, False]


# ---------------------------------------------------------------------------
# estimate correlation
# ---------------------------------------------------------------------------

def test_estimate_correlation_duplicated_column():
    rng = np.random.default_rng(12)
    a = rng.normal(size=500)
    est = np.stack([a, a, rng.normal(size=500)], axis=1)
    c = estimate_correlation(est)
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_estimate_correlation_independent_columns():
    rng = np.random.default_rng(13)
    est = rng.normal(size=(4000, 3))
    c = estimate_correlation(est)
    off = c[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 3.0 / np.sqrt(4000)


def test_estimate_correlation_zero_variance():
    est = np.zeros((10, 2))
    est[:, 1] = np.arange(10)
    with pytest.raises(SingularCovariance, match="^estimate component 0 is constant$"):
        estimate_correlation(est)


@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3])
def test_a_constant_component_is_refused_whatever_its_mean_rounds_to(value):
    # ten copies of 0.1 have a mean that is not 0.1, so their rounded deviations
    # are not zero; the statistics of such a column are noise, not data
    est = np.random.default_rng(14).normal(size=(10, 2))
    est[:, 1] = value
    for fn in (estimate_correlation, mahalanobis_samples):
        with pytest.raises(SingularCovariance, match="^estimate component 1 is constant$"):
            fn(est)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "fn", [estimate_correlation, mahalanobis_samples, lambda est: performance_matrices(est, [0.5, 0.5])],
    ids=["estimate_correlation", "mahalanobis_samples", "performance_matrices"],
)
def test_estimate_statistics_refuse_a_non_finite_estimate(fn, bad):
    est = np.random.default_rng(15).normal(size=(20, 2))
    est[7, 1] = bad
    with pytest.raises(NonFiniteData, match="^estimates must be finite$"):
        fn(est)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_performance_matrices_refuse_a_non_finite_true_value(bad):
    est = np.random.default_rng(15).normal(size=(20, 2))
    with pytest.raises(NonFiniteData, match="^true values must be finite$"):
        performance_matrices(est, [bad, 0.5])


def test_performance_matrices_are_exactly_symmetric():
    # spectral_norm decomposes only exactly symmetric matrices
    rng = np.random.default_rng(16)
    for m in range(1, 7):
        h = rng.uniform(0.1, 0.9, size=m)
        for n_mc in range(2, 301):
            est = h + 0.05 * rng.normal(size=(n_mc, m))
            for mat in performance_matrices(est, h):
                assert np.array_equal(mat, mat.T), (m, n_mc)


def test_estimate_correlation_needs_three_realizations():
    with pytest.raises(ShapeMismatch, match="n_mc >= 3"):
        estimate_correlation(np.arange(4.0).reshape(2, 2))


# ---------------------------------------------------------------------------
# run_mc
# ---------------------------------------------------------------------------

SMALL_P = make_params(
    [0.4, 0.7], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]], [[1.0, 0.3], [-0.2, 1.0]]
)


def test_run_mc_small_smoke():
    cfg = McConfig(params=SMALL_P, n=2**12, n_mc=2, seed0=77, j1=3, j2=6)
    rep = run_mc(cfg)
    for code in ("U", "M", "BC"):
        assert rep.estimates[code].shape == (2, 2)
        stats = rep.stats[code]
        np.testing.assert_allclose(stats["mse"], stats["bias2"] + stats["cov"], atol=1e-10)
        assert stats["spectral_norms"]["mse"] >= 0.0
    assert rep.config.v_n > 0.0


def test_run_mc_deterministic_across_threads():
    cfg = McConfig(params=SMALL_P, n=2**12, n_mc=16, seed0=123, j1=3, j2=6)
    r1 = run_mc(cfg, threads=1)
    r8 = run_mc(cfg, threads=8)
    for code in ("U", "M", "BC"):
        np.testing.assert_array_equal(r1.estimates[code], r8.estimates[code])
        np.testing.assert_array_equal(r1.stats[code]["mahalanobis"], r8.stats[code]["mahalanobis"])


def test_run_mc_rejects_tiny():
    with pytest.raises(SampleTooSmall):
        McConfig(params=SMALL_P, n=2**12, n_mc=1, seed0=0, j1=3, j2=6)


def test_mc_config_checks_every_seed_it_will_use():
    # realization r = 1..n_mc draws seed0 + r; seed0 itself is checked too
    McConfig(params=SMALL_P, n=2**12, n_mc=4, seed0=2**64 - 5, j1=3, j2=6)
    for seed0 in (-1, 2**64 - 4):
        with pytest.raises(SeedOutOfRange):
            McConfig(params=SMALL_P, n=2**12, n_mc=4, seed0=seed0, j1=3, j2=6)


def test_run_mc_attaches_realization_index(monkeypatch):
    from ofbmkit.errors import DataError

    def failing(*args, **kwargs):
        raise DataError("no estimate")

    # every realization fails; the lowest r is named at any thread count
    monkeypatch.setattr(analysis, "analyze", failing)
    cfg = McConfig(params=SMALL_P, n=256, n_mc=2, seed0=3, j1=3, j2=5)
    for threads in (1, 2):
        with pytest.raises(DataError, match="realization 1: no estimate"):
            run_mc(cfg, threads=threads)


@pytest.mark.parametrize(
    "n, j1, j2, error",
    [
        (256, 3, 9, SeriesTooShort),  # 256 db2 samples reach octave 6
        (2**18, 17, 18, SeriesTooShort),
        (8192, 3, 11, WindowTooSmall),  # n_11 = 1 < M = 2
    ],
)
def test_mc_config_rejects_an_unreachable_range_before_any_embedding(n, j1, j2, error):
    misses = analysis._embedding.cache_info().misses
    with pytest.raises(error) as info:
        McConfig(params=SMALL_P, n=n, n_mc=2, seed0=3, j1=j1, j2=j2)
    assert "realization" not in str(info.value)
    assert analysis._embedding.cache_info().misses == misses


def test_mc_config_rejects_an_unknown_balance_before_any_embedding():
    misses = analysis._embedding.cache_info().misses
    with pytest.raises(ShapeMismatch, match="balance must be one of") as info:
        McConfig(params=SMALL_P, n=256, n_mc=2, seed0=3, j1=3, j2=5, balance="bogus")
    assert "realization" not in str(info.value)
    assert analysis._embedding.cache_info().misses == misses


@pytest.mark.parametrize("threads", [0, -1])
def test_run_mc_rejects_fewer_than_one_thread_before_any_embedding(threads):
    # n = 300 is drawn by no other test, so an embedding built here would be a miss
    cfg = McConfig(params=SMALL_P, n=300, n_mc=2, seed0=3, j1=3, j2=5)
    misses = analysis._embedding.cache_info().misses
    with pytest.raises(ShapeMismatch, match=f"threads must be at least 1, got {threads}"):
        run_mc(cfg, threads=threads)
    assert analysis._embedding.cache_info().misses == misses


def test_mc_config_weights_are_every_realizations_weights():
    cfg = McConfig(params=SMALL_P, n=256, n_mc=2, seed0=3, j1=3, j2=5)
    rep = run_mc(cfg)
    assert rep.config is cfg and cfg.counts == (29, 13, 5)
    path = analysis._embedding(SMALL_P, 256).sample(4, kind="mfBm")
    assert np.array_equal(cfg.weights.w, analysis.analyze(path.data, 3, 5).weights.w)


def test_rank_sum_is_exact_only_when_both_groups_are_small():
    # 3 against 20 points takes the normal approximation (the exact test reads 0.5726)
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=3), rng.normal(size=20) + 0.5
    ref = stats.mannwhitneyu(x, y, method="asymptotic").pvalue
    assert wilcoxon_ranksum(x, y) == pytest.approx(ref, rel=1e-9)
    assert wilcoxon_ranksum(y, x) == pytest.approx(ref, rel=1e-9)
    assert abs(ref - stats.mannwhitneyu(x, y, method="exact").pvalue) > 0.01


@pytest.mark.parametrize("n1, n2", [(3, 20), (9, 9)])
def test_rank_sum_of_all_tied_samples_is_one_on_the_normal_branch(n1, n2):
    # the tie correction takes the variance to exactly 0
    assert wilcoxon_ranksum(np.ones(n1), np.ones(n2)) == 1.0


def test_mc_config_applies_the_octave_rule_of_its_filter():
    # at 256 samples haar leaves n_6 = 3 coefficients, and db4 reaches only octave 5
    McConfig(params=SMALL_P, n=256, n_mc=2, seed0=3, j1=3, j2=6, filter_name="haar")
    with pytest.raises(SeriesTooShort):
        McConfig(params=SMALL_P, n=256, n_mc=2, seed0=3, j1=3, j2=6, filter_name="db4")


@pytest.mark.parametrize(
    "n, j2, error, direct",
    [
        (256, 9, SeriesTooShort, lambda x, j2: dwt(x, j2)),
        (8192, 11, WindowTooSmall, lambda x, j2: windowed_spectra(dwt(x, j2), 10, j2)),
    ],
    ids=["unreached", "window-below-m"],
)
def test_mc_sliding_and_the_transform_state_the_reach_rule_alike(n, j2, error, direct):
    x = np.random.default_rng(16).normal(size=(2, n)).cumsum(axis=1)
    calls = [
        lambda: McConfig(params=SMALL_P, n=n, n_mc=2, seed0=3, j1=3, j2=j2),
        lambda: sliding_window_estimates(x, n, n, 3, j2),
        lambda: direct(x, j2),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(error) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("n_mc", [2, 3])
def test_report_dict_writes_each_estimator_as_estimates_then_its_stats(n_mc):
    # n_mc = 2 leaves corr and mahalanobis undefined; n_mc = 3 > M defines both
    rep = run_mc(McConfig(params=SMALL_P, n=2**12, n_mc=n_mc, seed0=77, j1=3, j2=6))
    d = analysis.report_to_dict(rep)
    assert list(d) == ["n", "n_mc", "seed0", "j1", "j2", "h_true", "weights", "counts", "v_n",
                       "estimators"]
    assert list(d["estimators"]) == list(analysis.ESTIMATORS)
    for code in analysis.ESTIMATORS:
        assert list(d["estimators"][code]) == ["estimates", *rep.stats[code]]
        assert (d["estimators"][code]["mahalanobis"] is None) == (n_mc == 2)
        assert (d["estimators"][code]["corr"] is None) == (n_mc == 2)


# ---------------------------------------------------------------------------
# the embedding memo of run_mc
# ---------------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """(params, n) of each embedding build run_mc asks for, from an empty memo."""
    calls = []

    def spy(params, n):
        calls.append((params, n))
        return CirculantEmbedding(params, n)

    analysis._embedding.cache_clear()
    monkeypatch.setattr(analysis, "CirculantEmbedding", spy)
    yield calls
    analysis._embedding.cache_clear()


def _study(params, n=2**12, seed0=11):
    return McConfig(params=params, n=n, n_mc=4, seed0=seed0, j1=3, j2=6)


def _fresh_report(cfg) -> str:
    analysis._embedding.cache_clear()
    return report_to_json(run_mc(cfg))


def test_run_mc_builds_once_for_studies_of_one_params_and_n(builds):
    cfgs = [_study(SMALL_P, seed0=11), _study(SMALL_P, seed0=900)]
    reports = [report_to_json(run_mc(cfg, threads=t)) for cfg, t in zip(cfgs, (2, 1))]
    assert len(builds) == 1
    assert reports == [_fresh_report(cfg) for cfg in cfgs]  # byte for byte
    assert len(builds) == 3


def test_run_mc_studies_of_one_embedding_allocate_a_buffer_pair_per_thread():
    # each draw takes a spare pair of work buffers or makes one, and gives it
    # back: two threads never need more than two pairs, whatever the studies
    analysis._embedding.cache_clear()
    seen = {}  # id -> buffer, held so that no id is reused
    for seed0, threads in ((11, 2), (900, 2), (5000, 1)):
        run_mc(_study(SMALL_P, seed0=seed0), threads=threads)
        spare = analysis._embedding(SMALL_P, 2**12)._spare
        seen.update((id(a), a) for pair in spare for a in pair)
        assert 1 <= len(spare) <= len(seen) // 2 <= 2
    assert len(spare) == len(seen) // 2  # every pair made came back
    analysis._embedding.cache_clear()


def test_concurrent_draws_never_share_a_buffer_pair():
    # more threads than cores, switching often: a pair taken by two draws at
    # once would mix their paths, which then differ from the one-shot draws
    from concurrent.futures import ThreadPoolExecutor

    analysis._embedding.cache_clear()
    emb = analysis._embedding(SMALL_P, 2**10)
    one_shot = CirculantEmbedding(SMALL_P, 2**10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(emb.sample, seed, "mfBm") for seed in range(200)]
            paths = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, path in enumerate(paths):
        assert np.array_equal(path.data, one_shot.sample(seed, "mfBm").data), seed
    assert 1 <= len(emb._spare) <= 8
    analysis._embedding.cache_clear()


def test_run_mc_builds_again_for_another_n_or_params_object(builds):
    twin = make_params(
        [0.4, 0.7], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]], [[1.0, 0.3], [-0.2, 1.0]]
    )  # equal in value to SMALL_P, another object
    small = report_to_json(run_mc(_study(SMALL_P, n=2**12)))
    run_mc(_study(SMALL_P, n=2**13))
    assert report_to_json(run_mc(_study(twin, n=2**12))) == small
    # the model types compare by identity (eq=False)
    assert builds == [(SMALL_P, 2**12), (SMALL_P, 2**13), (twin, 2**12)]


def test_run_mc_alternating_models_never_reuse_a_stale_embedding(builds):
    other = make_params([0.6, 0.8], [1.0, 2.0], [[1.0, -0.3], [-0.3, 1.0]])
    fresh = {p: _fresh_report(_study(p)) for p in (SMALL_P, other)}
    assert fresh[SMALL_P] != fresh[other]
    builds.clear()
    analysis._embedding.cache_clear()
    for p in (SMALL_P, other, SMALL_P, SMALL_P):
        assert report_to_json(run_mc(_study(p))) == fresh[p]
    assert [b[0] for b in builds] == [SMALL_P, other, SMALL_P]


def test_run_mc_does_not_keep_a_failed_build(builds, monkeypatch):
    cfg = _study(SMALL_P, n=2**10)
    good = report_to_json(run_mc(cfg))
    for _ in range(2):  # a failure is raised again, not remembered
        with pytest.raises(SeriesTooShort):
            analysis._embedding(SMALL_P, 1)

    def negative_cov(params, lags):
        out = np.zeros((np.atleast_1d(lags).size, 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = -1.0  # uniformly negative spectrum
        return out

    # n = 17, the fewest db2 samples with n_2 >= M, keeps the doubling loop short
    tiny = McConfig(params=SMALL_P, n=17, n_mc=4, seed0=11, j1=1, j2=2)
    covariance = synthesis.mfgn_covariance_matrices
    monkeypatch.setattr(synthesis, "mfgn_covariance_matrices", negative_cov)
    for _ in range(2):
        with pytest.raises(EmbeddingFailed):
            run_mc(tiny)
    monkeypatch.setattr(synthesis, "mfgn_covariance_matrices", covariance)
    assert report_to_json(run_mc(cfg)) == good
    assert [n for _, n in builds] == [2**10, 1, 1, 17, 17]  # the memo still held n = 2^10
    assert analysis._embedding(SMALL_P, 17).n == 17
    assert [n for _, n in builds[5:]] == [17]  # built, not a remembered failure


def test_pyramid_counts_match_dwt():
    pyr = dwt(np.zeros((1, 5000)) + np.random.default_rng(1).normal(size=5000), 6)
    assert pyramid_counts(5000, 4)[:6] == pyr.counts
    deepest = dwt(np.random.default_rng(1).normal(size=(1, 5000)), len(pyramid_counts(5000, 4)))
    assert pyramid_counts(5000, 4) == deepest.counts  # stops at the last octave
    assert pyramid_counts(4, 4) == ()


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------

def test_sliding_window_counts():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 3000)).cumsum(axis=1)
    recs = sliding_window_estimates(x, window=514, hop=514, j1=1, j2=4)
    assert len(recs) == 3000 // 514
    recs = sliding_window_estimates(x, window=514, hop=200, j1=1, j2=4)
    assert len(recs) == (3000 - 514) // 200 + 1
    assert [r.t_start for r in recs[:3]] == [0, 200, 400]


def test_sliding_window_refuses_a_series_shorter_than_one_window():
    x = np.zeros((1, 300))
    with pytest.raises(SeriesTooShort, match="series of 300 samples is shorter than one window of 514"):
        sliding_window_estimates(x, window=514, hop=100, j1=1, j2=4)


def _walk(m, n, seed):
    return np.random.default_rng(seed).normal(size=(m, n)).cumsum(axis=1)


def _flat_from_4096():
    x = _walk(2, 8192, 3)
    x[1, 4096:] = x[1, 4096]
    return x


def _overflowing_from_4096():
    x = _walk(2, 8192, 3)
    x[:, 4096:] *= 1e160
    return x


def _mixture_from_4096(stop=None):
    x = _walk(3, 8192, 12)
    x[2, 4096:stop] = 0.7 * x[0, 4096:stop] - 0.37 * x[1, 4096:stop]
    return x


def _mixture_over_4096_to_5119():
    x = _walk(3, 8192, 3)
    x[2, 4096:5120] = 0.5 * x[0, 4096:5120] + 0.25 * x[1, 4096:5120]
    return x


@pytest.mark.parametrize(
    "x, window, hop, error, refused, message",
    [
        # channel 2 is flat from 4096, and the window 3072..5119 is refused
        # first, by the bias-corrected estimator's windows of its second half
        (_flat_from_4096(), 2048, 1024, NonPositiveDiagonal, range(3072, 6145, 1024),
         "channel 2 has no fluctuation at octave 1"),
        (_overflowing_from_4096(), 2048, 1024, NonFiniteData, range(3072, 6145, 1024),
         "the wavelet spectrum at octave 1 overflows double precision"),
        (_mixture_from_4096(), 2048, 1024, RankDeficientSpectrum, range(3072, 6145, 1024),
         "a windowed wavelet spectrum at octave 1 has numerical rank 2 < M = 3: "),
        # only the bias-corrected estimator's windows of the quarter 4096..5119 are dependent
        (_mixture_from_4096(5120), 4096, 4096, RankDeficientSpectrum, [4096],
         "a windowed wavelet spectrum at octave 1 has numerical rank 2 < M = 3: "),
    ],
    ids=["flat", "overflow", "dependent", "dependent-in-a-bc-window"],
)
def test_sliding_window_refusal_names_the_window(x, window, hop, error, refused, message):
    _assert_sliding_refusal(x, window, hop, error, refused, message, (None, 1, 2))


@pytest.mark.parametrize("per_block", [None, 1, 2])
def test_sliding_refusal_names_the_earliest_refused_window(per_block):
    # channel 3 mixes the others over samples 4096..5119; with hop 300 and
    # 2^j2 = 16 the windows fall in 4 phases, and past one window a block the
    # first block to refuse holds 1200..5295, not the earliest refused 600..4695
    _assert_sliding_refusal(
        _mixture_over_4096_to_5119(), 4096, 300, RankDeficientSpectrum, range(600, 3901, 300),
        "a windowed wavelet spectrum at octave 1 has numerical rank 2 < M = 3: ", (per_block,),
    )


def _assert_sliding_refusal(x, window, hop, error, refused, message, per_blocks):
    # the windows that analyze refuses on their own, by definition
    starts = range(0, x.shape[1] - window + 1, hop)
    alone = {}
    for t in starts:
        try:
            analyze(x[:, t : t + window], 1, 4)
        except REFUSALS as exc:
            alone[t] = exc
    assert list(alone) == list(refused)
    start = next(iter(alone))
    assert type(alone[start]) is error and str(alone[start]).startswith(message)
    phases = 16 // np.gcd(hop, 16)
    earliest = starts.index(start)
    for per_block in per_blocks:
        blocks = analysis._block_windows if per_block is None else lambda *args: per_block
        span = phases * blocks(x.shape[0], window, 1, 4)
        # blocks run in order of their first window: the first to refuse holds a refused window
        first = min(i - i % span + i % span % phases for i in map(starts.index, refused))
        rescanned = []

        def counting(a, *args, **kwargs):
            if isinstance(a, np.ndarray) and a.ndim == 2:
                rescanned.append(next(t for t in starts if np.array_equal(a, x[:, t : t + window])))
            return analyze(a, *args, **kwargs)

        with mock.patch.object(analysis, "_block_windows", blocks), \
                mock.patch.object(analysis, "analyze", counting):
            with pytest.raises(error) as info:
                sliding_window_estimates(x, window, hop, 1, 4)
        # the prefix, then the message of the window alone
        assert str(info.value) == f"window at samples {start}..{start + window - 1}: {alone[start]}"
        assert rescanned == list(starts[first : earliest + 1]), per_block


@pytest.mark.parametrize(
    "m, window, hop, n_windows",
    [
        (4, 4096, 512, 64),  # the benchmark's chunk: one phase, windows 512 apart
        (3, 2048, 300, 30),  # 4 phases: windows 1200 apart overlap, a hop not a multiple of 16
        (2, 1030, 1029, 50),  # 16 phases: windows 16464 apart, the gaps cut out
    ],
    ids=["bench-chunk", "overlap", "gap-cutting"],
)
def test_window_pyramid_stacks_are_read_only_views_of_one_dwt(monkeypatch, m, window, hop, n_windows):
    j2 = 4
    f = filter_bank()
    x = _walk(m, window + (n_windows - 1) * hop, 19)
    phases = 16 // np.gcd(hop, 16)
    starts = list(range(0, x.shape[1] - window + 1, hop))[phases - 1 :: phases]  # the last phase
    counts = pyramid_counts(window, f.length)[:j2]
    made = []

    def spy(y, j_max, f):
        made.append(dwt(y, j_max, f))
        return made[-1]

    monkeypatch.setattr(analysis, "dwt", spy)
    pyr = analysis._window_pyramid(x, starts, window, hop * phases, j2, f, counts)
    (whole,) = made
    for j, (stack, d) in enumerate(zip(pyr.coeffs, whole.coeffs), 1):
        assert stack.shape == (len(starts), m, counts[j - 1])
        assert np.shares_memory(stack, d) and not stack.flags.writeable
        (lo, hi), (d_lo, d_hi) = byte_bounds(stack), byte_bounds(d)
        assert d_lo <= lo and hi <= d_hi
        for t, coeffs in zip(starts, stack):
            assert np.array_equal(coeffs, dwt(x[:, t : t + window], j2, f).details(j))


def test_sliding_window_validates_hop():
    x = np.zeros((1, 3000))
    with pytest.raises(WindowTooSmall):
        sliding_window_estimates(x, window=200, hop=300, j1=1, j2=4)


@pytest.mark.parametrize("j1", [0, -1])
def test_analyze_and_sliding_apply_the_octave_rule(j1):
    # checked at entry, before weights are built from a wrapped count index
    x = np.random.default_rng(15).normal(size=(2, 4000)).cumsum(axis=1)
    with pytest.raises(DegenerateRange):
        analyze(x, j1, 4)
    with pytest.raises(DegenerateRange):
        sliding_window_estimates(x, window=1024, hop=256, j1=j1, j2=4)


def test_sliding_window_stationary_fluctuation():
    p = make_params([0.6], [1.0])
    emb = CirculantEmbedding(p, 2**14)
    path = emb.sample(424_242, kind="mfBm")
    window = 1030
    recs = sliding_window_estimates(path.data, window=window, hop=window, j1=2, j2=5)
    vals = np.array([r.h_m_bc[0] for r in recs])
    full = np.median(vals)
    w = recs[0].weights
    counts = pyramid_counts(window, 4)[1:5]
    vn = v_n_approx(w, counts)
    # per-window scatter is on the V_N scale (within 3 sd bands for most)
    inside = np.abs(vals - full) < 3.0 * np.sqrt(vn) * 1.5
    assert inside.mean() > 0.85


SLIDING_FIELDS = ("t_start", "h_u", "h_m", "h_m_bc", "log_eig", "log_eig_bc", "diag_logs")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    filter_name=st.sampled_from(["haar", "db2", "db4"]),
    balance=st.sampled_from(["by_count", "uniform"]),
    octaves=st.sampled_from([(1, 3), (1, 4), (2, 5)]),
    window=st.integers(600, 900),
    n_windows=st.integers(1, 40),
    per_block=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sliding_records_equal_analyze_on_each_window(
    m, filter_name, balance, octaves, window, n_windows, per_block, seed, data
):
    j1, j2 = octaves
    # any hop, or a multiple of 2^j2, where all windows share one pyramid
    hop = data.draw(
        st.integers(1, window) | st.integers(1, window >> j2).map(lambda k: k << j2), label="hop"
    )
    f = filter_bank(filter_name)
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=(m, m)) @ rng.normal(size=(m, window + (n_windows - 1) * hop)), axis=1)
    with mock.patch.object(analysis, "_block_windows", lambda *args: per_block):
        recs = sliding_window_estimates(x, window, hop, j1, j2, f=f, balance=balance)
    assert [r.t_start for r in recs] == [k * hop for k in range(n_windows)]
    for rec in recs:
        ref = analyze(x[:, rec.t_start : rec.t_start + window], j1, j2, f=f, balance=balance,
                      t_start=rec.t_start)
        for name in SLIDING_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name


def test_sliding_long_series_runs_in_bounded_blocks(monkeypatch):
    window, hop, n = 4096, 64, 2**18
    x = np.random.default_rng(15).normal(size=(2, n)).cumsum(axis=1)
    core = analysis.analyze
    blocks = []

    def spy(pyr, j1, j2, **kwargs):
        (t,) = {c.shape[0] for c in pyr.coeffs}
        blocks.append(t)
        return core(pyr, j1, j2, **kwargs)

    monkeypatch.setattr(analysis, "analyze", spy)
    recs = sliding_window_estimates(x, window, hop, 1, 4)
    n_windows = (n - window) // hop + 1
    assert [r.t_start for r in recs] == list(range(0, n - window + 1, hop))
    assert sum(blocks) == n_windows
    assert max(blocks) <= analysis._block_windows(2, window, 1, 4) < n_windows


@pytest.mark.parametrize("hop", [1, 200])
def test_sliding_reads_a_1d_series_as_one_component(hop):
    x = np.random.default_rng(18).normal(size=1600).cumsum()
    recs = sliding_window_estimates(x, window=700, hop=hop, j1=1, j2=4)
    assert len(recs) == (1600 - 700) // hop + 1
    for rec in recs[:: 100 // hop or 1]:
        ref = analyze(x[rec.t_start : rec.t_start + 700], 1, 4, t_start=rec.t_start)
        assert rec.h_m.shape == (1,)
        for name in SLIDING_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name


def test_sliding_rejects_more_than_two_dimensions():
    with pytest.raises(ShapeMismatch, match=r"input must be 1-d or 2-d \(components x time\)"):
        sliding_window_estimates(np.zeros((2, 2, 3000)), window=514, hop=100, j1=1, j2=4)


def test_sliding_rejects_non_finite_series():
    x = np.random.default_rng(16).normal(size=(2, 3000)).cumsum(axis=1)
    x[1, 2500] = np.nan
    with pytest.raises(NonFiniteData, match="component 2"):
        sliding_window_estimates(x, window=514, hop=100, j1=1, j2=4)


@pytest.mark.parametrize("hop", [1, 3, 64, 1040])
def test_sliding_near_windows_transform_a_view_of_the_series(monkeypatch, hop):
    # windows sharing a pyramid overlap or abut: their span is one slice of
    # x, transformed without a copy
    window, j2 = 1040, 4
    x = np.random.default_rng(17).normal(size=(2, window + 40 * hop)).cumsum(axis=1)
    transform = analysis.dwt
    shared = []

    def spy(y, j_max, f):
        shared.append(np.shares_memory(y, x))
        return transform(y, j_max, f)

    monkeypatch.setattr(analysis, "dwt", spy)
    with mock.patch.object(analysis, "_block_windows", lambda *args: 7):
        recs = sliding_window_estimates(x, window, hop, 1, j2)
    assert len(recs) == 41 and shared and all(shared)
    ref = analyze(x[:, recs[-1].t_start :][:, :window], 1, j2, t_start=recs[-1].t_start)
    assert np.array_equal(recs[-1].h_m_bc, ref.h_m_bc)


def test_sliding_distant_windows_skip_the_gaps(monkeypatch):
    # odd hop: windows sharing a pyramid lie 2^j2 hops apart, far beyond a window
    window, hop, j2 = 1030, 1029, 4
    x = np.random.default_rng(16).normal(size=(2, window + 60 * hop)).cumsum(axis=1)
    transform = analysis.dwt
    spans = []

    def spy(y, j_max, f):
        spans.append(y.shape[1])
        return transform(y, j_max, f)

    monkeypatch.setattr(analysis, "dwt", spy)
    with mock.patch.object(analysis, "_block_windows", lambda *args: 3):
        recs = sliding_window_estimates(x, window, hop, 1, j2)
    # 61 windows in 16 phases: 13 phases of 4 windows (two blocks), 3 of 3
    assert len(recs) == 61 and len(spans) == 13 * 2 + 3
    # three windows laid end to end, each padded to a multiple of 2^j2
    assert max(spans) == 2 * 1040 + window
    ref = analyze(x[:, recs[-1].t_start :][:, :window], 1, j2, t_start=recs[-1].t_start)
    assert np.array_equal(recs[-1].h_m_bc, ref.h_m_bc)

