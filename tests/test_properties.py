"""Cross-module statistical properties on synthesized paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofbmkit.synthesis as synthesis
from ofbmkit.analysis import McConfig, run_mc
from ofbmkit.errors import EmbeddingFailed, SeriesTooShort
from ofbmkit.estimation import analyze, regression_weights, sorted_eigenvalues
from ofbmkit.model import make_params
from ofbmkit.synthesis import CirculantEmbedding
from ofbmkit.wavelet import dwt, filter_bank, pyramid_counts, spectrum_set

W2 = np.array([[1.0, 0.6], [-0.5, 1.0]])
RHO2 = np.array([[1.0, 0.3], [0.3, 1.0]])


def test_mean_spectrum_eigenvalue_slopes_follow_exponents():
    # eigenvalues of the realization-averaged spectrum scale as 2^(j(2H_m+1))
    h = np.array([0.4, 0.8])
    p = make_params(h, [1.0, 1.0], RHO2, W2)
    emb = CirculantEmbedding(p, 2**14)
    nreal = 150
    j1, j2 = 5, 8
    acc = np.zeros((j2 - j1 + 1, 2, 2))
    for r in range(nreal):
        path = emb.sample(110_000 + r, kind="mfBm")
        pyr = dwt(path.data, j2)
        for i, j in enumerate(range(j1, j2 + 1)):
            acc[i] += spectrum_set(pyr, j, j)[0]
    acc /= nreal
    log_eig = np.stack([np.log2(sorted_eigenvalues(acc[i])) for i in range(acc.shape[0])])
    slopes = np.diff(log_eig, axis=0).mean(axis=0)
    np.testing.assert_allclose(slopes, 2 * h + 1, atol=0.15)


def _mixed_path(h, seed):
    """A 2^11-sample mfBm path of exponents h under a random orthogonal mixing."""
    m = len(h)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))
    return CirculantEmbedding(make_params(h, np.ones(m), None, q), 2**11).sample(seed, kind="mfBm").data


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    h=st.lists(st.floats(0.2, 0.8), min_size=1, max_size=3).map(sorted),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
)
def test_amplitude_leaves_all_estimates_unchanged(h, seed, c):
    x = _mixed_path(h, seed)
    base, scaled = analyze(x, 2, 5), analyze(c * x, 2, 5)
    for name in ("h_u", "h_m", "h_m_bc"):
        np.testing.assert_allclose(getattr(scaled, name), getattr(base, name), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    h=st.lists(st.floats(0.2, 0.8), min_size=2, max_size=4).map(sorted),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_component_order_leaves_eigenvalue_estimates_unchanged(h, seed, data):
    x = _mixed_path(h, seed)
    order = data.draw(st.permutations(range(len(h))))
    base, permuted = analyze(x, 2, 5), analyze(x[order], 2, 5)
    np.testing.assert_allclose(permuted.h_m, base.h_m, rtol=0, atol=1e-12)
    np.testing.assert_allclose(permuted.h_m_bc, base.h_m_bc, rtol=0, atol=1e-12)
    np.testing.assert_allclose(permuted.h_u, base.h_u[order], rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 5000), name=st.sampled_from(["haar", "db2", "db3", "db4"]))
def test_dwt_shapes_follow_the_count_law(n, name):
    # n_j = floor((n_{j-1} - L + 1) / 2) from n_0 = n, down to the last octave
    # with a coefficient, read off the arrays dwt returns
    f = filter_bank(name)
    x = np.arange(2 * n, dtype=float).reshape(2, n)
    if (n - f.length + 1) // 2 < 1:
        assert pyramid_counts(n, f.length) == ()
        with pytest.raises(SeriesTooShort):
            dwt(x, 1, f)
        return
    shapes = [c.shape for c in dwt(x, len(pyramid_counts(n, f.length)), f).coeffs]
    prev = n
    for shape in shapes:
        assert shape == (2, (prev - f.length + 1) // 2)
        prev = shape[1]
    assert (prev - f.length + 1) // 2 < 1
    assert pyramid_counts(n, f.length) == tuple(shape[1] for shape in shapes)


@st.composite
def _octaves_and_counts(draw):
    j1 = draw(st.integers(1, 12))
    j2 = draw(st.integers(j1 + 1, j1 + 8))
    counts = draw(st.lists(st.integers(1, 2**16), min_size=j2 - j1 + 1, max_size=j2 - j1 + 1))
    return j1, j2, counts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_octaves_and_counts(), balance=st.sampled_from(["uniform", "by_count"]))
def test_regression_weights_sum_to_zero_with_unit_slope(case, balance):
    j1, j2, counts = case
    w = regression_weights(j1, j2, balance, counts)
    j = np.arange(j1, j2 + 1)
    scale = np.abs(w.w).sum() * j2  # the size of the terms each sum cancels
    assert abs(w.w.sum()) <= 1e-14 * scale
    assert abs((j * w.w).sum() - 1.0) <= 1e-14 * scale


def test_variance_ratio_band_mixing_and_nonmixing():
    # empirical Var over V_N stays inside [0.6, 1.4] with or without mixing
    for mix, seed in ((None, 130_000), (W2, 131_000)):
        p = make_params([0.4, 0.8], [1.0, 1.0], RHO2, mix)
        cfg = McConfig(params=p, n=2**14, n_mc=400, seed0=seed, balance="uniform", j1=5, j2=8)
        rep = run_mc(cfg, threads=8)
        for code in ("M", "BC"):
            ratio = rep.estimates[code].var(axis=0, ddof=1) / rep.v_n
            assert np.all((ratio >= 0.6) & (ratio <= 1.4)), (mix is None, code, ratio)


def test_variance_independent_of_correlation_structure():
    # correlated vs uncorrelated components: same estimator variances within MC bands
    variances = []
    for rho, seed in ((RHO2, 140_000), (np.eye(2), 141_000)):
        p = make_params([0.4, 0.8], [1.0, 1.0], rho, W2)
        cfg = McConfig(params=p, n=2**14, n_mc=400, seed0=seed, balance="uniform", j1=5, j2=8)
        rep = run_mc(cfg, threads=8)
        variances.append(rep.estimates["BC"].var(axis=0, ddof=1))
    ratio = variances[0] / variances[1]
    # variance-of-variance at n_mc=400 is ~7%; a 1.4 band is 5 sigma
    assert np.all((ratio > 1 / 1.4) & (ratio < 1.4)), ratio


def test_nonmixing_mse_of_all_estimators_comparable():
    # without mixing the three estimators trade bias for variance and land
    # within a factor two of each other in MSE spectral norm
    p = make_params([0.4, 0.8], [1.0, 1.0], [[1.0, 0.7], [0.7, 1.0]])
    cfg = McConfig(params=p, n=2**15, n_mc=200, seed0=150_000)
    rep = run_mc(cfg, threads=8)
    norms = [rep.stats[code]["spectral_norms"]["mse"] for code in ("U", "M", "BC")]
    assert max(norms) / min(norms) < 2.0, norms


def test_embedding_failure_on_impossible_covariance(monkeypatch):
    p = make_params([0.5], [1.0])

    def negative_cov(params, lags):
        lags = np.atleast_1d(np.asarray(lags))
        out = np.zeros((lags.size, 1, 1))
        out[:, 0, 0] = -1.0  # uniformly negative spectrum, nothing to clip around
        return out

    monkeypatch.setattr(synthesis, "mfgn_covariance_matrices", negative_cov)
    with pytest.raises(EmbeddingFailed):
        CirculantEmbedding(p, 8)


def test_no_rejections_for_identical_groups():
    # disjoint windows of one stationary path split into two arbitrary groups:
    # the step-up rule at alpha = 0.05 should almost always reject nothing
    from ofbmkit.analysis import bh_reject, sliding_window_estimates, wilcoxon_ranksum

    p = make_params([0.5, 0.7], [1.0, 1.0], RHO2)
    emb = CirculantEmbedding(p, 2**15)
    window = 1030
    clean = 0
    runs = 12
    for run in range(runs):
        path = emb.sample(160_000 + run, kind="mfBm")
        recs = sliding_window_estimates(path.data, window, window, j1=2, j2=5)
        est = np.stack([r.h_m_bc for r in recs])
        half = est.shape[0] // 2
        pvals = [
            wilcoxon_ranksum(est[:half, m], est[half : 2 * half, m])
            for m in range(est.shape[1])
        ]
        if not any(bh_reject(pvals, 0.05)["rejected"]):
            clean += 1
    assert clean >= 0.9 * runs
