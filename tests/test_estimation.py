from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofbmkit.errors import (
    DegenerateRange,
    NonPositiveDiagonal,
    NotSymmetric,
    RankDeficientSpectrum,
    SampleTooSmall,
    ShapeMismatch,
    WindowTooSmall,
)
from ofbmkit.estimation import (
    REFUSALS,
    ScalingRangeConfig,
    analyze,
    regression_weights,
    scaling_range,
    averaged_log_eigenvalues,
    sorted_eigenvalues,
)
from ofbmkit.model import make_params
from ofbmkit.synthesis import CirculantEmbedding
from ofbmkit.wavelet import (
    WaveletPyramid,
    dwt,
    filter_bank,
    pyramid_counts,
    spectrum_set,
    windowed_spectra,
)


def exact_pyramid(h, j1, j2, xi=None, n_j2=None):
    """Pyramid whose windowed spectra are exactly diag(xi_m 2^(j(2H_m+1)))."""
    h = np.asarray(h, dtype=float)
    m = h.size
    xi = np.ones(m) if xi is None else np.asarray(xi, dtype=float)
    if n_j2 is None:
        n_j2 = 4 * m
    coeffs = []
    for j in range(1, j2 + 1):
        nj = 2 ** (j2 - j) * n_j2
        scale = np.sqrt(m * xi * 2.0 ** (j * (2.0 * h + 1.0)))
        block = np.diag(scale)  # columns cycle through scaled basis vectors
        coeffs.append(np.tile(block, nj // m))
    return WaveletPyramid(coeffs=tuple(coeffs))


def with_coeffs(pyr, coeffs):
    """The pyramid with its coefficient arrays replaced by arrays of the same shapes."""
    return replace(pyr, coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# regression weights
# ---------------------------------------------------------------------------

def test_uniform_weights_three_octaves():
    w = regression_weights(1, 3, "uniform")
    np.testing.assert_allclose(w.w, [-0.5, 0.0, 0.5], atol=1e-15)


def test_weight_constraints_always_hold():
    rng = np.random.default_rng(12)
    for _ in range(100):
        j1 = int(rng.integers(1, 8))
        j2 = j1 + int(rng.integers(1, 6))
        counts = rng.integers(8, 4096, size=j2 - j1 + 1).astype(float)
        for mode, c in (("uniform", None), ("by_count", counts)):
            w = regression_weights(j1, j2, mode, c)
            assert abs(w.w.sum()) < 1e-12
            assert abs((np.arange(j1, j2 + 1) * w.w).sum() - 1.0) < 1e-12


def test_by_count_weights_match_linear_system_oracle():
    counts = np.array([1024.0, 512.0, 256.0])
    w = regression_weights(1, 3, "by_count", counts)
    j = np.array([1.0, 2.0, 3.0])
    v0, v1, v2 = counts.sum(), (counts * j).sum(), (counts * j * j).sum()
    a, b = np.linalg.solve([[v0, v1], [v1, v2]], [0.0, 1.0])
    np.testing.assert_allclose(w.w, counts * (a + b * j), atol=1e-14)


def test_degenerate_range_rejected():
    with pytest.raises(DegenerateRange):
        regression_weights(3, 3, "uniform")


def test_by_count_requires_counts():
    with pytest.raises(ShapeMismatch):
        regression_weights(1, 3, "by_count")


def test_unknown_balance_rejected():
    with pytest.raises(ShapeMismatch, match="^balance must be one of"):
        regression_weights(1, 3, "by_variance")


@pytest.mark.parametrize("counts", [[0, 2, 1], [-1, 2, 1], [np.nan, 2, 1], [np.inf, 2, 1], [2, 1]])
def test_by_count_refuses_counts_that_are_not_finite_positive_and_aligned(counts):
    with pytest.raises(ShapeMismatch, match="^counts must be positive and span j1..j2$"):
        regression_weights(1, 3, "by_count", counts)


@pytest.mark.parametrize("j1, j2", [(0, 3), (-2, 1), (4, 3)])
def test_regression_weights_apply_the_octave_rule(j1, j2):
    # no pyramid has an octave 0, so no weights are built for one
    with pytest.raises(DegenerateRange, match="need 1 <= j1 < j2"):
        regression_weights(j1, j2, "uniform")


def test_regression_weights_are_read_only():
    for w in (regression_weights(2, 5, "uniform"), regression_weights(1, 3, "by_count", [40, 20, 9])):
        assert not w.w.flags.writeable
        with pytest.raises(ValueError):
            w.w[0] = 1.0


# ---------------------------------------------------------------------------
# octave range
# ---------------------------------------------------------------------------

def test_octave_range_explicit_or_derived():
    cfg = ScalingRangeConfig()
    assert scaling_range(2**18, cfg, None, None) == scaling_range(2**18, cfg)
    assert scaling_range(100, cfg, 2, 5) == (2, 5)  # explicit: n is not checked


@pytest.mark.parametrize("j1, j2", [(3, None), (None, 5), (5, 5), (6, 5), (0, 5)])
def test_octave_range_rejects_half_or_empty_ranges(j1, j2):
    with pytest.raises(DegenerateRange):
        scaling_range(2**18, ScalingRangeConfig(), j1, j2)


# ---------------------------------------------------------------------------
# scaling range
# ---------------------------------------------------------------------------

def test_scaling_range_reference_values():
    cfg = ScalingRangeConfig(beta=0.9, n0=2**13)
    assert scaling_range(2**13, cfg) == (6, 9)
    assert scaling_range(2**18, cfg) == (10, 13)


def test_scaling_range_constant_width():
    cfg = ScalingRangeConfig()
    widths = {scaling_range(n, cfg)[1] - scaling_range(n, cfg)[0] for n in (2**13, 2**15, 2**18)}
    assert widths == {3}


def test_scaling_range_too_small():
    with pytest.raises(SampleTooSmall):
        scaling_range(2**12, ScalingRangeConfig())


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_sorted_eigenvalues_examples():
    np.testing.assert_allclose(sorted_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    np.testing.assert_allclose(sorted_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])


def test_sorted_eigenvalues_trace_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        s = a + a.T
        lam = sorted_eigenvalues(s)
        assert lam.sum() == pytest.approx(np.trace(s), abs=1e-10)
        assert np.all(np.diff(lam) >= 0)


def test_sorted_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sorted_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # in a stack, one asymmetric matrix is enough
    stack = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-3], [0.0, 1.0]])])
    with pytest.raises(NotSymmetric):
        sorted_eigenvalues(stack)


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_sorted_eigenvalues_of_exactly_symmetric_stacks_are_eigvalsh(m, lead):
    rng = np.random.default_rng(10 * m + len(lead))
    a = rng.normal(size=(*lead, m, m + 3)) * 10.0 ** rng.uniform(-3, 3, size=(*lead, m, 1))
    s = a @ a.swapaxes(-1, -2)
    s = 0.5 * (s + s.swapaxes(-1, -2))
    assert np.array_equal(sorted_eigenvalues(s), np.linalg.eigvalsh(s))


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_sorted_eigenvalues_refuse_a_stack_off_by_one_ulp(m, lead):
    rng = np.random.default_rng(10 * m + len(lead))
    a = rng.normal(size=(*lead, m, m + 3))
    s = a @ a.swapaxes(-1, -2)
    s = 0.5 * (s + s.swapaxes(-1, -2))
    # one entry of the last matrix, one ulp above its mirror
    corner = (*(k - 1 for k in lead), 0, m - 1)
    s[corner] = np.nextafter(s[corner], np.inf)
    with pytest.raises(NotSymmetric, match="^matrix is not exactly symmetric$"):
        sorted_eigenvalues(s)


@pytest.mark.parametrize("m", [1, 3])
def test_eigen_functions_on_stacks_equal_per_matrix(m):
    a = np.random.default_rng(22).normal(size=(5, 16, m, 9))
    s = a @ np.swapaxes(a, -1, -2)
    lam = sorted_eigenvalues(s)
    assert lam.shape == (5, 16, m)
    for t in range(5):
        for b in range(16):
            assert np.array_equal(lam[t, b], sorted_eigenvalues(s[t, b]))
    # a stack laid out window-major, as a batched einsum returns it
    swapped = np.ascontiguousarray(np.swapaxes(s, 0, 1)).swapaxes(0, 1)
    avg = averaged_log_eigenvalues(swapped, 1)
    assert avg.shape == (5, m)
    for t in range(5):
        assert np.array_equal(avg[t], averaged_log_eigenvalues(s[t], 1))


# ---------------------------------------------------------------------------
# exact power-law recovery
# ---------------------------------------------------------------------------

def test_exact_recovery_all_estimators():
    h = np.array([0.3, 0.55, 0.8])
    j1, j2 = 3, 6
    pyr = exact_pyramid(h, j1, j2)
    for mode in ("uniform", "by_count"):
        rec = analyze(pyr, j1, j2, balance=mode)
        np.testing.assert_allclose(rec.h_u, h, atol=1e-12)
        np.testing.assert_allclose(rec.h_m, h, atol=1e-12)
        np.testing.assert_allclose(rec.h_m_bc, h, atol=1e-12)


def test_bc_equals_plain_on_constant_windows():
    rec = analyze(exact_pyramid(np.array([0.4, 0.6]), 2, 5), 2, 5)
    np.testing.assert_allclose(rec.h_m_bc, rec.h_m, atol=1e-12)


def test_amplitude_invariance():
    h = np.array([0.35, 0.75])
    pyr = exact_pyramid(h, 4, 7, xi=[2.0, 5.0])
    base = analyze(pyr, 4, 7, balance="uniform")
    # coefficients times sqrt(c) scale every spectrum by c
    scaled = analyze(with_coeffs(pyr, (np.sqrt(17.3) * d for d in pyr.coeffs)), 4, 7, balance="uniform")
    for name in ("h_u", "h_m", "h_m_bc"):
        np.testing.assert_allclose(getattr(scaled, name), getattr(base, name), atol=1e-12)


def test_dyadic_shift_covariance():
    h = np.array([0.45, 0.65])
    lo = analyze(exact_pyramid(h, 3, 6, xi=[1.0, 3.0]), 3, 6, balance="uniform")
    hi = analyze(exact_pyramid(h, 4, 7, xi=[1.0, 3.0]), 4, 7, balance="uniform")
    np.testing.assert_allclose(lo.h_m, hi.h_m, atol=1e-12)


def test_orthonormal_remixing_invariance():
    rng = np.random.default_rng(14)
    h = np.array([0.3, 0.5, 0.7])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pyr = exact_pyramid(h, 3, 6)
    plain = analyze(pyr, 3, 6, balance="uniform")
    mixed = analyze(with_coeffs(pyr, (q @ d for d in pyr.coeffs)), 3, 6, balance="uniform")
    np.testing.assert_allclose(mixed.h_m, plain.h_m, atol=1e-10)
    np.testing.assert_allclose(mixed.h_m_bc, plain.h_m_bc, atol=1e-10)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_nonpositive_diagonal_error():
    pyr = exact_pyramid(np.array([0.4, 0.6]), 3, 5)
    coeffs = list(pyr.coeffs)
    coeffs[2] = coeffs[2] * np.array([[1.0], [0.0]])  # component 2 silent at octave 3
    with pytest.raises(NonPositiveDiagonal):
        analyze(with_coeffs(pyr, coeffs), 3, 5, balance="uniform")


@pytest.mark.parametrize("level", [5.0, 0.0], ids=["constant", "zero"])
@pytest.mark.parametrize("name", ["haar", "db2", "db4"])
def test_a_flat_channel_gets_one_error_whatever_the_filter(name, level):
    # the filters leave a flat channel's diagonal at exactly 0 (haar) or at
    # rounding noise 1e-32..1e-29 of the largest (db2, db4): one rule refuses both
    x = np.random.default_rng(3).normal(size=(3, 4096)).cumsum(axis=1)
    x[2] = level
    with pytest.raises(NonPositiveDiagonal, match="^channel 3 has no fluctuation at octave 2$"):
        analyze(x, 2, 6, f=filter_bank(name))


def test_an_octave_where_every_channel_is_flat_blames_no_channel():
    # every spectrum diagonal of this path underflows to exactly 0 at octaves 2..6
    params = make_params([0.4, 0.8], 1.0, [[1.0, 0.3], [0.3, 1.0]], [[1.0, 0.6], [-0.5, 1.0]])
    x = 1e-165 * CirculantEmbedding(params, 2**12).sample(7, kind="mfBm").data
    with pytest.raises(NonPositiveDiagonal) as info:
        analyze(x, 2, 6)
    assert str(info.value) == (
        "no channel has fluctuation at octave 2: the series is constant there or too small for double precision"
    )


def _flat_from_midpoint(m, seed):
    """An M x 4096 walk whose every channel is constant from sample 2048 on."""
    x = np.random.default_rng(seed).normal(size=(m, 4096)).cumsum(axis=1)
    x[:, 2048:] = x[:, 2047:2048]
    return x


@pytest.mark.parametrize("m, seed, name, message", [
    # db2 leaves the flat half's details at rounding noise, haar at exactly 0
    (1, 1, "db2", "^channel 1 has no fluctuation at octave 1$"),
    (1, 1, "haar", "^no channel has fluctuation at octave 1: the series is constant there "
                   "or too small for double precision$"),
    # flat channels, not dependent ones, though the windows over the flat half have rank 1
    (2, 0, "db2", "^channel 1 has no fluctuation at octave 1$"),
], ids=["one-channel-db2", "one-channel-haar", "two-channels-db2"])
def test_channels_flat_over_half_their_span_are_refused_by_their_windows(m, seed, name, message):
    # the full spectra are not flat, but the bias-corrected estimator's
    # windows over the second half are
    with pytest.raises(NonPositiveDiagonal, match=message):
        analyze(_flat_from_midpoint(m, seed), 1, 4, f=filter_bank(name))


def test_a_pyramid_takes_no_filter():
    x = np.random.default_rng(4).normal(size=(2, 2048)).cumsum(axis=1)
    pyr = dwt(x, 6, filter_bank("haar"))
    with pytest.raises(ShapeMismatch, match="pyramid"):
        analyze(pyr, 2, 6, f=filter_bank("db4"))


def test_nonpositive_eigenvalue_error():
    pyr = exact_pyramid(np.array([0.4, 0.6]), 3, 5)
    coeffs = list(pyr.coeffs)
    coeffs[3] = coeffs[3][[0, 0]]  # component 1 repeated at octave 4: a singular spectrum
    with pytest.raises(RankDeficientSpectrum):
        analyze(with_coeffs(pyr, coeffs), 3, 5, balance="uniform")


def _dependent_in_a_quarter(seed):
    """A 3-channel walk whose third channel mixes the other two over its first quarter."""
    x = np.random.default_rng(seed).normal(size=(3, 4096)).cumsum(axis=1)
    x[2, :1024] = 0.7 * x[0, :1024] - 0.37 * x[1, :1024]
    return x


@pytest.mark.parametrize("seed", [0, 1, 12, 57, 199])
def test_a_window_singular_within_a_nonsingular_series_is_rank_deficient(seed):
    # the full spectra have rank 3, but the windows over the first quarter
    # do not: the rounding noise in their smallest eigenvalue is negative for
    # some seeds (0) and positive in every window for others (12), and the
    # windows are refused by the full spectra's rule whatever its sign
    x = _dependent_in_a_quarter(seed)
    pyr = dwt(x, 4)
    assert (sorted_eigenvalues(spectrum_set(pyr, 1, 4))[:, 0] > 0).all()
    if seed == 12:
        assert all((np.linalg.eigvalsh(windowed_spectra(pyr, j, 4)) > 0).all() for j in (1, 2, 3))
    with pytest.raises(RankDeficientSpectrum, match=(
        r"^a windowed wavelet spectrum at octave 1 has numerical rank 2 < M = 3: "
        "the channels are linearly dependent"
    )):
        analyze(x, 1, 4)


def test_rank_deficient_error():
    # 40 samples: n_3 = 2 coefficients at octave 3, fewer than M = 3 components;
    # the window size is named, though the full-sample spectrum at octave 3
    # has a non-positive computed eigenvalue as well
    pyr = dwt(np.random.default_rng(2).normal(size=(3, 40)).cumsum(axis=1), 3)
    assert pyr.counts[2] == 2 and sorted_eigenvalues(spectrum_set(pyr, 3, 3)[0])[0] <= 0.0
    with pytest.raises(WindowTooSmall):
        analyze(pyr, 1, 3, balance="uniform")


# ---------------------------------------------------------------------------
# Monte Carlo oracles on synthesized paths
# ---------------------------------------------------------------------------

def per_octave_estimates(pyr, w):
    """(H_U, H_M, H_M_bc) from the spectrum functions, one octave at a time."""
    spectra = spectrum_set(pyr, w.j1, w.j2)
    log_diag = np.log2(np.stack([np.diag(s) for s in spectra]))
    log_eig = np.log2(np.stack([sorted_eigenvalues(s) for s in spectra]))
    log_eig_bc = np.stack(
        [averaged_log_eigenvalues(windowed_spectra(pyr, j, w.j2), j) for j in range(w.j1, w.j2 + 1)]
    )
    return [0.5 * (w.w @ y - 1.0) for y in (log_diag, log_eig, log_eig_bc)]


def test_analyze_matches_individual_operations():
    p = make_params([0.4, 0.7], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]])
    path = CirculantEmbedding(p, 2**13).sample(123, kind="mfBm")
    j1, j2 = 4, 7
    pyr = dwt(path.data, j2)
    counts = [pyr.counts[j - 1] for j in range(j1, j2 + 1)]
    w = regression_weights(j1, j2, "by_count", counts)
    rec = analyze(pyr, j1, j2)
    # the batched core reproduces the per-octave functions bit for bit
    h_u, h_m, h_m_bc = per_octave_estimates(pyr, w)
    np.testing.assert_array_equal(rec.h_u, h_u)
    np.testing.assert_array_equal(rec.h_m, h_m)
    np.testing.assert_array_equal(rec.h_m_bc, h_m_bc)


def _scaled_walk_pyramid(m, name, n, seed):
    """Full pyramid of M mixed random walks with channel scales 1e-3 .. 1e3."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    x = np.cumsum(rng.normal(size=(m, m)) @ rng.normal(size=(m, n)), axis=1) * scales
    f = filter_bank(name)
    return dwt(x, len(pyramid_counts(n, f.length)), f)


def _assert_routes_agree(pyr, j1, j2):
    """analyze's window-averaged table is the windowed-spectra route at every
    octave, or both routes refuse a flat or numerically singular spectrum."""
    refs = []
    for j in range(j1, j2 + 1):
        try:
            refs.append(averaged_log_eigenvalues(windowed_spectra(pyr, j, j2), j))
        except REFUSALS:
            refs.append(None)
    try:
        rec = analyze(pyr, j1, j2)
    except REFUSALS:
        assert any(ref is None for ref in refs)
        return
    for row, (j, ref) in enumerate(zip(range(j1, j2 + 1), refs)):
        assert ref is not None and np.array_equal(rec.log_eig_bc[row], ref), j


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 5),
    name=st.sampled_from(["haar", "db2", "db3", "db4"]),
    n=st.integers(200, 3000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_window_averaged_log_eigenvalues_are_the_windowed_spectra_at_every_octave(m, name, n, seed, data):
    # at j2 the one window is the whole octave; analyze's table equals the
    # windowed-spectra route there too, bit for bit
    pyr = _scaled_walk_pyramid(m, name, n, seed)
    deep = [j for j, c in enumerate(pyr.counts, 1) if c >= 2 * m]
    if len(deep) < 2:
        return
    j2 = data.draw(st.sampled_from(deep[1:]), label="j2")
    j1 = data.draw(st.integers(1, j2 - 1), label="j1")
    _assert_routes_agree(pyr, j1, j2)


def test_both_routes_refuse_a_numerically_singular_window():
    # channel scales 1.2e-3 .. 649: a haar window at octave 1 has numerical
    # rank 3 of 4, though its eigenvalues are positive and the full spectra
    # have rank 4
    pyr = _scaled_walk_pyramid(4, "haar", 329, 843)
    assert (sorted_eigenvalues(spectrum_set(pyr, 1, 2))[:, 0] > 0).all()
    assert (np.linalg.eigvalsh(windowed_spectra(pyr, 1, 2)) > 0).all()
    with pytest.raises(RankDeficientSpectrum, match="^a windowed wavelet spectrum at octave 1 has numerical rank 3 < M = 4:"):
        analyze(pyr, 1, 2)
    _assert_routes_agree(pyr, 1, 2)


def test_univariate_fbm_recovery():
    h = 0.7
    p = make_params([h], [1.0])
    emb = CirculantEmbedding(p, 2**14)
    nreal = 100
    est = np.zeros(nreal)
    for r in range(nreal):
        path = emb.sample(90_000 + r, kind="mfBm")
        est[r] = analyze(path.data, 5, 8).h_u[0]
    assert abs(est.mean() - h) < 0.02


def test_mixed_bivariate_recovery_and_univariate_bias():
    h = np.array([0.4, 0.8])
    w_mix = np.array([[1.0, 0.6], [-0.5, 1.0]])
    p = make_params(h, [1.0, 1.0], [[1.0, 0.3], [0.3, 1.0]], w_mix)
    emb = CirculantEmbedding(p, 2**14)
    nreal = 150
    h_m = np.zeros((nreal, 2))
    h_u = np.zeros((nreal, 2))
    h_bc = np.zeros((nreal, 2))
    for r in range(nreal):
        path = emb.sample(17_000 + r, kind="mfBm")
        rec = analyze(path.data, 5, 8)
        h_m[r], h_u[r], h_bc[r] = rec.h_m, rec.h_u, rec.h_m_bc
    assert np.abs(h_m.mean(axis=0) - h).max() < 0.03
    assert np.abs(h_bc.mean(axis=0) - h).max() < 0.03
    # mixing pulls the univariate estimate of the small-H component upward
    assert h_u.mean(axis=0)[0] - h[0] > 0.1


def test_repulsion_grows_with_scale():
    # equal exponents: the spread of log-eigenvalues around their common level
    # widens at coarser octaves, where fewer coefficients are available
    m = 6
    rho = 0.8 * np.ones((m, m)) + 0.2 * np.eye(m)
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    p = make_params([0.6] * m, np.ones(m), rho, q)
    emb = CirculantEmbedding(p, 2**12)
    nreal = 30
    spreads = np.zeros((nreal, 2))
    for r in range(nreal):
        path = emb.sample(31_000 + r, kind="mfBm")
        rec = analyze(path.data, 3, 8, balance="uniform")
        # first and last analyzed octave
        spreads[r] = [np.ptp(rec.log_eig[0]), np.ptp(rec.log_eig[-1])]
    assert spreads[:, 1].mean() > spreads[:, 0].mean()


def test_bc_consistency_mae_decreases_with_n():
    h = np.array([0.4, 0.8])
    w_mix = np.array([[1.0, 0.6], [-0.5, 1.0]])
    p = make_params(h, [1.0, 1.0], [[1.0, 0.3], [0.3, 1.0]], w_mix)
    cfg = ScalingRangeConfig()
    maes = []
    for exp in (13, 14, 15, 16):
        n = 2**exp
        emb = CirculantEmbedding(p, n)
        j1, j2 = scaling_range(n, cfg)
        nreal = 60
        err = np.zeros((nreal, 2))
        for r in range(nreal):
            path = emb.sample(5_000 + r, kind="mfBm")
            err[r] = analyze(path.data, j1, j2).h_m_bc - h
        maes.append(np.abs(err).mean())
    # decreasing within MC noise: each step may wiggle, the trend may not
    assert maes[3] < maes[0]
    assert maes[2] < maes[0] + 0.005
    assert maes[1] < maes[0] + 0.01
