import dataclasses

import numpy as np
import pytest

from ofbmkit.errors import (
    CorrelationInfeasible,
    CovarianceNotPSD,
    DimensionMismatch,
    HurstOutOfRange,
    HurstUnsorted,
    SingularMixing,
)
from ofbmkit.model import (
    ModelParams,
    make_params,
    ofbm_equivalent,
    params_from_json,
    params_to_dict,
    params_to_json,
    rho_max,
)

# High-precision evaluations of the feasibility bound (40-digit mpmath),
# frozen as test constants.
RHO_MAX_04_08 = 0.8233372474899591
RHO_MAX_02_08 = 0.6619970757884223
RHO_MAX_01_09 = 0.3833930197847077
RHO_MAX_04_06 = 0.9634352531875437


def test_univariate_identity_model_is_valid():
    p = make_params([0.5], [1.0])
    assert p.m == 1
    assert p.hurst[0] == 0.5


def test_a_single_variance_is_repeated_for_every_component():
    p = make_params([0.3, 0.6, 0.8], [2.0])
    assert p.variances.tolist() == [2.0, 2.0, 2.0]


def test_rho_max_golden_values():
    assert rho_max(0.4, 0.8) == pytest.approx(RHO_MAX_04_08, abs=1e-13)
    assert rho_max(0.2, 0.8) == pytest.approx(RHO_MAX_02_08, abs=1e-13)
    assert rho_max(0.1, 0.9) == pytest.approx(RHO_MAX_01_09, abs=1e-13)
    assert rho_max(0.4, 0.6) == pytest.approx(RHO_MAX_04_06, abs=1e-13)


def test_rho_max_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def oracle(h1, h2):
        h1, h2 = mp.mpf(h1), mp.mpf(h2)
        num = mp.gamma(2 * h1 + 1) * mp.gamma(2 * h2 + 1) * mp.sin(mp.pi * h1) * mp.sin(mp.pi * h2)
        den = (mp.gamma(h1 + h2 + 1) * mp.sin(mp.pi / 2 * (h1 + h2))) ** 2
        return float(mp.sqrt(num / den))

    assert oracle("0.4", "0.8") == pytest.approx(RHO_MAX_04_08, abs=1e-15)
    rng = np.random.default_rng(17)
    for _ in range(25):
        a, b = rng.uniform(0.02, 0.98, size=2)
        assert rho_max(a, b) == pytest.approx(oracle(a, b), rel=1e-12)


def test_rho_max_equal_exponents_is_one():
    for h in (0.1, 0.25, 0.5, 0.77, 0.99):
        assert rho_max(h, h) == pytest.approx(1.0, abs=1e-12)


def test_rho_max_symmetric_and_decreasing_in_gap():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(0.01, 0.99, size=2)
        assert rho_max(a, b) == pytest.approx(rho_max(b, a), abs=1e-14)
    # wider gap, smaller bound
    assert rho_max(0.1, 0.9) < rho_max(0.4, 0.6)


def test_rho_max_rejects_out_of_range():
    with pytest.raises(HurstOutOfRange):
        rho_max(0.0, 0.5)
    with pytest.raises(HurstOutOfRange):
        rho_max(0.5, 1.0)


def test_infeasible_correlation_names_pair_and_bound():
    rho = np.array([[1.0, 0.9], [0.9, 1.0]])
    assert RHO_MAX_02_08 < 0.9
    with pytest.raises(CorrelationInfeasible) as exc:
        make_params([0.2, 0.8], [1.0, 1.0], rho)
    assert exc.value.pair == (0, 1)
    assert exc.value.rho_max == pytest.approx(RHO_MAX_02_08, abs=1e-12)


def test_unsorted_hurst_rejected():
    with pytest.raises(HurstUnsorted):
        make_params([0.8, 0.4], [1.0, 1.0])


def test_hurst_out_of_range_rejected():
    with pytest.raises(HurstOutOfRange):
        make_params([0.3, 1.2], [1.0, 1.0])
    with pytest.raises(HurstOutOfRange):
        make_params([-0.1], [1.0])


def test_singular_mixing_rejected():
    with pytest.raises(SingularMixing):
        make_params([0.4, 0.6], [1.0, 1.0], mixing=np.array([[1.0, 2.0], [0.25, 0.5]]))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_singular_mixing_rule_is_scale_invariant(scale):
    # sigma_min is compared with DET_RTOL * sigma_max, so scaling W changes no verdict
    w = np.array([[1.0, 0.3], [-0.2, 1.0]])
    make_params([0.4, 0.7], [1.0, 1.0], mixing=scale * w)
    with pytest.raises(SingularMixing):
        make_params([0.4, 0.7], [1.0, 1.0], mixing=scale * np.diag([1.0, 1e-11]))


def test_correlation_at_the_feasibility_bound_is_accepted():
    # FEAS_SLACK keeps a set at its bound, or a relative 1e-13 past it, feasible
    bound = rho_max(0.3, 0.9)
    for rho in (bound, bound * (1.0 + 1e-13)):
        p = make_params([0.3, 0.9], [1.0, 1.0], [[1.0, rho], [rho, 1.0]])
        assert params_from_json(params_to_json(p)).correlations[0, 1] == rho


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_mixing_rejected(entry):
    # checked before the SVD, which does not converge on NaN
    with pytest.raises(SingularMixing, match="mixing matrix entries must be finite"):
        make_params([0.4, 0.6], [1.0, 1.0], mixing=np.array([[1.0, entry], [0.0, 1.0]]))


def test_covariance_not_psd_rejected():
    rho = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
    with pytest.raises(CovarianceNotPSD):
        make_params([0.4, 0.5, 0.6], np.ones(3), rho)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch, match="H has 3, Sigma has 2, W has 3"):
        ModelParams(np.array([0.3, 0.5, 0.7]), np.ones(2), np.eye(2), np.eye(3))


def test_validation_idempotent():
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    w = np.array([[1.0, 0.2], [-0.3, 0.9]])
    p1 = make_params([0.4, 0.7], [1.0, 2.0], rho, w)
    p2 = ModelParams(p1.hurst, p1.variances, p1.correlations, p1.mixing)
    assert params_to_dict(p1) == params_to_dict(p2)


def test_params_immutable():
    p = make_params([0.4, 0.7], [1.0, 2.0])
    with pytest.raises(ValueError):
        p.hurst[0] = 0.9
    for name in ("hurst", "variances", "correlations", "mixing"):
        assert not getattr(p, name).flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, np.zeros(2))


@pytest.mark.parametrize(
    "args, error",
    [
        (([0.2, 0.8], [1.0, 1.0], [[1.0, 0.9], [0.9, 1.0]], np.eye(2)), CorrelationInfeasible),
        (([0.3, 0.5], [1.0, 1.0], np.eye(2), np.eye(3)), DimensionMismatch),
    ],
    ids=["infeasible", "mixing-size"],
)
def test_direct_construction_runs_every_check(args, error):
    with pytest.raises(error):
        ModelParams(*args)


def test_sigma_is_the_assembled_covariance():
    rho = np.array([[1.0, 0.3], [0.3 + 1e-13, 1.0]])
    p = make_params([0.4, 0.7], [2.0, 3.0], rho)
    s = np.sqrt(np.array([2.0, 3.0]))
    sym = 0.5 * (rho + rho.T)
    assert np.array_equal(p.correlations, sym)
    assert np.array_equal(p.sigma, s[:, None] * sym * s[None, :])



def test_ofbm_g_matrix_half_exponents():
    p = make_params([0.5, 0.5], [1.0, 1.0])
    eq = ofbm_equivalent(p)
    assert eq.g_matrix[0, 0] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)
    np.testing.assert_allclose(eq.aastar, np.eye(2) / (2.0 * np.pi), atol=1e-15)
    np.testing.assert_allclose(eq.hurst_matrix, 0.5 * np.eye(2), atol=1e-15)


def test_ofbm_equivalent_arrays_are_read_only():
    eq = ofbm_equivalent(make_params([0.4, 0.7], [1.0, 2.0], [[1.0, 0.3], [0.3, 1.0]]))
    for name in ("aastar", "hurst_matrix", "g_matrix"):
        a = getattr(eq, name)
        assert a.shape == (2, 2) and not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_ofbm_equivalent_random_mixing_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(2, 5)
        h = np.sort(rng.uniform(0.05, 0.95, size=m))
        var = rng.uniform(0.5, 2.0, size=m)
        while True:
            w = rng.normal(size=(m, m))
            if np.linalg.cond(w) < 1e3:
                break
        p = make_params(h, var, np.eye(m), w)
        eq = ofbm_equivalent(p)
        # independent dense eigensolver on the similarity transform
        eig = np.sort(np.linalg.eigvals(eq.hurst_matrix).real)
        np.testing.assert_allclose(eig, h, atol=1e-10)
        # aastar symmetric PSD up to tolerance
        assert np.abs(eq.aastar - eq.aastar.T).max() < 1e-12
        evals = np.linalg.eigvalsh(eq.aastar)
        assert evals[0] >= -1e-10 * np.abs(evals).max()


def test_feasible_random_draws_validate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.integers(1, 5)
        h = np.sort(rng.uniform(0.1, 0.9, size=m))
        # scale a random correlation inside the pairwise feasible region
        a = rng.normal(size=(m, m))
        c = a @ a.T
        d = np.sqrt(np.diag(c))
        rho = c / np.outer(d, d)
        cap = min(
            rho_max(h[i], h[j]) for i in range(m) for j in range(i + 1, m)
        ) if m > 1 else 1.0
        shrink = 0.9 * cap
        rho = shrink * rho + (1.0 - shrink) * np.eye(m)
        p = make_params(h, rng.uniform(0.5, 2.0, size=m), rho)
        assert p.m == m


def test_json_round_trip():
    rho = np.array([[1.0, 0.35], [0.35, 1.0]])
    w = np.array([[1.0, 0.25], [-0.5, 1.5]])
    p = make_params([0.3, 0.6], [1.0, 4.0], rho, w)
    q = params_from_json(params_to_json(p))
    assert params_to_dict(p) == params_to_dict(q)
