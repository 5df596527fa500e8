import hashlib
import io
import json

import numpy as np
import pytest

from ofbmkit import synthesis
from ofbmkit.errors import IndexOutOfRange
from ofbmkit.model import make_params
from ofbmkit.synthesis import (
    RNG_ID,
    CirculantEmbedding,
    gaussian_variates,
    mfgn_covariance_matrices,
    mfgn_cross_covariance,
    path_from_binary,
    path_from_csv,
    path_sidecar,
    path_to_binary,
    path_to_csv,
    synthesize_mfbm,
    synthesize_mfgn,
)

BIV = make_params(
    [0.4, 0.7],
    [1.0, 1.5],
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.0, 0.4], [-0.3, 1.2]],
)


def test_cross_covariance_white_noise_case():
    p = make_params([0.5], [1.0])
    assert mfgn_cross_covariance(p, 0, 0, 0) == pytest.approx(1.0)
    assert mfgn_cross_covariance(p, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_cross_covariance_lag_one_value():
    # 0.5 * (2**1.4 - 2) evaluated at high precision
    p = make_params([0.7], [1.0])
    assert mfgn_cross_covariance(p, 0, 0, 1) == pytest.approx(
        0.3195079107728943, abs=1e-15
    )


def test_cross_covariance_even_in_lag():
    rng = np.random.default_rng(5)
    p = BIV
    for _ in range(50):
        k = int(rng.integers(0, 40))
        a, b = rng.integers(0, 2, size=2)
        assert mfgn_cross_covariance(p, a, b, k) == pytest.approx(
            mfgn_cross_covariance(p, a, b, -k), abs=1e-15
        )


def test_cross_covariance_index_checked():
    with pytest.raises(IndexOutOfRange):
        mfgn_cross_covariance(BIV, 0, 2, 1)


def test_covariance_matrices_match_scalar_entries():
    gam = mfgn_covariance_matrices(BIV, [0, 1, 5])
    for i, k in enumerate((0, 1, 5)):
        for a in range(2):
            for b in range(2):
                assert gam[i, a, b] == pytest.approx(
                    mfgn_cross_covariance(BIV, a, b, k), abs=1e-15
                )
    assert mfgn_covariance_matrices(BIV, np.arange(6)).shape == (6, 2, 2)


def test_gaussian_variates_deterministic_and_standard():
    z1 = gaussian_variates(42, (3, 100))
    z2 = gaussian_variates(42, (3, 100))
    np.testing.assert_array_equal(z1, z2)
    big = gaussian_variates(43, 200_000)
    assert abs(big.mean()) < 0.01
    assert abs(big.std() - 1.0) < 0.01


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "seed, shape, digest",
    [
        (0, (8,), "b4ac37a2126c93cd905ef95699dac62c4720a4863651866571a39f80ac44cb25"),
        (42, (3, 100), "38e410f564b1d5f76c431870759a84da6fc52382d341332a858941678ee7e40f"),
        (2**64 - 1, (2, 4, 16),
         "fa7ead805bd72e238d0774e3a8a069d3df271bcc4608449ce06c177666e9b4b3"),
    ],
    ids=["seed0", "seed42", "seed_max"],
)
def test_gaussian_variates_golden_digests(seed, shape, digest):
    # the normal stream itself: unchanged by any change to the sampling map
    assert _sha256(gaussian_variates(seed, shape)) == digest


QUAD = make_params(
    [0.6] * 4,
    np.ones(4),
    0.7 ** np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]),
    [[1.0, 0.5, -0.3, 0.2], [-0.4, 1.1, 0.3, -0.2], [0.2, -0.3, 0.9, 0.4],
     [0.1, 0.2, -0.5, 1.2]],
)
SAMPLE_GOLDENS = {
    "m1": (make_params([0.5], [1.0]), 64, 3, "mfGn",
           "c51fef8d2795824893bc094cbcc18b9802893aeea8bef58333fbb97d62a2a56f"),
    "m2": (BIV, 100, 7, "mfBm",
           "40f5118dfed657c7fecbc67c292442cbe3e669f1b20006d18660696e6ae31f04"),
    "m4": (QUAD, 256, 11, "mfGn",
           "6a3c6dd319428b2d50f3935f171aa09ebd8a66dc9881a9384ed7cb867b9cd96f"),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_GOLDENS))
def test_sample_golden_digests(case):
    # pins the seed -> path map named by RNG_ID; a change here needs a new RNG_ID
    params, n, seed, kind, digest = SAMPLE_GOLDENS[case]
    path = CirculantEmbedding(params, n).sample(seed, kind=kind)
    assert RNG_ID == "philox4x64-10/u53/invnorm/hermitian-half"
    assert _sha256(path.data) == digest


@pytest.mark.parametrize(
    "params, n",
    [
        (BIV, 24),
        (make_params([0.3, 0.5, 0.9], [1.0, 2.0, 0.5]), 21),
        (QUAD, 20),
        (make_params([0.7], [1.0]), 7),
    ],
    ids=["m2-n24", "m3-n21", "m4-n20", "m1-n7"],
)
def test_sampling_map_exact_covariance(params, n):
    # by linearity, A A^T is the covariance of the paths when A is the
    # sampling map applied to unit vectors: it must equal W Gamma(k) W^T
    emb = CirculantEmbedding(params, n)
    assert emb.report.clipped_mass == 0.0
    m, size = params.m, emb.size
    units = np.eye(m * size).reshape(m * size, m, size)
    a = np.stack([emb._paths(e).ravel() for e in units], axis=1)  # (m*n, m*size)
    realized = (a @ a.T).reshape(m, n, m, n)
    w = params.mixing.entries
    gam = np.einsum("ij,fjk,lk->fil", w, mfgn_covariance_matrices(params, np.arange(n)), w)
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    target = gam[lag].transpose(2, 0, 3, 1)  # [a, t, b, s]
    assert np.abs(realized - target).max() < 1e-12


def test_sample_draws_one_normal_per_embedding_slot(monkeypatch):
    shapes = []
    real = synthesis.gaussian_variates

    def spy(seed, shape):
        shapes.append(shape)
        return real(seed, shape)

    monkeypatch.setattr(synthesis, "gaussian_variates", spy)
    emb = CirculantEmbedding(BIV, 100)
    emb.sample(1)
    assert shapes == [(2, emb.size)]


def test_synthesis_deterministic():
    a, _ = synthesize_mfgn(BIV, 256, 7)
    b, _ = synthesize_mfgn(BIV, 256, 7)
    np.testing.assert_array_equal(a.data, b.data)
    c, _ = synthesize_mfgn(BIV, 256, 8)
    assert not np.array_equal(a.data, c.data)


def test_embedding_exact_covariance_closed_form():
    # the sampling map must realize W Gamma(k) W^T exactly when nothing is clipped
    for params, n in ((BIV, 64), (make_params([0.3, 0.5, 0.9], [1.0, 2.0, 0.5]), 48)):
        emb = CirculantEmbedding(params, n)
        assert emb.report.clipped_mass == 0.0
        realized = emb.realized_covariance(n - 1)
        w = params.mixing.entries
        gam = mfgn_covariance_matrices(params, np.arange(n))
        target = np.einsum("ij,fjk,lk->fil", w, gam, w)
        assert np.abs(realized - target).max() < 1e-8


def test_embedding_report_fields():
    _, rep = synthesize_mfgn(BIV, 100, 3)
    assert rep.embedding_size >= 2 * 99
    assert rep.embedding_size & (rep.embedding_size - 1) == 0  # power of two
    assert 0.0 <= rep.clipped_mass <= 1.0


def test_white_noise_sample_moments():
    p = make_params([0.5], [1.0])
    emb = CirculantEmbedding(p, 256)
    nreal = 2000
    x = np.stack([emb.sample(1000 + r).data[0] for r in range(nreal)])
    lag0 = (x * x).mean(axis=1)
    lag1 = (x[:, 1:] * x[:, :-1]).mean(axis=1)
    se0 = lag0.std(ddof=1) / np.sqrt(nreal)
    se1 = lag1.std(ddof=1) / np.sqrt(nreal)
    assert abs(lag0.mean() - 1.0) < 5 * se0
    assert abs(lag1.mean()) < 5 * se1


def test_mixed_cross_covariance_matches_theory():
    emb = CirculantEmbedding(BIV, 128)
    nreal = 3000
    acc = np.zeros((5, 2, 2))
    for r in range(nreal):
        x = emb.sample(20_000 + r).data
        for k in range(5):
            acc[k] += x[:, k:] @ x[:, : x.shape[1] - k].T / (x.shape[1] - k)
    acc /= nreal
    w = BIV.mixing.entries
    gam = mfgn_covariance_matrices(BIV, np.arange(5))
    target = np.einsum("ij,fjk,lk->fil", w, gam, w)
    # five standard errors, SE ~ |target|/sqrt(n_eff); generous absolute floor
    assert np.abs(acc - target).max() < 0.05


def test_output_is_gaussian():
    emb = CirculantEmbedding(BIV, 512)
    pooled = np.concatenate([emb.sample(99 + r).data.ravel() for r in range(40)])
    n = pooled.size
    z = (pooled - pooled.mean()) / pooled.std()
    skew = (z**3).mean()
    kurt = (z**4).mean()
    assert abs(skew) < 5 * np.sqrt(6.0 / n)
    assert abs(kurt - 3.0) < 5 * np.sqrt(24.0 / n)


def test_distinct_seeds_uncorrelated():
    p = make_params([0.5], [1.0])
    emb = CirculantEmbedding(p, 4096)
    a = emb.sample(1).data[0]
    b = emb.sample(2).data[0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(a.size)


def test_mfbm_is_cumsum_of_mfgn():
    inc, _ = synthesize_mfgn(BIV, 300, 17)
    path = synthesize_mfbm(BIV, 300, 17)
    np.testing.assert_array_equal(path.data, np.cumsum(inc.data, axis=1))
    assert path.kind == "mfBm"
    assert path.n == 300


def test_mfbm_brownian_variance_growth():
    p = make_params([0.5], [1.0])
    emb = CirculantEmbedding(p, 64)
    nreal = 4000
    paths = np.stack([emb.sample(50_000 + r, kind="mfBm").data[0] for r in range(nreal)])
    for t in (15, 63):
        v = paths[:, t] ** 2
        se = v.std(ddof=1) / np.sqrt(nreal)
        assert abs(v.mean() - (t + 1)) < 5 * se


def test_mfbm_dyadic_selfsimilarity():
    # Var B(2s) = 2^(2H) Var B(s) for exact dyadic times
    h = 0.7
    p = make_params([h], [1.0])
    emb = CirculantEmbedding(p, 128)
    nreal = 4000
    paths = np.stack([emb.sample(80_000 + r, kind="mfBm").data[0] for r in range(nreal)])
    for t in (15, 31):
        v1 = paths[:, t] ** 2  # value at time t+1
        v2 = paths[:, 2 * t + 1] ** 2  # value at time 2(t+1)
        ratio = v2.mean() / v1.mean()
        se = ratio * np.sqrt(
            v2.var(ddof=1) / v2.mean() ** 2 + v1.var(ddof=1) / v1.mean() ** 2
        ) / np.sqrt(nreal)
        assert abs(ratio - 2.0 ** (2 * h)) < 5 * se


def test_batch_api_matches_single_calls():
    # one shared embedding gives the same paths as a fresh embedding per seed
    emb = CirculantEmbedding(BIV, 64)
    for seed in (5, 9, 2):
        single, rep = synthesize_mfgn(BIV, 64, seed)
        np.testing.assert_array_equal(emb.sample(seed).data, single.data)
    assert emb.report.clipped_mass == 0.0 and rep.clipped_mass == 0.0


def test_csv_round_trip():
    path, _ = synthesize_mfgn(BIV, 32, 4)
    buf = io.StringIO(newline="")
    path_to_csv(path, buf)
    buf.seek(0)
    back = path_from_csv(buf)
    np.testing.assert_array_equal(back, path.data)


def test_binary_round_trip_and_sidecar():
    path = synthesize_mfbm(BIV, 32, 4)
    data = io.BytesIO()
    side = io.StringIO()
    path_to_binary(path, data, side)
    data.seek(0)
    side.seek(0)
    back, meta = path_from_binary(data, side)
    np.testing.assert_array_equal(back, path.data)
    assert meta["M"] == 2 and meta["N"] == 32 and meta["seed"] == 4
    assert meta["kind"] == "mfBm"
    assert meta["rng"] == RNG_ID
    assert json.dumps(path_sidecar(path))  # serializable
