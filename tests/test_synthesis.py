import csv
import hashlib
import io
import json
import os
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofbmkit import synthesis
from ofbmkit.errors import (
    EmbeddingFailed,
    MalformedInput,
    SeedOutOfRange,
    SeriesTooShort,
    ShapeMismatch,
)
from ofbmkit.model import make_params
from ofbmkit.synthesis import (
    RNG_ID,
    CirculantEmbedding,
    EmbeddingReport,
    SamplePath,
    gaussian_variates,
    mfgn_covariance_matrices,
    path_from_binary,
    path_from_csv,
    path_to_binary,
    path_to_csv,
    series_from_csv,
    table_to_csv,
)

BIV = make_params(
    [0.4, 0.7],
    [1.0, 1.5],
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.0, 0.4], [-0.3, 1.2]],
)


def test_cross_covariance_white_noise_case():
    gam = mfgn_covariance_matrices(make_params([0.5], [1.0]), [0, 1])
    assert gam[0, 0, 0] == pytest.approx(1.0)
    assert gam[1, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cross_covariance_lag_one_value():
    # 0.5 * (2**1.4 - 2) evaluated at high precision
    gam = mfgn_covariance_matrices(make_params([0.7], [1.0]), [1])
    assert gam[0, 0, 0] == pytest.approx(0.3195079107728943, abs=1e-15)


def test_cross_covariance_even_in_lag():
    lags = np.arange(40)
    np.testing.assert_allclose(
        mfgn_covariance_matrices(BIV, lags), mfgn_covariance_matrices(BIV, -lags), rtol=0, atol=1e-15
    )


def test_covariance_matrices_match_scalar_entries():
    # closed form Gamma(k)[a, b] = sigma_ab / 2 * (|k-1|^h - 2|k|^h + |k+1|^h), h = H_a + H_b
    gam = mfgn_covariance_matrices(BIV, [0, 1, 5])
    sigma = BIV.sigma
    for i, k in enumerate((0, 1, 5)):
        for a in range(2):
            for b in range(2):
                h = BIV.hurst[a] + BIV.hurst[b]
                ref = 0.5 * sigma[a, b] * (abs(k - 1) ** h - 2.0 * k**h + (k + 1) ** h)
                assert gam[i, a, b] == pytest.approx(ref, abs=1e-15)
    assert mfgn_covariance_matrices(BIV, np.arange(6)).shape == (6, 2, 2)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_gaussian_variates_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(SeedOutOfRange, match="0..18446744073709551615"):
        gaussian_variates(seed, (2, 3))


def test_gaussian_variates_accepts_both_ends_of_the_seed_range():
    for seed in (0, 2**64 - 1):
        assert np.isfinite(gaussian_variates(seed, (2, 3))).all()


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


def test_gaussian_variates_fill_out_with_the_fresh_draws_bits():
    for seed, shape in ((0, (8,)), (42, (3, 100)), (2**64 - 1, (2, 4, 16))):
        buf = np.full(shape, np.nan)
        assert gaussian_variates(seed, shape, out=buf) is buf
        assert np.array_equal(buf, gaussian_variates(seed, shape))


@pytest.mark.parametrize(
    "out",
    [
        np.empty((3, 2)),
        np.empty(6),
        np.empty((2, 3), dtype=np.float32),
        np.empty((2, 3), dtype=complex),
        np.empty((3, 2)).T,
        np.empty((2, 4))[:, :3],
        np.empty((2, 3)).tolist(),
        np.frombuffer(bytes(48)).reshape(2, 3),
    ],
    ids=["shape", "flat", "float32", "complex", "fortran", "strided", "list", "read-only"],
)
def test_gaussian_variates_refuse_an_out_of_another_shape_dtype_or_layout(out):
    with pytest.raises(ShapeMismatch, match="out must be"):
        gaussian_variates(0, (2, 3), out=out)


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
    # each unit vector at the head of a work buffer of M (size + 2) values
    work = np.hstack((units.reshape(m * size, -1), np.zeros((m * size, 2 * m))))
    a = np.stack([emb._paths(e, np.empty_like(e)).ravel() for e in work], axis=1)  # (m*n, m*size)
    realized = (a @ a.T).reshape(m, n, m, n)
    w = params.mixing
    gam = np.einsum("ij,fjk,lk->fil", w, mfgn_covariance_matrices(params, np.arange(n)), w)
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    target = gam[lag].transpose(2, 0, 3, 1)  # [a, t, b, s]
    assert np.abs(realized - target).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_shortest_embeddings_have_four_slots_and_are_exact(n):
    # the embedding size is a power of two, at least 4, even below 2 (n - 1)
    emb = CirculantEmbedding(BIV, n)
    assert emb.size == 4
    w = BIV.mixing
    target = np.einsum("ij,fjk,lk->fil", w, mfgn_covariance_matrices(BIV, np.arange(n)), w)
    assert np.abs(emb.realized_covariance(n - 1) - target).max() < 1e-12


def test_sample_draws_one_normal_per_embedding_slot(monkeypatch):
    shapes = []
    real = synthesis.gaussian_variates

    def spy(seed, shape, **kwargs):
        shapes.append(shape)
        return real(seed, shape, **kwargs)

    monkeypatch.setattr(synthesis, "gaussian_variates", spy)
    emb = CirculantEmbedding(BIV, 100)
    emb.sample(1)
    assert shapes == [(2, emb.size)]


def test_synthesis_deterministic():
    a = CirculantEmbedding(BIV, 256).sample(7)
    b = CirculantEmbedding(BIV, 256).sample(7)
    np.testing.assert_array_equal(a.data, b.data)
    c = CirculantEmbedding(BIV, 256).sample(8)
    assert not np.array_equal(a.data, c.data)


def test_embedding_exact_covariance_closed_form():
    # the sampling map must realize W Gamma(k) W^T exactly when nothing is clipped
    for params, n in ((BIV, 64), (make_params([0.3, 0.5, 0.9], [1.0, 2.0, 0.5]), 48)):
        emb = CirculantEmbedding(params, n)
        assert emb.report.clipped_mass == 0.0
        realized = emb.realized_covariance(n - 1)
        w = params.mixing
        gam = mfgn_covariance_matrices(params, np.arange(n))
        target = np.einsum("ij,fjk,lk->fil", w, gam, w)
        assert np.abs(realized - target).max() < 1e-8


def test_embedding_report_fields():
    rep = CirculantEmbedding(BIV, 100).report
    assert rep.embedding_size >= 2 * 99
    assert rep.embedding_size & (rep.embedding_size - 1) == 0  # power of two
    assert 0.0 <= rep.clipped_mass <= 1.0


def _one_shot_embedding(params, n):
    """The embedding build as whole-array passes: the blocked build must equal it bit for bit."""
    size = max(4, 1 << (2 * (n - 1) - 1).bit_length())
    while True:
        half = size // 2
        gam = synthesis.mfgn_covariance_matrices(params, np.arange(half + 1))
        ext = np.empty((size, params.m, params.m))
        ext[: half + 1] = gam
        ext[half + 1 :] = gam[1:half][::-1]
        lam = np.fft.rfft(ext, axis=0).real
        lam = 0.5 * (lam + np.swapaxes(lam, 1, 2))
        evals, evecs = np.linalg.eigh(lam)
        wts = np.full(half + 1, 2.0)
        wts[0] = wts[-1] = 1.0
        total = float(np.sum(wts[:, None] * np.abs(evals)))
        clipped = float(np.sum(wts[:, None] * np.abs(np.minimum(evals, 0.0))))
        mass = clipped / total if total > 0.0 else 0.0
        if mass <= synthesis.PSD_DUST_RTOL or size * 2 > synthesis.MAX_SIZE_FACTOR * n:
            break
        size *= 2
    b = (evecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]) @ np.swapaxes(evecs, 1, 2)
    factor = np.moveaxis(params.mixing @ b, 0, -1) * np.sqrt(size)
    return np.ascontiguousarray(factor), EmbeddingReport(size, float(evals.min()), mass)


def _chain_model(m):
    """M components with rising H and variances, correlations 0.5^|a-b| and a mild mixing."""
    idx = np.arange(m)
    mixing = np.eye(m) + 0.2 * np.sin(1.0 + np.add.outer(2 * idx, idx))
    rho = 0.5 ** np.abs(np.subtract.outer(idx, idx))
    return make_params(np.linspace(0.3, 0.8, m), np.linspace(0.5, 2.0, m), rho, mixing)


# sigma = s_a rho_ab s_b rounds differently in its two orders: not symmetric in the last bit
SKEW3 = make_params(
    [0.3, 0.5, 0.8], [1.0, 2.0, 3.0], [[1.0, 0.3, 0.15], [0.3, 1.0, 0.3], [0.15, 0.3, 1.0]]
)


def _assert_equals_one_shot(params, n):
    emb = CirculantEmbedding(params, n)
    factor, report = _one_shot_embedding(params, n)
    frequencies = emb.size // 2 + 1
    step = synthesis._BLOCK_VALUES // params.m**2
    # the case must span at least three blocks and end in a partial one
    assert frequencies > 2 * step and frequencies % step != 0
    assert np.array_equal(emb._factor, factor)
    assert emb._factor.flags.c_contiguous
    assert emb.report == report


@pytest.mark.parametrize(
    "params, n",
    [
        (make_params([0.7], [2.0]), 2**17),
        (BIV, 2**15),
        (SKEW3, 2**14),
        (QUAD, 2**13),
        (_chain_model(8), 2**12),
    ],
    ids=["m1", "m2", "m3-skew-sigma", "m4", "m8"],
)
def test_blocked_build_equals_the_one_shot_build(params, n):
    _assert_equals_one_shot(params, n)


@pytest.mark.parametrize(
    "params, transforms",
    [(QUAD, 4 + 6), (SKEW3, 3 + 3 + 1)],
    ids=["m4-symmetric", "m3-skew-sigma"],
)
def test_build_transforms_bitwise_equal_lag_rows_once(monkeypatch, params, transforms):
    # one transform per component and per pair, and a second where the pair's
    # two lag rows differ in some bit (SKEW3's pair (1, 2)); the factor and the
    # report equal the build that transforms both orders of every pair
    factor, report = _one_shot_embedding(params, 2**10)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, *a, **k: calls.append(x.size) or rfft(x, *a, **k))
    emb = CirculantEmbedding(params, 2**10)
    assert calls == [emb.size] * transforms
    assert np.array_equal(emb._factor, factor)
    assert emb.report == report


def test_skew_sigma_model_is_asymmetric_in_the_last_bit():
    sigma = SKEW3.sigma
    assert not np.array_equal(sigma, sigma.T)
    np.testing.assert_allclose(sigma, sigma.T, rtol=1e-15, atol=0)


def test_blocked_build_equals_the_one_shot_build_through_the_doubling_loop(monkeypatch):
    # a Gaussian-shaped covariance: its periodization clips at the first size
    # and is clean after one doubling, which must take the new size's blocks
    def gaussian_shaped(params, lags):
        k = np.abs(np.atleast_1d(np.asarray(lags, dtype=float)))
        return np.exp(-((k / 2000.0) ** 2))[:, None, None] * params.sigma

    monkeypatch.setattr(synthesis, "mfgn_covariance_matrices", gaussian_shaped)
    n = 2**13
    _assert_equals_one_shot(SKEW3, n)
    report = CirculantEmbedding(SKEW3, n).report
    assert report.embedding_size == 4 * n
    assert 0.0 < report.clipped_mass <= synthesis.PSD_DUST_RTOL


def test_gaussian_variates_equal_the_one_shot_cast_across_slices():
    from scipy.special import ndtri

    shape = (3, synthesis._BLOCK_VALUES + 5)
    raw = np.random.Philox(key=np.uint64(77)).random_raw(shape) >> np.uint64(11)
    u = (raw.astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(gaussian_variates(77, shape), ndtri(u))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m, n", [(8, 2**14), (16, 2**12)])
def test_embedding_build_peaks_within_twice_the_factor(m, n):
    params = _chain_model(m)
    CirculantEmbedding(params, 64)  # first-call allocations of numpy and LAPACK
    emb, peak = _peak_bytes(lambda: CirculantEmbedding(params, n))
    assert emb._factor.nbytes == m * m * (emb.size // 2 + 1) * 8
    assert peak <= 2.0 * emb._factor.nbytes


@pytest.mark.parametrize("kind", ["mfGn", "mfBm"])
@pytest.mark.parametrize("m, n", [(4, 2**15), (8, 2**14)])
def test_sample_peaks_within_four_and_a_half_paths(m, n, kind):
    emb = CirculantEmbedding(_chain_model(m), n)
    emb.sample(0, kind=kind)
    path, peak = _peak_bytes(lambda: emb.sample(1, kind=kind))
    assert peak <= 4.5 * path.data.nbytes


@pytest.mark.parametrize("kind", ["mfGn", "mfBm"])
def test_one_shot_sample_keeps_nothing_after_it_returns(kind):
    CirculantEmbedding(QUAD, 2**14).sample(0, kind=kind)  # first-call allocations
    emb = CirculantEmbedding(QUAD, 2**14)
    tracemalloc.start()
    try:
        path = emb.sample(1, kind=kind)
        kept = tracemalloc.get_traced_memory()[0] - path.data.nbytes
    finally:
        tracemalloc.stop()
    assert abs(kept) < 0.01 * path.data.nbytes  # a pair of work buffers is four paths


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
    w = BIV.mixing
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
    inc = CirculantEmbedding(BIV, 300).sample(17)
    path = CirculantEmbedding(BIV, 300).sample(17, kind="mfBm")
    np.testing.assert_array_equal(path.data, np.cumsum(inc.data, axis=1))
    assert path.kind == "mfBm"
    assert path.n == 300


@pytest.mark.parametrize("kind", ["mfGn", "mfBm"])
def test_sample_hands_over_an_owned_read_only_array(kind):
    data = CirculantEmbedding(BIV, 300).sample(5, kind=kind).data
    assert data.flags.owndata and data.flags.c_contiguous
    assert not data.flags.writeable
    assert data.shape == (2, 300)


@pytest.mark.parametrize("kind", ["mfbm", "mfgn", "fBm", ""])
def test_sample_rejects_an_unknown_kind(kind):
    # a misspelt kind would return increments labelled with it
    with pytest.raises(ShapeMismatch, match="kind must be 'mfGn' or 'mfBm'"):
        CirculantEmbedding(BIV, 64).sample(3, kind=kind)


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


@pytest.mark.parametrize("n", [1, 0, -4])
def test_embedding_needs_two_samples(n):
    # a bad sample count is a data error, not a fault of the model
    with pytest.raises(SeriesTooShort, match=f"need at least 2 samples, got {n}"):
        CirculantEmbedding(BIV, n)


def test_batch_api_matches_single_calls():
    # one shared embedding gives the same paths as a fresh embedding per seed
    emb = CirculantEmbedding(BIV, 64)
    for seed in (5, 9, 2):
        fresh = CirculantEmbedding(BIV, 64)
        np.testing.assert_array_equal(emb.sample(seed).data, fresh.sample(seed).data)
    assert emb.report.clipped_mass == 0.0 and fresh.report.clipped_mass == 0.0


def test_csv_round_trip():
    path = CirculantEmbedding(BIV, 32).sample(4)
    buf = io.StringIO(newline="")
    path_to_csv(path, buf)
    buf.seek(0)
    back = path_from_csv(buf)
    np.testing.assert_array_equal(back, path.data)


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, np.nan, np.inf,
                  -np.inf, 0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1e-7, 123456789.0]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_path_to_csv_bytes_equal_csv_writer_form(m):
    # the layout once written cell by cell through csv.writer: t,c1..cM, CRLF
    rng = np.random.default_rng(m)
    data = rng.normal(size=(m, 40)) * 10.0 ** rng.integers(-300, 300, size=(m, 40))
    data.flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    path = SamplePath(data=data, params=BIV, seed=0, kind="mfGn")
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["t"] + [f"c{i + 1}" for i in range(path.m)])
    for t in range(path.n):
        writer.writerow([t] + [repr(float(v)) for v in path.data[:, t]])
    out = io.StringIO(newline="")
    path_to_csv(path, out)
    assert out.getvalue() == ref.getvalue()
    out.seek(0)
    assert path_from_csv(out).tobytes() == path.data.tobytes()


_CODES = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=4)
_CELLS = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), _CODES, st.floats(), st.sampled_from(SPECIAL_VALUES)
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 5))
    height = draw(st.integers(0, 12))
    header = draw(st.lists(_CODES, min_size=width, max_size=width))
    return header, [draw(st.lists(_CELLS, min_size=height, max_size=height)) for _ in range(width)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=_tables())
@example(table=(["estimator", "p", "chi2_quantile"], [[], [], []]))
@example(table=(["code", "x", "flag"], [["U", "BC"], [-0.0, 5e-324], [True, False]]))
def test_table_to_csv_bytes_equal_csv_writer_form(table):
    # the form every table once took, row by row through csv.writer with
    # floats passed as repr strings
    header, columns = table
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    out = io.StringIO(newline="")
    table_to_csv(out, header, zip(*columns))
    assert out.getvalue() == ref.getvalue()


def _reference_series(text, label_column=None):
    """The csv-module reader the vectorised one replaced; None where it rejects."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if not header:
        return None
    names = [name.strip().lower() for name in header]
    skip = {i for i, name in enumerate(names) if name == "t"}
    label = None
    if label_column is not None:
        if label_column.lower() not in names:
            return None
        label = names.index(label_column.lower())
        skip.add(label)
    cols = [i for i in range(len(header)) if i not in skip]
    rows = [row for row in reader if row]
    if not rows or not cols or any(len(row) != len(header) for row in rows):
        return None
    try:
        data = np.asarray([[float(row[i]) for i in cols] for row in rows]).T
    except ValueError:
        return None
    return data, None if label is None else np.asarray([row[label] for row in rows])


NUMERALS = ["-0.0", "5e-324", "1e308", "nan", "inf", "-inf", "NaN", "+Infinity", " 1.5 ", ".5",
            "5.", "1E-3", "-12"]
NOT_NUMERALS = ["x", "", "1.5.2", "--1", "0x10", "1,5", "nan(1)", "1 2"]
LABELS = ["a", "b", "x,y", 'say "hi"', " a", "", "p\nq", "a\n\nb"]


def _csv_field(text, quote):
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _plain(texts):
    return [text for text in texts if not any(c in text for c in ',"\r\n')]


@st.composite
def series_files(draw):
    """CSV text in the shapes series files take, with optional faults.

    About half the draws allow no quote at all.  In the other half any
    field may be quoted, and labels and non-numerals that need quoting
    (commas, quotes, line ends) are drawn too.
    """
    quotes = draw(st.booleans())
    labels, not_numerals = (LABELS, NOT_NUMERALS) if quotes else map(_plain, (LABELS, NOT_NUMERALS))

    def field(text):
        return _csv_field(text, quotes and draw(st.booleans()))

    m = draw(st.integers(1, 3))
    names = [f"c{i + 1}" for i in range(m)]
    t_at = draw(st.none() | st.integers(0, m))
    if t_at is not None:
        names.insert(t_at, draw(st.sampled_from(["t", " T"])))
    label_at = draw(st.none() | st.integers(0, len(names)))
    if label_at is not None:
        names.insert(label_at, "label")
    value = st.sampled_from(NUMERALS) | st.floats().map(repr)
    rows = []
    for k in range(draw(st.integers(0, 6))):
        row = []
        for name in names:
            if name == "label":
                cell = draw(st.sampled_from(labels))
            else:
                cell = str(k) if name.strip().lower() == "t" else draw(value)
            row.append(field(cell))
        rows.append(row)
    fault = draw(st.sampled_from([None, "drop", "extra", "text"] + ["pad_quote"] * quotes))
    if rows and fault:
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        if fault == "drop":
            del row[i]
        elif fault == "extra":
            row.insert(i, "1.0")
        elif fault == "text":
            row[i] = field(draw(st.sampled_from(not_numerals)))
        else:
            row[i] = " " + _csv_field(row[i], True)
    header = ",".join(field(name) for name in names)
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text, "label" if label_at is not None else None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=series_files())
def test_series_from_csv_matches_csv_module_reader(case):
    text, label_column = case
    ref = _reference_series(text, label_column)
    if ref is None:
        with pytest.raises(MalformedInput):
            series_from_csv(io.StringIO(text, newline=""), label_column)
        return
    data, labels = series_from_csv(io.StringIO(text, newline=""), label_column)
    assert data.shape == ref[0].shape
    assert np.ascontiguousarray(data).tobytes() == np.ascontiguousarray(ref[0]).tobytes()
    if label_column is None:
        assert labels is None
    else:
        assert labels.dtype == ref[1].dtype and labels.tolist() == ref[1].tolist()


@pytest.mark.parametrize("content", ["t,c1\n0,1_0\n", "t,c1\n0,\u0661\n"])
def test_series_from_csv_takes_ascii_numerals_only(content):
    # float() reads these two; np.loadtxt, and so the series reader, does not
    with pytest.raises(MalformedInput, match="non-numeric sample"):
        series_from_csv(io.StringIO(content))


@pytest.mark.parametrize("sample", ["1\ud800", "\udcff"])
def test_series_from_csv_lone_surrogate_sample_is_malformed(sample):
    # text decoded with errors="surrogateescape" can hold lone surrogates
    with pytest.raises(MalformedInput, match="non-numeric sample .* in data row 2, column 2"):
        series_from_csv(io.StringIO(f"t,c1\n0,1\n1,{sample}\n"))


def test_series_from_csv_names_the_first_bad_row_of_either_kind():
    # a non-numeric data row 1 ahead of a ragged data row 2
    with pytest.raises(MalformedInput, match="non-numeric sample 'x' in data row 1, column 2"):
        series_from_csv(io.StringIO("t,c1\n0,x\n1\n"))


@pytest.mark.parametrize(
    "body, pattern, groups",
    [(b"0,1,a\n1,2\n", "_WRONG_COUNT", ("3", "2", "2")),
     (b"0,1,a\n1,x,b\n", "_NOT_A_NUMBER", ("'x'", "1", "2"))],
)
def test_loadtxt_messages_match_the_reader_patterns(body, pattern, groups):
    # the reader rewrites these two np.loadtxt messages, so a numpy that words
    # them (or counts their rows) differently fails here
    with pytest.raises(ValueError) as exc:
        synthesis._load(io.BytesIO(body), dtype=synthesis._row_dtype(["t", "c1", "label"], 2))
    assert getattr(synthesis, pattern).search(str(exc.value)).groups() == groups


@pytest.mark.parametrize("content", ["t,c1\n0,1\n1\n", "t,c1\n0,x\n"])
def test_series_from_csv_unmatched_loadtxt_message_is_malformed(monkeypatch, content):
    never = re.compile("(?!)")
    monkeypatch.setattr(synthesis, "_WRONG_COUNT", never)
    monkeypatch.setattr(synthesis, "_NOT_A_NUMBER", never)
    with pytest.raises(MalformedInput, match="unreadable series file: .* row"):
        series_from_csv(io.StringIO(content))


@pytest.mark.parametrize("label_column", [None, "label"])
def test_series_from_csv_peak_memory_is_a_small_multiple_of_the_text(label_column):
    # tracemalloc sees numpy's buffers too, so the bound covers the whole read
    n = 2**16
    data = np.random.default_rng(16).normal(size=(2, n)).cumsum(axis=1)
    header, columns = ["t", "c1", "c2"], [range(n), *data.tolist()]
    if label_column is not None:
        header.append(label_column)
        columns.append(["a"] * (n // 2) + ["b"] * (n // 2))
    out = io.StringIO(newline="")
    table_to_csv(out, header, zip(*columns))
    text = out.getvalue()
    fh = io.StringIO(text, newline="")
    tracemalloc.start()
    try:
        back, labels = series_from_csv(fh, label_column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, data)
    assert peak < 2.25 * len(text)


def test_path_to_csv_peak_memory_does_not_grow_with_the_path():
    rng = np.random.default_rng(17)
    for n in (2**14, 2**15, 2**16, 2**17):
        path = SamplePath(data=rng.normal(size=(2, n)).cumsum(axis=1), params=BIV, seed=0, kind="mfBm")
        with open(os.devnull, "w", newline="") as fh:
            tracemalloc.start()
            try:
                path_to_csv(path, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**21, n


def test_binary_round_trip_and_sidecar():
    path = CirculantEmbedding(BIV, 32).sample(4, kind="mfBm")
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


def _binary_pair(path):
    data, side = io.BytesIO(), io.StringIO()
    path_to_binary(path, data, side)
    return data.getvalue(), json.loads(side.getvalue())


@pytest.mark.parametrize("extra", [-8, -1, 3, 8])
def test_path_from_binary_needs_m_times_n_samples(extra):
    raw, meta = _binary_pair(CirculantEmbedding(BIV, 32).sample(4))
    raw = raw[:extra] if extra < 0 else raw + bytes(extra)
    with pytest.raises(MalformedInput, match=f"binary file holds {512 + extra} bytes.* need 512"):
        path_from_binary(io.BytesIO(raw), io.StringIO(json.dumps(meta)))


@pytest.mark.parametrize(
    "edit",
    [{"M": None}, {"N": None}, {"M": "2"}, {"N": 32.0}, {"N": 0}, {"M": -2, "N": -32}, {"M": True}],
    ids=["no-M", "no-N", "M-string", "N-float", "N-zero", "negative", "M-bool"],
)
def test_path_from_binary_sidecar_needs_integer_m_and_n(edit):
    raw, meta = _binary_pair(CirculantEmbedding(BIV, 32).sample(4))
    meta.update(edit)
    meta = {key: value for key, value in meta.items() if value is not None}
    with pytest.raises(MalformedInput, match="binary sidecar needs positive integers M and N"):
        path_from_binary(io.BytesIO(raw), io.StringIO(json.dumps(meta)))


def test_path_from_binary_sidecar_must_be_an_object():
    raw, _ = _binary_pair(CirculantEmbedding(BIV, 32).sample(4))
    with pytest.raises(MalformedInput, match="binary sidecar"):
        path_from_binary(io.BytesIO(raw), io.StringIO("[2, 32]"))



def test_embedding_rejects_a_factor_whose_draws_could_overflow():
    # unmixed, the factor's |entries| sum to about 1.0e5: at a mixing scale of
    # 1e303 that sum is finite, but 24 times it, the bound on a draw's sums, is not
    def embedding(scale):
        corr = [[1.0, 0.2], [0.2, 1.0]]
        return CirculantEmbedding(make_params([0.4, 0.6], [1.0, 1.0], corr, np.eye(2) * scale), 1024)

    with pytest.raises(EmbeddingFailed, match="overflows double precision"):
        embedding(1e303)
    assert np.isfinite(embedding(1e301).sample(1, kind="mfBm").data).all()
