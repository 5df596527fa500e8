import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofbmkit.errors import (
    BadFilter,
    InsufficientCoefficients,
    NonFiniteData,
    ScaleUnavailable,
    SeriesTooShort,
    WindowTooSmall,
)
from ofbmkit.model import make_params
from ofbmkit.synthesis import CirculantEmbedding
from ofbmkit.wavelet import (
    WaveletPyramid,
    dwt,
    filter_bank,
    spectrum_set,
    wavelet_spectrum,
    windowed_spectra,
)


@pytest.mark.parametrize("name,nv,length", [("haar", 1, 2), ("db2", 2, 4), ("db3", 3, 6), ("db4", 4, 8)])
def test_filter_invariants(name, nv, length):
    f = filter_bank(name)
    assert f.length == length
    assert np.dot(f.lowpass, f.lowpass) == pytest.approx(1.0, abs=1e-12)
    for shift in range(2, length, 2):
        assert np.dot(f.lowpass[:-shift], f.lowpass[shift:]) == pytest.approx(0.0, abs=1e-12)
    k = np.arange(length, dtype=float)
    for p in range(nv):
        assert np.dot(k**p, f.highpass) == pytest.approx(0.0, abs=1e-8)
    # every caller gets this one filter, so no caller can change it
    assert filter_bank(name) is f
    for taps in (f.lowpass, f.highpass):
        with pytest.raises(ValueError):
            taps[0] = 0.0


def test_sym2_alias_is_db2():
    np.testing.assert_array_equal(filter_bank("sym2").lowpass, filter_bank("db2").lowpass)


def test_unknown_filter_rejected():
    for _ in range(2):  # a failed lookup is not remembered
        with pytest.raises(BadFilter):
            filter_bank("meyer")


def test_counts_follow_recursion():
    x = np.zeros((1, 4096))
    pyr = dwt(x, 2)
    assert pyr.counts == (2046, 1021)


def test_counts_general_recursion():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 777))
    pyr = dwt(x, None)
    length = 4
    expected = []
    n = 777
    while True:
        n = (n - length + 1) // 2
        if n < 1:
            break
        expected.append(n)
    assert pyr.counts == tuple(expected)
    assert all(a > b for a, b in zip(pyr.counts, pyr.counts[1:]))


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        dwt(np.zeros((1, 4)), 1)  # needs n_1 >= 1 -> N >= 5 for L=4
    with pytest.raises(SeriesTooShort):
        dwt(np.zeros((1, 64)), 8)


@pytest.mark.parametrize("j_max", [0, -1])
def test_dwt_to_no_octave_is_too_short_a_series(j_max):
    # a requested reach below octave 1 is a SeriesTooShort (exit 4), not an
    # IndexError, and names the octave 512 db2 samples do reach
    message = f"^series of length 512 reaches only octave 7, requested {j_max}$"
    with pytest.raises(SeriesTooShort, match=message):
        dwt(np.zeros((1, 512)), j_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(bad):
    x = np.random.default_rng(1).normal(size=(3, 500))
    x[2, 321] = bad
    with pytest.raises(NonFiniteData, match="component 3 .* t = 321"):
        dwt(x, 3)


def test_constant_series_zero_details():
    x = np.full((1, 512), 3.7)
    for name in ("haar", "db2"):
        pyr = dwt(x, 4, filter_bank(name))
        for j in range(1, 5):
            assert np.abs(pyr.details(j)).max() < 1e-12


def test_linear_ramp_zero_details_two_moments():
    t = np.arange(1024, dtype=float)
    x = (0.5 * t - 3.0)[None, :]
    pyr = dwt(x, 4, filter_bank("db2"))
    scale = np.abs(x).max()
    for j in range(1, 5):
        assert np.abs(pyr.details(j)).max() < 1e-10 * scale


def test_white_noise_trace_scale_independent():
    rng = np.random.default_rng(31)
    nreal = 300
    traces = np.zeros((nreal, 5))
    for r in range(nreal):
        x = rng.normal(size=(2, 2048))
        pyr = dwt(x, 5)
        traces[r] = [np.trace(wavelet_spectrum(pyr, j)) for j in range(1, 6)]
    mean = traces.mean(axis=0)
    se = traces.std(axis=0, ddof=1) / np.sqrt(nreal)
    for j in range(5):
        assert abs(mean[j] - 2.0) < 5 * se[j]


def test_spectrum_univariate_mean_square():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 300))
    pyr = dwt(x, 2)
    d = pyr.details(2)[0]
    assert wavelet_spectrum(pyr, 2)[0, 0] == pytest.approx((d**2).mean(), rel=1e-12)


def test_spectrum_cyclic_basis_vectors():
    # hand-built pyramid whose coefficients cycle through the canonical basis
    m = 3
    eye = np.eye(m)
    coeffs = (np.tile(eye, 1)[:, :m],)
    from ofbmkit.wavelet import WaveletPyramid

    pyr = WaveletPyramid(coeffs=coeffs)
    np.testing.assert_allclose(wavelet_spectrum(pyr, 1), eye / m, atol=1e-15)


def test_spectrum_psd_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=(3, 500))
        pyr = dwt(x, 4)
        for j in range(1, 5):
            s = wavelet_spectrum(pyr, j)
            evals = np.linalg.eigvalsh(s)
            assert evals[0] >= -1e-10 * np.trace(s)


def test_scale_unavailable():
    pyr = dwt(np.zeros((1, 200)) + np.arange(200), 3)
    with pytest.raises(ScaleUnavailable):
        wavelet_spectrum(pyr, 9)


def test_windowed_count_and_single_window():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3000))
    pyr = dwt(x, 6)
    for j, j2 in ((6, 9), (3, 6), (4, 6)):
        if j2 > pyr.j_max:
            continue
        wins = windowed_spectra(pyr, j, j2)
        assert wins.shape[0] == 2 ** (j2 - j)
    # j = j2: one window equal to the spectrum of the first n_j2 coefficients
    wins = windowed_spectra(pyr, 6, 6)
    n6 = pyr.counts[5]
    d = pyr.details(6)[:, :n6]
    np.testing.assert_allclose(wins[0], d @ d.T / n6, atol=1e-12)


def test_windowed_mean_equals_prefix_spectrum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4000))
    pyr = dwt(x, 6)
    j, j2 = 3, 6
    wins = windowed_spectra(pyr, j, j2)
    used = wins.shape[0] * pyr.counts[j2 - 1]
    d = pyr.details(j)[:, :used]
    np.testing.assert_allclose(wins.mean(axis=0), d @ d.T / used, atol=1e-12)


def test_windowed_errors():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 1200))
    pyr = dwt(x, None)
    deep = pyr.j_max
    if pyr.counts[deep - 1] < 6:
        with pytest.raises(WindowTooSmall):
            windowed_spectra(pyr, deep - 1, deep)
    from ofbmkit.wavelet import WaveletPyramid

    # hand-built pyramid violating the dyadic count chain
    bad = WaveletPyramid(coeffs=(rng.normal(size=(2, 30)), rng.normal(size=(2, 20))))
    with pytest.raises(InsufficientCoefficients):
        windowed_spectra(bad, 1, 2)


def test_fbm_coefficient_decorrelation_beyond_lag_one():
    p = make_params([0.7], [1.0])
    emb = CirculantEmbedding(p, 2**13)
    nreal = 120
    ac = np.zeros(5)
    for r in range(nreal):
        path = emb.sample(60_000 + r, kind="mfBm")
        d = dwt(path.data, 6).details(5)[0]
        d = d - d.mean()
        v = (d * d).mean()
        ac += np.array([(d[k:] * d[: d.size - k]).mean() / v for k in range(5)])
    ac /= nreal
    assert np.abs(ac[2:]).max() < 0.15


def test_eigenvalue_slope_matches_exponent():
    # MC regression oracle: slope of log2 spectrum across octaves is 2H+1
    h = 0.7
    p = make_params([h], [1.0])
    emb = CirculantEmbedding(p, 2**15)
    nreal = 40
    logs = np.zeros((nreal, 6))
    for r in range(nreal):
        path = emb.sample(70_000 + r, kind="mfBm")
        pyr = dwt(path.data, 8)
        logs[r] = [np.log2(wavelet_spectrum(pyr, j)[0, 0]) for j in range(3, 9)]
    mean = logs.mean(axis=0)
    slope = np.polyfit(np.arange(3, 9), mean, 1)[0]
    assert slope == pytest.approx(2 * h + 1, abs=0.1)


def test_spectra_of_a_window_stack_equal_per_window():
    f = filter_bank("db2")
    pyrs = [dwt(x, 4, f) for x in np.random.default_rng(23).normal(size=(3, 2, 700))]
    stack = WaveletPyramid(coeffs=tuple(np.stack(c) for c in zip(*(p.coeffs for p in pyrs))))
    assert stack.m == 2
    spectra = spectrum_set(stack, 1, 4)
    assert spectra.shape == (4, 3, 2, 2)
    for t, p in enumerate(pyrs):
        assert np.array_equal(spectra[:, t], spectrum_set(p, 1, 4))
        for j in range(1, 5):
            assert np.array_equal(wavelet_spectrum(stack, j)[t], wavelet_spectrum(p, j))
            assert np.array_equal(windowed_spectra(stack, j, 4)[t], windowed_spectra(p, j, 4))



def _assert_near_fsum(s, d):
    """Each entry of s (..., M, M) lies within 2 n eps sum|d_mk d_nk| / n of the
    math.fsum dot product of rows m and n of d (..., M, n), divided by n: the
    classical bound on a computed dot product (Higham 2002, sec. 3.1)."""
    n = d.shape[-1]
    for *lead, m, mp in np.ndindex(s.shape):
        products = d[(*lead, m)] * d[(*lead, mp)]
        error = abs(s[(*lead, m, mp)] - math.fsum(products.tolist()) / n)
        assert error <= 2 * n * np.finfo(float).eps * np.abs(products).sum() / n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 6),
    name=st.sampled_from(["haar", "db2", "db3", "db4"]),
    n=st.integers(40, 1500),
    windows=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectra_are_symmetric_dot_products_and_one_window_is_the_spectrum(m, name, n, windows, seed):
    rng = np.random.default_rng(seed)
    f = filter_bank(name)
    scales = 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    series = [rng.normal(size=(m, n)).cumsum(axis=1) * scales for _ in range(windows or 1)]
    pyrs = [dwt(x, None, f) for x in series]
    p = pyrs[0] if windows is None else WaveletPyramid(
        coeffs=tuple(np.stack(c) for c in zip(*(q.coeffs for q in pyrs)))
    )
    deep = [j for j, c in enumerate(p.counts, 1) if c >= m]
    for j in range(1, p.j_max + 1):
        s = wavelet_spectrum(p, j)
        assert np.array_equal(s, s.swapaxes(-1, -2))
        _assert_near_fsum(s, p.details(j))
    if not deep:
        return
    j2 = deep[-1]
    nw = p.counts[j2 - 1]
    assert np.array_equal(windowed_spectra(p, j2, j2)[..., 0, :, :], wavelet_spectrum(p, j2))
    for j in range(1, j2 + 1):
        s = windowed_spectra(p, j, j2)
        assert np.array_equal(s, s.swapaxes(-1, -2))
        d = p.details(j)[..., : s.shape[-3] * nw]
        _assert_near_fsum(s, d.reshape(*d.shape[:-1], -1, nw).swapaxes(-3, -2))


def test_spectra_of_long_rows_have_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits one dot product of more than 10,000 terms across its
    # threads; 50,000 coefficients per row take the chunked path
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import numpy as np\n"
        "from ofbmkit.wavelet import WaveletPyramid, wavelet_spectrum\n"
        "d = np.random.default_rng(0).normal(size=(3, 50000))\n"
        "print(wavelet_spectrum(WaveletPyramid(coeffs=(d,)), 1).tobytes().hex())\n"
    )
    hexes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        hexes.add(proc.stdout.strip())
    d = np.random.default_rng(0).normal(size=(3, 50000))
    s = wavelet_spectrum(WaveletPyramid(coeffs=(d,)), 1)
    assert hexes == {s.tobytes().hex()}
    assert np.array_equal(s, s.T)
    _assert_near_fsum(s, d)
