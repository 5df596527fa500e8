"""Discrete wavelet pyramid and per-scale wavelet spectra.

The transform is the standard orthonormal pyramid (convolve, keep valid
samples, downsample by two) applied independently to each component.  Only
coefficients that depend exclusively on observed data are kept, so the count
at octave j follows n_j = floor((n_{j-1} - L + 1) / 2) rather than exactly
N * 2^-j.  With samples used as the level-0 approximation, detail variances of
an H-selfsimilar signal grow as 2^(j(2H+1)) across octaves, which is the
normalization the estimators build on.

The wavelet spectrum at octave j is the M x M average of coefficient outer
products; windowed spectra split the coefficients at octave j <= j2 into
2^(j2-j) non-overlapping windows of the coarsest-scale count n_j2 each, which
equalizes the sample size entering eigenvalue estimation across scales.
Each spectrum entry on or above the diagonal is one dot product of two
coefficient rows, mirrored below it, so spectra are exactly symmetric on every
BLAS kernel.  Computing both (i, k) and (k, i) would not be: under OpenBLAS's
Prescott kernel the two dot products can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadFilter,
    InsufficientCoefficients,
    NonFiniteData,
    ScaleUnavailable,
    SeriesTooShort,
    ShapeMismatch,
    WindowTooSmall,
)

_SQRT3 = math.sqrt(3.0)
_NORM4 = 4.0 * math.sqrt(2.0)

# Orthonormal scaling filters (unit L2 norm). db2 is the 4-tap member with two
# vanishing moments, identical to the least-asymmetric member of that order.
_SCALING_TAPS = {
    "haar": [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
    "db2": [
        (1.0 + _SQRT3) / _NORM4,
        (3.0 + _SQRT3) / _NORM4,
        (3.0 - _SQRT3) / _NORM4,
        (1.0 - _SQRT3) / _NORM4,
    ],
    "db3": [
        0.332670552950083,
        0.806891509311092,
        0.459877502118491,
        -0.135011020010255,
        -0.0854412738820267,
        0.0352262918857095,
    ],
    "db4": [
        0.230377813308855,
        0.714846570552542,
        0.630880767929590,
        -0.0279837694169839,
        -0.187034811718881,
        0.0308413818359870,
        0.0328830116669829,
        -0.0105974017849973,
    ],
}
_ALIASES = {"db1": "haar", "sym2": "db2"}

DEFAULT_FILTER = "db2"


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal quadrature-mirror pair, built by :func:`filter_bank` only,
    which makes the taps read-only."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    @property
    def length(self) -> int:
        return self.lowpass.size


@lru_cache
def filter_bank(name: str = DEFAULT_FILTER) -> WaveletFilter:
    """Look up a built-in orthonormal filter by name (haar/db1, db2/sym2, db3, db4).

    haar has one vanishing moment and dbN has N.  Each filter is built once
    and shared: it is frozen, with read-only taps.
    """
    key = _ALIASES.get(name.lower(), name.lower())
    if key not in _SCALING_TAPS:
        raise BadFilter(f"unknown filter {name!r}; available: {sorted(_SCALING_TAPS)}")
    lp = np.array(_SCALING_TAPS[key])
    hp = np.array([(-1.0) ** k * lp[lp.size - 1 - k] for k in range(lp.size)])
    lp.setflags(write=False)
    hp.setflags(write=False)
    return WaveletFilter(name=key, lowpass=lp, highpass=hp)


@dataclass(frozen=True)
class WaveletPyramid:
    """Detail coefficients per octave: coeffs[j-1] is an M x n_j array.

    A stack of equally long windows is a pyramid whose arrays carry leading
    window axes, (..., M, n_j); the spectrum functions below keep those axes.
    """

    coeffs: tuple

    @property
    def counts(self) -> tuple:
        """Coefficient counts n_1, n_2, ... read from the arrays."""
        return tuple(c.shape[-1] for c in self.coeffs)

    @property
    def m(self) -> int:
        return self.coeffs[0].shape[-2]

    @property
    def j_max(self) -> int:
        return len(self.coeffs)

    def details(self, j: int) -> np.ndarray:
        if not (1 <= j <= self.j_max):
            raise ScaleUnavailable(f"octave {j} outside 1..{self.j_max}")
        return self.coeffs[j - 1]


def pyramid_counts(n: int, length: int) -> tuple:
    """Coefficient counts n_1, n_2, ... of an n-sample series for a filter of
    ``length`` taps, via n_j = floor((n_{j-1} - L + 1) / 2), down to the last
    octave with at least one coefficient."""
    counts = []
    n = (n - length + 1) // 2
    while n >= 1:
        counts.append(n)
        n = (n - length + 1) // 2
    return tuple(counts)


def octave_counts(n: int, f: WaveletFilter, j2: int, m: int = 1) -> tuple:
    """Coefficient counts n_1 .. n_j2 of n samples of M components under filter f;
    raises SeriesTooShort unless they reach octave j2 >= 1, and WindowTooSmall when n_j2 < M."""
    counts = pyramid_counts(n, f.length)
    if not 1 <= j2 <= len(counts):
        raise SeriesTooShort(f"series of length {n} reaches only octave {len(counts)}, requested {j2}")
    _check_window(counts[j2 - 1], m)
    return counts[:j2]


def _check_window(nw: int, m: int) -> None:
    """Raise WindowTooSmall when a window of nw coefficients is shorter than M."""
    if nw < m:
        raise WindowTooSmall(f"window size n_j2 = {nw} is below the dimension M = {m}; "
                             "spectra would be rank-deficient")


def dwt(x: np.ndarray, j_max: int, f: WaveletFilter | None = None) -> WaveletPyramid:
    """Pyramid transform of an M x N array (a 1-d array is treated as M=1) to
    octave ``j_max``: the details of octaves 1..j_max, from the approximations
    of octaves 0..j_max-1 (the samples being octave 0's).  The approximation at
    j_max, which no detail reads, is not computed.

    Raises SeriesTooShort when the series does not reach ``j_max``
    (:func:`octave_counts`), and NonFiniteData when a sample is NaN or infinite.
    """
    if f is None:
        f = filter_bank(DEFAULT_FILTER)
    x = as_components(x)
    check_finite(x)
    counts = octave_counts(x.shape[1], f, j_max)
    coeffs = []
    approx = x
    for j, nj in enumerate(counts, 1):
        det = np.empty((x.shape[0], nj))
        app = np.empty((x.shape[0], nj)) if j < len(counts) else None
        for row in range(x.shape[0]):
            det[row] = np.convolve(approx[row], f.highpass, mode="valid")[1::2]
            if app is not None:
                app[row] = np.convolve(approx[row], f.lowpass, mode="valid")[1::2]
        coeffs.append(det)
        approx = app
    return WaveletPyramid(coeffs=tuple(coeffs))


def as_components(x) -> np.ndarray:
    """x as an M x N float array, a 1-d series being one component (M = 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ShapeMismatch("input must be 1-d or 2-d (components x time)")
    return np.atleast_2d(x)


def check_finite(x: np.ndarray) -> None:
    """Raise NonFiniteData naming the first NaN or infinite sample of an M x N array."""
    if not np.isfinite(x).all():
        m, t = np.argwhere(~np.isfinite(x))[0]
        raise NonFiniteData(f"component {m + 1} has a non-finite sample {x[m, t]} at t = {t}")


# OpenBLAS splits a dot product of over 10,000 terms across its threads, and
# the split changes the bits; longer rows are summed in chunks
_DOT_CHUNK = 8192


def _gram(d: np.ndarray) -> np.ndarray:
    """Dot products of every pair of rows, (..., M, n) -> (..., M, M), exactly
    symmetric on every BLAS kernel: superdiagonal k is one vecdot of two views
    of d, rows i and i + k, copying no row, and is mirrored below the diagonal
    (all M^2 dot products were not symmetric under OpenBLAS's Prescott kernel).
    Rows longer than _DOT_CHUNK are dotted chunk by chunk, each chunk's vecdot
    added in place to the sum of those before it, in order."""
    m, n = d.shape[-2:]
    out = np.empty(d.shape[:-1] + (m,))
    flat = out.reshape(d.shape[:-2] + (m * m,))
    for k in range(m):
        a, b = d[..., : m - k, :], d[..., k:, :]
        v = np.vecdot(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
        for c in range(_DOT_CHUNK, n, _DOT_CHUNK):
            v += np.vecdot(a[..., c : c + _DOT_CHUNK], b[..., c : c + _DOT_CHUNK])
        flat[..., k :: m + 1][..., : m - k] = v
        flat[..., k * m :: m + 1][..., : m - k] = v
    return out


def spectrum_set(p: WaveletPyramid, j1: int, j2: int) -> np.ndarray:
    """Wavelet spectra S(2^j), octaves j1..j2, stacked as (octaves, ..., M, M): S(2^j)
    is the exactly symmetric average of the outer products of the octave-j
    coefficients, and S(2^j) alone is ``spectrum_set(p, j, j)[0]``."""
    return np.stack([_gram(d) / d.shape[-1] for d in map(p.details, range(j1, j2 + 1))])


def windowed_spectra(p: WaveletPyramid, j: int, j2: int) -> np.ndarray:
    """Spectra over 2^(j2-j) disjoint windows of n_j2 coefficients at octave j.

    Window tau covers coefficient indices (tau-1)*n_j2 .. tau*n_j2 - 1;
    trailing coefficients beyond the last full window are discarded.  Returns
    (..., 2^(j2-j), M, M).
    """
    if not (1 <= j <= j2 <= p.j_max):
        raise ScaleUnavailable(f"need 1 <= j <= j2 <= {p.j_max}, got ({j}, {j2})")
    nw = p.counts[j2 - 1]
    _check_window(nw, p.m)
    n_windows = 2 ** (j2 - j)
    d = p.details(j)
    if d.shape[-1] < n_windows * nw:
        raise InsufficientCoefficients(
            f"octave {j} has {d.shape[-1]} coefficients, need {n_windows * nw}"
        )
    blocks = d[..., : n_windows * nw].reshape(*d.shape[:-1], n_windows, nw)
    return _gram(blocks.swapaxes(-3, -2)) / nw

