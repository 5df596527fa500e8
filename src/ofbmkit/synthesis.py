"""Exact Gaussian synthesis of multivariate fractional noise and motion.

The increment process of a mixture of correlated fractional Brownian motions
is stationary with a closed-form matrix covariance sequence.  Sample paths are
drawn by block-circulant embedding (Wood & Chan 1994; Helgason, Pipiras & Abry
2011): the covariance sequence is periodized over ``size`` lags and each
spectral matrix factored as B(f)^2, with the mixing W folded into the factor
sqrt(size) W B(f).  A draw is a Hermitian half-spectrum made from M * size
normals, mapped by that factor and one inverse real FFT.  Paths carry the
covariance W Gamma(k) W^T exactly whenever the embedding is positive
semidefinite; negative spectral mass is clipped and reported.

Memory: the factor is M^2 (size/2 + 1) doubles, built in place a block of
frequencies at a time, so the build peaks below twice the factor once the
factor spans a few blocks (``_BLOCK_VALUES``); a draw peaks at about four
times the path it returns.

Reproducibility: all randomness flows through a counter-based Philox generator
keyed by a 64-bit seed, and normal variates are produced by inverse-CDF from
fixed-point uniforms, so identical (params, n, seed) inputs give bit-identical
paths on any platform.  The map from normals to paths is named by ``RNG_ID``.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .errors import (
    EmbeddingFailed,
    MalformedInput,
    SeedOutOfRange,
    SeriesTooShort,
    ShapeMismatch,
)
from .model import ModelParams, params_to_dict

# Identifier of the seed -> path map, stored in output metadata.
RNG_ID = "philox4x64-10/u53/invnorm/hermitian-half"

# Above this relative clipped spectral mass the embedding is considered broken.
CLIP_TOL = 1e-6
# Negative eigenvalues below this relative magnitude count as numerical dust
# and do not trigger embedding doubling.
PSD_DUST_RTOL = 1e-12
# Spectral masses are summed with every |eigenvalue| below 2^_MASS_EXPONENT:
# the weighted sum of fewer than 2^62 such values stays finite.
_MASS_EXPONENT = 960
# Hard cap on embedding growth: sizes beyond 2^16 * n are not attempted.
MAX_SIZE_FACTOR = 2**16
# Seeds are Philox keys: unsigned 64-bit integers.
SEED_MAX = 2**64 - 1
# Values per block of the embedding build, and per slice of the normals' cast
_BLOCK_VALUES = 2**16
# Bound on a draw's inverse-FFT and cumulative sums per unit of the sum of |factor|
# entries: 2 sqrt(2) times the largest |normal| (|ndtri(2^-54)| = 8.29) is 23.45
_DRAW_GAIN = 24.0


def _check_seeds(first: int, count: int = 1) -> None:
    """Raise SeedOutOfRange unless the seeds first .. first + count - 1 are keys."""
    if not 0 <= first <= first + count - 1 <= SEED_MAX:
        seeds = f"seed {first}" if count == 1 else f"seeds {first}..{first + count - 1}"
        raise SeedOutOfRange(f"{seeds} outside the valid range 0..{SEED_MAX} (2^64 - 1)")


def gaussian_variates(seed: int, shape) -> np.ndarray:
    """Deterministic standard-normal array for a 64-bit seed.

    Philox raw 64-bit words are mapped to uniforms (k + 1/2) * 2^-53 and pushed
    through the inverse normal CDF; the layout of ``shape`` is part of the
    stream contract.  A seed outside 0 .. 2^64 - 1 raises SeedOutOfRange.
    """
    from scipy.special import ndtri  # imported here: estimate and sliding never load scipy

    _check_seeds(seed)
    # for the full uint64 range, Generator.integers returns these same words
    raw = np.random.Philox(key=np.uint64(seed)).random_raw(shape)
    raw >>= np.uint64(11)
    words, u = raw.reshape(-1), raw.view(np.float64).reshape(-1)
    # k + 1/2 written over k in slices: a ufunc copies a whole input that overlaps its output
    for i in range(0, u.size, _BLOCK_VALUES):
        np.add(words[i : i + _BLOCK_VALUES], 0.5, out=u[i : i + _BLOCK_VALUES])
    u *= 2.0**-53
    return ndtri(u, out=u).reshape(raw.shape)


def mfgn_covariance_matrices(p: ModelParams, lags) -> np.ndarray:
    """Stack of pre-mixing covariance matrices Gamma(k) for the given lags."""
    lags = np.atleast_1d(np.asarray(lags, dtype=int))
    hsum = p.hurst[:, None] + p.hurst[None, :]
    sig = p.sigma
    ak = np.abs(lags)[:, None, None].astype(float)
    h = hsum[None, :, :]
    return 0.5 * sig[None, :, :] * (np.abs(ak - 1) ** h - 2.0 * ak**h + (ak + 1) ** h)


@dataclass(frozen=True)
class EmbeddingReport:
    """Diagnostics of the circulant embedding actually used."""

    embedding_size: int
    min_spectral_eigenvalue: float
    clipped_mass: float


@dataclass(frozen=True)
class SamplePath:
    """An M x N realization plus the metadata needed to regenerate it."""

    data: np.ndarray
    params: ModelParams
    seed: int
    kind: str  # "mfGn" or "mfBm"

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2:
            raise ShapeMismatch("sample path data must be a 2-d array")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


class CirculantEmbedding:
    """Spectral factorization of the mfGn covariance, reusable across seeds.

    Precomputing the factorization once and drawing many seeds through
    :meth:`sample` is the fast path for Monte Carlo work.  The instance keeps
    only the factor, M^2 (size/2 + 1) doubles; building it peaks below twice
    that for a factor of more than a few blocks, and :meth:`sample` at about
    four times the returned path.
    """

    def __init__(self, params: ModelParams, n: int):
        if n < 2:
            raise SeriesTooShort(f"need at least 2 samples, got {n}")
        self.params = params
        self.n = int(n)

        size = 1
        while size < 2 * (self.n - 1):
            size *= 2
        size = max(size, 4)

        while True:
            with np.errstate(over="ignore", invalid="ignore"):  # overflow raises EmbeddingFailed
                factor, evals = self._factor_and_eigenvalues(params, size)
            # scaled by a power of two, which is exact, when the sums could overflow
            mags = np.abs(evals)
            mags = np.ldexp(mags, -max(0, int(np.frexp(mags.max())[1]) - _MASS_EXPONENT))
            neg = np.where(evals < 0.0, mags, 0.0)
            # f = 0 and f = size/2 occur once in the full spectrum, others twice
            wts = np.full(evals.shape[0], 2.0)
            wts[0] = 1.0
            wts[-1] = 1.0
            total = float(np.sum(wts[:, None] * mags))
            clipped = float(np.sum(wts[:, None] * neg))
            mass = clipped / total if total > 0.0 else 0.0
            if mass <= PSD_DUST_RTOL or size * 2 > MAX_SIZE_FACTOR * self.n:
                break
            size *= 2

        if mass > CLIP_TOL:
            raise EmbeddingFailed(
                f"embedding of size {size} clips {mass:.3e} of spectral mass "
                f"(tolerance {CLIP_TOL:.1e})"
            )

        self._factor = factor
        self.size = size
        self.report = EmbeddingReport(
            embedding_size=size,
            min_spectral_eigenvalue=float(evals.min()),
            clipped_mass=mass,
        )

    @staticmethod
    def _factor_and_eigenvalues(params: ModelParams, size: int):
        """Factor sqrt(size) W B(f) as (M, M, size/2 + 1), and the spectral eigenvalues.

        One buffer holds in turn the lag covariances, each pair's real spectrum
        and the factor, written over the spectrum a block of frequencies at a
        time.  Each frequency is factored on its own, so blocks change no bit.
        EmbeddingFailed is raised at the first block whose eigenvalues are not
        finite or that takes the sum of |factor| entries, times _DRAW_GAIN,
        past double range: below that, no draw's inverse FFT or cumulative sum
        can overflow.
        """
        m, half, w = params.m, size // 2, params.mixing
        buf = np.empty((m, m, half + 1))
        step = max(1, _BLOCK_VALUES // (m * m))
        blocks = [slice(f, min(f + step, half + 1)) for f in range(0, half + 1, step)]
        for blk in blocks:
            gam = mfgn_covariance_matrices(params, np.arange(blk.start, blk.stop))
            buf[:, :, blk] = np.moveaxis(gam, 0, -1)

        def spectrum(c):  # of the lags periodized over size: symmetric, so real
            return np.fft.rfft(np.concatenate((c, c[-2:0:-1]))).real

        # both orders of a pair: sigma need not be symmetric in the last bit
        for i, j in combinations_with_replacement(range(m), 2):
            lam = spectrum(buf[i, j])
            buf[i, j] = buf[j, i] = 0.5 * (lam + (lam if i == j else spectrum(buf[j, i])))
        evals = np.empty((half + 1, m))
        reach = 0.0  # sum of |factor| entries so far
        for blk in blocks:
            vals, vecs = np.linalg.eigh(np.moveaxis(buf[:, :, blk], -1, 0))
            evals[blk] = vals
            # B(f) = U sqrt(L) U^T, real symmetric PSD, one matrix per frequency
            b = (vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]) @ np.swapaxes(vecs, 1, 2)
            np.multiply(np.moveaxis(w @ b, 0, -1), np.sqrt(size), out=buf[:, :, blk])
            reach += np.abs(buf[:, :, blk]).sum()
            if not (np.isfinite(vals).all() and np.isfinite(_DRAW_GAIN * reach)):
                raise EmbeddingFailed(
                    f"embedding of size {size} overflows double precision: the model's scale "
                    "is too large"
                )
        return buf, evals

    def sample(self, seed: int, kind: str = "mfGn") -> SamplePath:
        """Draw one mixed M x n realization for the given seed.

        The seed gives M * size normals, mapped by :meth:`_paths` through a
        Hermitian half-spectrum; ``kind="mfBm"`` returns their cumulative sum.
        """
        # no reference to the normals is kept here, so _paths can free them
        data = self._paths(gaussian_variates(seed, (self.params.m, self.size)))
        if kind == "mfBm":
            np.cumsum(data, axis=1, out=data)
        return SamplePath(data=data, params=self.params, seed=int(seed), kind=kind)

    def _paths(self, z: np.ndarray) -> np.ndarray:
        """Linear map from (M, size) standard normals to M x n mixed increments.

        Column f of ``z`` is the noise at frequency f of the full spectrum;
        its Hermitian part is drawn: real z[0] and z[size/2], and
        (z[f] + z[size - f]) / 2 + i (z[f] - z[size - f]) / 2 in between.
        ``z`` is never written; each intermediate is dropped once used.
        """
        m, half = self.params.m, self.size // 2
        mirror = z[:, :half:-1]  # frequencies size - f for f = 1..size/2 - 1
        re = z[:, : half + 1].copy()
        np.add(z[:, 1:half], mirror, out=re[:, 1:half])
        re[:, 1:half] *= 0.5
        im = z[:, 1:half] - mirror
        im *= 0.5
        del z, mirror
        spec = np.empty((m, half + 1, 2))  # real and imaginary parts
        np.einsum("ijf,jf->if", self._factor, re, out=spec[..., 0])
        np.einsum("ijf,jf->if", self._factor[:, :, 1:half], im, out=spec[:, 1:half, 1])
        del re, im
        spec[:, [0, half], 1] = 0.0
        x = np.fft.irfft(spec.view(complex)[..., 0], n=self.size, axis=1)
        return x[:, : self.n]

    def realized_covariance(self, max_lag: int) -> np.ndarray:
        """Exact mixed covariance of the sampling map, lags 0..max_lag.

        The factor F(f) = sqrt(size) W B(f) gives F F^T / size = W B(f)^2 W^T,
        the mixed (possibly clipped) spectral matrix, so its inverse FFT equals
        W Gamma(k) W^T whenever nothing was clipped.
        """
        f = self._factor
        spec = np.einsum("ijf,kjf->fik", f, f) / self.size
        return np.fft.irfft(spec, n=self.size, axis=0)[: max_lag + 1]


# ---------------------------------------------------------------------------
# On-disk formats: CSV (t, c1..cM) and raw float64 + JSON sidecar
# ---------------------------------------------------------------------------

# Rows per write: the writers hold one chunk of formatted rows (and of the
# samples as Python floats) at a time, never the whole table.
_CHUNK_ROWS = 4096


def table_to_csv(fh, header, rows) -> None:
    """Write a header row, then one line per row of values.

    Each field is ``str`` of its value (for a float the shortest repr), lines
    end in CRLF and nothing is quoted: no output field holds a comma, a quote
    or a line end.  A ``%s`` template formats a whole row in one call, which
    is faster than calling ``str`` on each value.  Rows are written
    ``_CHUNK_ROWS`` at a time, so the whole text is never held in memory.
    """
    fh.write(",".join(header) + "\r\n")
    lines = map((",".join(["%s"] * len(header)) + "\r\n").__mod__, rows)
    while chunk := "".join(islice(lines, _CHUNK_ROWS)):
        fh.write(chunk)


def path_to_csv(path: SamplePath, fh) -> None:
    """Write the ``t,c1..cM`` layout, turning samples into floats a chunk at a time."""
    header = ["t"] + [f"c{i + 1}" for i in range(path.m)]
    cuts = range(_CHUNK_ROWS, path.n, _CHUNK_ROWS)
    columns = [
        chain.from_iterable(map(np.ndarray.tolist, np.split(row, cuts))) for row in path.data
    ]
    table_to_csv(fh, header, zip(range(path.n), *columns))


def path_from_csv(fh) -> np.ndarray:
    """Read an M x N array back from the CSV layout written by path_to_csv."""
    return series_from_csv(fh)[0]


# One record, the header: a field that opens with a quote runs to the next
# lone quote and may hold commas and line ends ("" inside it stands for one
# quote); anywhere else a quote is an ordinary character.  These are the
# rules of the csv module's default dialect, which np.loadtxt(quotechar='"')
# follows as well.  The pattern matches UTF-8 bytes.
_RECORD = re.compile(rb'(?:[^"\n]+|"(?<![^,\n]")[^"]*(?:""[^"]*)*"?|")*')
# np.loadtxt's messages for a row with the wrong field count (its rows counted
# from 1) and for a sample that is not a number (its rows counted from 0)
_WRONG_COUNT = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")
_NOT_A_NUMBER = re.compile(r"string (.*) to float64 at row (\d+), column (\d+)")


def _load(lines, **kwargs) -> np.ndarray:
    return np.loadtxt(
        lines, delimiter=",", comments=None, quotechar='"', encoding="utf-8", ndmin=1, **kwargs
    )


def _row_dtype(names, label: int | None) -> np.dtype:
    """One field per column: U1 for ``t`` (never parsed), object for the label, else f8."""
    kinds = ["U1" if name == "t" else "f8" for name in names]
    if label is not None:
        kinds[label] = "O"
    return np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])


def series_from_csv(fh, label_column: str | None = None):
    """(M x N samples, labels or None) from a series CSV with a header row.

    Columns named ``t`` are dropped wherever they stand; with
    ``label_column``, that column is split off as the labels.  An empty
    file, a ragged row, a non-numeric sample or a missing label column
    raises MalformedInput; when the body holds several, the first bad row
    is named (and a non-numeric sample's column, by number and header).
    Lines end in LF, CRLF or CR (read as LF inside a quoted field too) and
    fields follow the csv module's quoting.  Samples are parsed by
    np.loadtxt, which gives the same doubles as float() but accepts only
    ASCII numerals without underscores.  A lone surrogate, which has no
    UTF-8 form, reads as its ``\\uXXXX`` escape, so a sample holding one is
    non-numeric.

    The text is encoded once and the body read from that buffer by one
    np.loadtxt pass with a field per column, which also checks each row's
    field count, so a read peaks at about twice the size of the text.
    """
    buf = fh.read().encode("utf-8", "backslashreplace")
    if b"\r" in buf:
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    first = _RECORD.match(buf).group()
    if not first:
        raise MalformedInput("empty series file")
    header = _load([first], dtype=object).tolist()
    names = [name.strip().lower() for name in header]
    label = None
    if label_column is not None:
        if label_column.lower() not in names:
            raise MalformedInput(f"no column named {label_column!r} in {header}")
        label = names.index(label_column.lower())
    cols = [i for i, name in enumerate(names) if name != "t" and i != label]
    start = len(first)
    # a body of nothing but line ends holds no record
    if not cols or buf.count(b"\n", start) == len(buf) - start:
        raise MalformedInput("series file holds no samples")
    body = io.BytesIO(buf)
    body.seek(start)
    try:
        rows = _load(body, dtype=_row_dtype(names, label))
    except ValueError as exc:
        if wrong := _WRONG_COUNT.search(str(exc)):
            required, found, row = wrong.groups()
            message = f"data row {row} has {found} fields, the header {required}"
            raise MalformedInput(message) from exc
        if bad := _NOT_A_NUMBER.search(str(exc)):
            value, row, column = bad.groups()
            hint = "" if label is not None else (
                "; estimate and unlabelled sliding read numeric columns only"
                " (sliding --label-column takes labels)"
            )
            raise MalformedInput(
                f"non-numeric sample {value} in data row {int(row) + 1}, column {column}"
                f" ({header[int(column) - 1]!r}){hint}"
            ) from exc
        raise MalformedInput(f"unreadable series file: {exc}") from exc
    fields = rows.dtype.names
    data = np.stack([rows[fields[i]] for i in cols])
    return data, None if label is None else rows[fields[label]].astype(str)


def path_sidecar(path: SamplePath) -> dict:
    return {
        "M": path.m,
        "N": path.n,
        "seed": path.seed,
        "kind": path.kind,
        "params": params_to_dict(path.params),
        "rng": RNG_ID,
    }


def path_to_binary(path: SamplePath, data_file, sidecar_file) -> None:
    """Raw little-endian float64, component-contiguous, plus a JSON sidecar."""
    arr = np.ascontiguousarray(path.data, dtype="<f8")
    data_file.write(arr.tobytes())
    sidecar_file.write(json.dumps(path_sidecar(path), indent=2, allow_nan=False))
    sidecar_file.write("\n")


def path_from_binary(data_file, sidecar_file) -> tuple[np.ndarray, dict]:
    """(M x N samples, sidecar) from the pair path_to_binary writes.

    A sidecar without positive integer ``M`` and ``N``, or a data file that
    does not hold exactly M * N * 8 bytes, raises MalformedInput.
    """
    meta = json.load(sidecar_file)
    shape = [meta.get("M"), meta.get("N")] if isinstance(meta, dict) else [None, None]
    if not all(type(k) is int and k > 0 for k in shape):
        raise MalformedInput(f"binary sidecar needs positive integers M and N, got {shape}")
    raw = data_file.read()
    if len(raw) != 8 * shape[0] * shape[1]:
        raise MalformedInput(
            f"binary file holds {len(raw)} bytes, the sidecar's {shape[0]} x {shape[1]} "
            f"float64 samples need {8 * shape[0] * shape[1]}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape), meta
