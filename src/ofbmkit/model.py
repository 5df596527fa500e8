"""Model parameterizations for mixtures of correlated fractional Brownian motions.

A model is specified by a sorted vector of Hurst exponents ``H``, an intrinsic
covariance ``Sigma`` (given as per-component variances plus a correlation
matrix) and an invertible mixing matrix ``W``.  Validation enforces, besides
the obvious shape and range constraints, the pairwise feasibility bound that
couples how far apart two Hurst exponents may be for a given cross-correlation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorrelationInfeasible,
    CovarianceNotPSD,
    DimensionMismatch,
    HurstOutOfRange,
    HurstUnsorted,
    SingularMixing,
)

# Relative cutoffs for the scale-invariant invertibility and PSD tests.
DET_RTOL = 1e-10
PSD_RTOL = 1e-10
# Slack when comparing rho^2 against rho_max^2, so that boundary-feasible
# parameter sets survive round-trips through JSON.
FEAS_SLACK = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HurstVector:
    """Sorted vector of selfsimilarity exponents, each in (0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch("Hurst vector must be one-dimensional and nonempty")
        if np.any(v <= 0.0) or np.any(v >= 1.0) or not np.all(np.isfinite(v)):
            raise HurstOutOfRange(f"Hurst exponents must lie in (0, 1), got {v}")
        if np.any(np.diff(v) < 0.0):
            raise HurstUnsorted(
                f"Hurst exponents must be nondecreasing, got {v}; "
                "reorder components explicitly rather than relying on sorting"
            )
        object.__setattr__(self, "values", _readonly(v))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class IntrinsicCovariance:
    """Pre-mixing covariance: per-component variances and a correlation matrix."""

    variances: np.ndarray
    correlations: np.ndarray

    def __post_init__(self):
        var = np.atleast_1d(np.asarray(self.variances, dtype=float))
        rho = np.asarray(self.correlations, dtype=float)
        m = var.size
        if var.ndim != 1 or rho.shape != (m, m):
            raise DimensionMismatch(
                f"expected {m} variances and a {m}x{m} correlation matrix, "
                f"got shapes {var.shape} and {rho.shape}"
            )
        if np.any(var <= 0.0) or not np.all(np.isfinite(var)):
            raise CovarianceNotPSD(f"variances must be positive, got {var}")
        if not np.allclose(rho, rho.T, rtol=0.0, atol=1e-12):
            raise CovarianceNotPSD("correlation matrix is not symmetric")
        if not np.allclose(np.diag(rho), 1.0, rtol=0.0, atol=1e-12):
            raise CovarianceNotPSD("correlation matrix must have a unit diagonal")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise CovarianceNotPSD("correlation entries must lie in [-1, 1]")
        sigma = self._assemble(var, rho)
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] < -PSD_RTOL * np.trace(sigma):
            raise CovarianceNotPSD(
                f"assembled covariance has eigenvalue {eigs[0]:.3e} below the PSD tolerance"
            )
        object.__setattr__(self, "variances", _readonly(var))
        object.__setattr__(self, "correlations", _readonly(0.5 * (rho + rho.T)))

    @staticmethod
    def _assemble(var: np.ndarray, rho: np.ndarray) -> np.ndarray:
        s = np.sqrt(var)
        return s[:, None] * rho * s[None, :]

    @property
    def m(self) -> int:
        return self.variances.size

    @property
    def sigma(self) -> np.ndarray:
        """Assembled covariance matrix diag(sigma) @ rho @ diag(sigma)."""
        return self._assemble(self.variances, self.correlations)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Invertible matrix blending the component processes."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatch(f"mixing matrix must be square, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise SingularMixing(f"mixing matrix entries must be finite, got {w.tolist()}")
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] < DET_RTOL * sv[0] or sv[0] == 0.0:
            raise SingularMixing(
                f"mixing matrix is numerically singular (sigma_min/sigma_max = "
                f"{sv[-1] / sv[0] if sv[0] else 0.0:.3e})"
            )
        object.__setattr__(self, "entries", _readonly(w))

    @property
    def m(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Validated (H, Sigma, W) triple. Construct through :func:`validate_params`."""

    hurst: HurstVector
    sigma: IntrinsicCovariance
    mixing: MixingMatrix

    @property
    def m(self) -> int:
        return self.hurst.m


@dataclass(frozen=True, eq=False)
class OfbmEquivalent:
    """Operator-selfsimilar reparameterization (A A*, Hurst matrix, gain matrix)."""

    aastar: np.ndarray
    hurst_matrix: np.ndarray
    g_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "aastar", _readonly(self.aastar))
        object.__setattr__(self, "hurst_matrix", _readonly(self.hurst_matrix))
        object.__setattr__(self, "g_matrix", _readonly(self.g_matrix))


def rho_max(h1: float, h2: float) -> float:
    """Largest feasible cross-correlation magnitude for a pair of Hurst exponents.

    Symmetric in its arguments and equal to 1 when ``h1 == h2``; decays as the
    two exponents move apart.
    """
    for h in (h1, h2):
        if not (0.0 < h < 1.0):
            raise HurstOutOfRange(f"Hurst exponent {h} outside (0, 1)")
    num = (
        math.gamma(2.0 * h1 + 1.0)
        * math.gamma(2.0 * h2 + 1.0)
        * math.sin(math.pi * h1)
        * math.sin(math.pi * h2)
    )
    den = math.gamma(h1 + h2 + 1.0) * math.sin(0.5 * math.pi * (h1 + h2))
    return math.sqrt(num) / den


def validate_params(
    h: HurstVector | np.ndarray,
    s: IntrinsicCovariance,
    w: MixingMatrix | np.ndarray,
) -> ModelParams:
    """Validate a raw (H, Sigma, W) triple into :class:`ModelParams`.

    Accepts either the typed wrappers or raw arrays (variances/correlations
    must already be wrapped in :class:`IntrinsicCovariance`).  Never reorders
    the Hurst vector; an unsorted vector is an error.

    Raises the specific :class:`~ofbmkit.errors.ModelValidationError` subclass
    naming what failed; :class:`~ofbmkit.errors.CorrelationInfeasible` carries
    the offending pair and its bound.
    """
    hv = h if isinstance(h, HurstVector) else HurstVector(np.asarray(h))
    wm = w if isinstance(w, MixingMatrix) else MixingMatrix(np.asarray(w))
    if not (hv.m == s.m == wm.m):
        raise DimensionMismatch(
            f"inconsistent dimensions: H has {hv.m}, Sigma has {s.m}, W has {wm.m}"
        )
    hvals = hv.values
    rho = s.correlations
    for a in range(hv.m):
        for b in range(a + 1, hv.m):
            bound = rho_max(hvals[a], hvals[b])
            if rho[a, b] ** 2 > bound**2 + FEAS_SLACK:
                raise CorrelationInfeasible(a, b, float(rho[a, b]), bound)
    return ModelParams(hv, s, wm)


def make_params(
    h, variances, correlations=None, mixing=None
) -> ModelParams:
    """Convenience constructor from plain arrays.

    ``correlations`` defaults to the identity and ``mixing`` to the identity.
    """
    hvals = np.atleast_1d(np.asarray(h, dtype=float))
    m = hvals.size
    var = np.atleast_1d(np.asarray(variances, dtype=float))
    if var.size == 1 and m > 1:
        var = np.full(m, float(var[0]))
    rho = np.eye(m) if correlations is None else np.asarray(correlations, dtype=float)
    wmat = np.eye(m) if mixing is None else np.asarray(mixing, dtype=float)
    return validate_params(hvals, IntrinsicCovariance(var, rho), wmat)


def ofbm_equivalent(p: ModelParams) -> OfbmEquivalent:
    """Map validated parameters to the operator-selfsimilar form.

    Returns the symmetric PSD matrix ``A A* = W (G o Sigma) W^T`` (``o`` the
    entrywise product), the Hurst matrix ``W diag(H) W^{-1}`` and the gain
    matrix ``G`` itself.
    """
    hvals = p.hurst.values
    m = p.m
    g = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            hs = hvals[a] + hvals[b]
            g[a, b] = math.gamma(hs + 1.0) * math.sin(0.5 * math.pi * hs) / (2.0 * math.pi)
    wmat = p.mixing.entries
    aastar = wmat @ (g * p.sigma.sigma) @ wmat.T
    aastar = 0.5 * (aastar + aastar.T)
    hurst_matrix = wmat @ np.diag(hvals) @ np.linalg.inv(wmat)
    return OfbmEquivalent(aastar=aastar, hurst_matrix=hurst_matrix, g_matrix=g)


# ---------------------------------------------------------------------------
# JSON interface: {"H": [...], "var": [...], "rho": [[...]], "W": [[...]]}
# ---------------------------------------------------------------------------

def params_to_dict(p: ModelParams) -> dict:
    return {
        "H": p.hurst.values.tolist(),
        "var": p.sigma.variances.tolist(),
        "rho": p.sigma.correlations.tolist(),
        "W": p.mixing.entries.tolist(),
    }


def params_from_dict(d: dict) -> ModelParams:
    try:
        h = np.asarray(d["H"], dtype=float)
        var = np.asarray(d["var"], dtype=float)
        rho = np.asarray(d["rho"], dtype=float)
        wmat = np.asarray(d["W"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed parameter document: {exc}") from exc
    return validate_params(h, IntrinsicCovariance(var, rho), wmat)


def params_to_json(p: ModelParams) -> str:
    return json.dumps(params_to_dict(p), indent=2)


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_json(fh.read())
