"""Model parameterizations for mixtures of correlated fractional Brownian motions.

A model is one :class:`ModelParams`: a sorted vector of Hurst exponents ``H``,
an intrinsic covariance ``Sigma`` (given as per-component variances plus a
correlation matrix) and an invertible mixing matrix ``W``.  It is valid by
construction: besides the obvious shape and range constraints, building one
enforces the pairwise feasibility bound that couples how far apart two Hurst
exponents may be for a given cross-correlation.  :func:`make_params` builds one
from plain arrays, :func:`load_params` from a JSON document.
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


def _assemble(var: np.ndarray, rho: np.ndarray) -> np.ndarray:
    s = np.sqrt(var)
    return s[:, None] * rho * s[None, :]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Validated (H, Sigma, W) triple, held as four read-only arrays.

    ``hurst`` is the sorted vector H, ``variances`` and ``correlations`` give
    Sigma and ``mixing`` is W.  Construction checks, in this order and raising
    at the first failure: Sigma (the shapes; positive, finite variances; a
    symmetric correlation matrix with a unit diagonal and entries in [-1, 1];
    a finite trace; positive semidefiniteness), H (one-dimensional and
    nonempty; each exponent in (0, 1); nondecreasing, never reordered), W
    (square; finite; numerically invertible), that all three have the same
    dimension, and the feasibility bound :func:`rho_max` on every pair.

    Raises the specific :class:`~ofbmkit.errors.ModelValidationError` subclass
    naming what failed; :class:`~ofbmkit.errors.CorrelationInfeasible` carries
    the offending pair and its bound.
    """

    hurst: np.ndarray
    variances: np.ndarray
    correlations: np.ndarray
    mixing: np.ndarray

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
        with np.errstate(over="ignore"):  # an overflow shows in the trace
            sigma = _assemble(var, rho)
            trace = np.trace(sigma)
        if not np.isfinite(trace):
            raise CovarianceNotPSD(
                "assembled covariance overflows double precision: the variances are too large"
            )
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] < -PSD_RTOL * trace:
            raise CovarianceNotPSD(
                f"assembled covariance has eigenvalue {eigs[0]:.3e} below the PSD tolerance"
            )

        h = np.atleast_1d(np.asarray(self.hurst, dtype=float))
        if h.ndim != 1 or h.size < 1:
            raise DimensionMismatch("Hurst vector must be one-dimensional and nonempty")
        if np.any(h <= 0.0) or np.any(h >= 1.0) or not np.all(np.isfinite(h)):
            raise HurstOutOfRange(f"Hurst exponents must lie in (0, 1), got {h}")
        if np.any(np.diff(h) < 0.0):
            raise HurstUnsorted(
                f"Hurst exponents must be nondecreasing, got {h}; "
                "reorder components explicitly rather than relying on sorting"
            )

        w = np.asarray(self.mixing, dtype=float)
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

        if not (h.size == m == w.shape[0]):
            raise DimensionMismatch(
                f"inconsistent dimensions: H has {h.size}, Sigma has {m}, W has {w.shape[0]}"
            )
        rho = 0.5 * (rho + rho.T)
        for a in range(m):
            for b in range(a + 1, m):
                bound = rho_max(h[a], h[b])
                if rho[a, b] ** 2 > bound**2 + FEAS_SLACK:
                    raise CorrelationInfeasible(a, b, float(rho[a, b]), bound)

        for name, value in (("hurst", h), ("variances", var), ("correlations", rho), ("mixing", w)):
            value = np.array(value)  # the checked arrays can be views of the caller's
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.hurst.size

    @property
    def sigma(self) -> np.ndarray:
        """Assembled covariance matrix diag(sigma) @ rho @ diag(sigma)."""
        return _assemble(self.variances, self.correlations)


@dataclass(frozen=True, eq=False)
class OfbmEquivalent:
    """Operator-selfsimilar reparameterization (A A*, Hurst matrix, gain matrix),
    built by :func:`ofbm_equivalent` only, which makes the arrays read-only."""

    aastar: np.ndarray
    hurst_matrix: np.ndarray
    g_matrix: np.ndarray


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


def make_params(h, variances, correlations=None, mixing=None) -> ModelParams:
    """The documented constructor: a :class:`ModelParams` from plain arrays.

    ``correlations`` defaults to the identity and ``mixing`` to the identity;
    a single variance is repeated for every component.
    """
    hvals = np.atleast_1d(np.asarray(h, dtype=float))
    m = hvals.size
    var = np.atleast_1d(np.asarray(variances, dtype=float))
    if var.size == 1 and m > 1:
        var = np.full(m, float(var[0]))
    rho = np.eye(m) if correlations is None else np.asarray(correlations, dtype=float)
    wmat = np.eye(m) if mixing is None else np.asarray(mixing, dtype=float)
    return ModelParams(hvals, var, rho, wmat)


def ofbm_equivalent(p: ModelParams) -> OfbmEquivalent:
    """Map validated parameters to the operator-selfsimilar form.

    Returns the symmetric PSD matrix ``A A* = W (G o Sigma) W^T`` (``o`` the
    entrywise product), the Hurst matrix ``W diag(H) W^{-1}`` and the gain
    matrix ``G`` itself.
    """
    hvals, m, wmat = p.hurst, p.m, p.mixing
    g = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            hs = hvals[a] + hvals[b]
            g[a, b] = math.gamma(hs + 1.0) * math.sin(0.5 * math.pi * hs) / (2.0 * math.pi)
    aastar = wmat @ (g * p.sigma) @ wmat.T
    aastar = 0.5 * (aastar + aastar.T)
    hurst_matrix = wmat @ np.diag(hvals) @ np.linalg.inv(wmat)
    for arr in (aastar, hurst_matrix, g):
        arr.setflags(write=False)
    return OfbmEquivalent(aastar=aastar, hurst_matrix=hurst_matrix, g_matrix=g)


# ---------------------------------------------------------------------------
# JSON interface: {"H": [...], "var": [...], "rho": [[...]], "W": [[...]]}
# ---------------------------------------------------------------------------

def params_to_dict(p: ModelParams) -> dict:
    return {
        "H": p.hurst.tolist(),
        "var": p.variances.tolist(),
        "rho": p.correlations.tolist(),
        "W": p.mixing.tolist(),
    }


def params_to_json(p: ModelParams) -> str:
    return json.dumps(params_to_dict(p), indent=2)


def params_from_json(text: str) -> ModelParams:
    doc = json.loads(text)
    try:
        arrays = [np.asarray(doc[key], dtype=float) for key in ("H", "var", "rho", "W")]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed parameter document: {exc}") from exc
    return ModelParams(*arrays)


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return params_from_json(fh.read())
