"""Benchmark the three estimators over independent realizations.

Equal exponents make the spectrum eigenvalues nearly degenerate, which is
where finite-sample eigenvalue repulsion hurts the plain multivariate
estimator; windowing repairs it.  The harness is deterministic: realization r
always uses seed0 + r, so thread count never changes the report.
"""

import numpy as np

from ofbmkit import McConfig, run_mc, make_params

m = 4
idx = np.arange(m)
rho = 0.7 ** np.abs(idx[:, None] - idx[None, :])
mix = np.array(
    [
        [1.0, 0.5, -0.3, 0.2],
        [-0.4, 1.1, 0.3, -0.2],
        [0.2, -0.3, 0.9, 0.4],
        [0.1, 0.2, -0.5, 1.2],
    ]
)
params = make_params([0.6] * m, np.ones(m), rho, mix)

cfg = McConfig(params=params, n=2**13, n_mc=200, seed0=1)
rep = run_mc(cfg, threads=4)

print(f"N = 2^13, {cfg.n_mc} realizations, octaves {cfg.weights.j1}..{cfg.weights.j2}, equal H = 0.6\n")
print("spectral norms of the performance matrices:")
print("  estimator |   bias^2   |    cov     |    mse")
for code, label in (("U", "univariate"), ("M", "multivar"), ("BC", "corrected")):
    sn = rep.stats[code]["spectral_norms"]
    print(f"  {label:9s} | {sn['bias2']:.3e} | {sn['cov']:.3e} | {sn['mse']:.3e}")

print("\nrepulsion bias pushes the plain multivariate estimates apart:")
for code in ("M", "BC"):
    print(f"  mean H^{code}: {np.round(rep.estimates[code].mean(axis=0), 3)}")

print("\nvariance against the closed-form approximation V_N:")
print("  V_N =", f"{cfg.v_n:.3e}")
for code in ("U", "M", "BC"):
    ratio = rep.estimates[code].var(axis=0, ddof=1) / cfg.v_n
    print(f"  Var(H^{code})/V_N per component: {np.round(ratio, 2)}")
