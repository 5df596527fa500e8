"""Estimate the Hurst vector of a mixed path three ways.

Mixing spreads every component's spectrum across all the exponents, so
per-component (univariate) regressions are biased; regressions on the
eigenvalues of the wavelet spectrum disentangle the exponents.  The
bias-corrected variant additionally equalizes the eigenvalue repulsion across
scales by windowing.
"""

import numpy as np

from ofbmkit import analyze, make_params
from ofbmkit.synthesis import CirculantEmbedding

H_TRUE = np.array([0.4, 0.8])
params = make_params(
    H_TRUE,
    [1.0, 1.0],
    [[1.0, 0.3], [0.3, 1.0]],
    [[1.0, 0.6], [-0.5, 1.0]],
)

n = 2**15
path = CirculantEmbedding(params, n).sample(seed=2, kind="mfBm")
rec = analyze(path.data, j1=6, j2=10)

print(f"true H = {H_TRUE}")
print(f"univariate       H^U    = {np.round(rec.h_u, 3)}   (biased: mixing)")
print(f"multivariate     H^M    = {np.round(rec.h_m, 3)}")
print(f"bias-corrected   H^M,bc = {np.round(rec.h_m_bc, 3)}")

print("\nlog2 eigenvalues of the wavelet spectrum per octave (slope ~ 2H+1):")
print("  j | sorted log2 eigenvalues | window-averaged")
for row, j in enumerate(range(rec.weights.j1, rec.weights.j2 + 1)):
    print(f"  {j} | {np.round(rec.log_eig[row], 2)} | {np.round(rec.log_eig_bc[row], 2)}")

slopes = np.diff(rec.log_eig, axis=0).mean(axis=0)
print("\nmean per-octave slope of log2 eigenvalues:", np.round(slopes, 3))
print("targets 2H+1 =", 2 * H_TRUE + 1)
