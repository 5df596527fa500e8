"""Draw exact-covariance sample paths and verify them against theory.

Synthesis is by block-circulant embedding of the increment covariance; the
paths are Gaussian with the target covariance exactly (up to reported spectral
clipping, which is zero here).  Everything is reproducible from a 64-bit seed.
"""

import numpy as np

from ofbmkit import make_params
from ofbmkit.synthesis import CirculantEmbedding, mfgn_covariance_matrices

params = make_params(
    [0.4, 0.7],
    [1.0, 1.0],
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.0, 0.4], [-0.3, 1.2]],
)

emb = CirculantEmbedding(params, n=512)
print("embedding:", emb.report)

path = emb.sample(seed=7, kind="mfGn")
again = emb.sample(seed=7, kind="mfGn")
print("bit-identical for equal seeds:", np.array_equal(path.data, again.data))

print("\nempirical vs exact lag-0..3 covariance over 4000 realizations:")
nreal = 4000
acc = np.zeros((4, 2, 2))
for r in range(nreal):
    x = emb.sample(seed=1000 + r).data
    for k in range(4):
        acc[k] += x[:, k:] @ x[:, : 512 - k].T / (512 - k)
acc /= nreal
w = params.mixing
theory = np.einsum("ij,fjk,lk->fil", w, mfgn_covariance_matrices(params, np.arange(4)), w)
for k in range(4):
    err = np.abs(acc[k] - theory[k]).max()
    print(f"  lag {k}: max |empirical - theory| = {err:.4f}")

print("\nclosed-form covariance of the sampling map (no Monte Carlo):")
print("  max error over lags 0..31:",
      f"{np.abs(emb.realized_covariance(31) - np.einsum('ij,fjk,lk->fil', w, mfgn_covariance_matrices(params, np.arange(32)), w)).max():.2e}")

bm = emb.sample(seed=7, kind="mfBm")
print("\nmfBm path = cumulative increments; first values:", np.round(bm.data[:, :4], 4))
