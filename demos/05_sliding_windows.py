"""Track selfsimilarity over time and compare two regimes.

A long bivariate series switches Hurst regime halfway through.  Sliding-window
estimates pick up the change; Wilcoxon rank-sum tests per component with a
Benjamini-Hochberg correction flag which components differ between regimes.
"""

import numpy as np

from ofbmkit import bh_reject, make_params, sliding_window_estimates, wilcoxon_ranksum
from ofbmkit.synthesis import CirculantEmbedding

half = 2**14
low = make_params([0.5, 0.6], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]])
high = make_params([0.7, 0.8], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]])
x = np.concatenate(
    [
        CirculantEmbedding(low, half).sample(11, kind="mfBm").data,
        CirculantEmbedding(high, half).sample(12, kind="mfBm").data,
    ],
    axis=1,
)

window, hop = 4096, 2048
records = sliding_window_estimates(x, window=window, hop=hop, j1=2, j2=6)
print(f"{len(records)} windows of {window} samples, hop {hop}\n")
print("  start | H^M,bc per window")
for rec in records:
    print(f"  {rec.t_start:6d} | {np.round(rec.h_m_bc, 3)}")

labels = np.array([rec.t_start + window // 2 >= half for rec in records])
est = np.stack([rec.h_m_bc for rec in records])
pvals = [
    wilcoxon_ranksum(est[~labels, m], est[labels, m]) for m in range(est.shape[1])
]
print("\nrank-sum p-values per component:", np.round(pvals, 5))
rep = bh_reject(pvals, alpha=0.05)
print("step-up thresholds:", np.round(rep["bh_thresholds"], 4))
print("rejected (sorted order):", rep["rejected"])
flagged = [i + 1 for i, rejected in zip(rep["original_indices"], rep["rejected"]) if rejected]
print("components flagged:", flagged)
