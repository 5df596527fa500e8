"""Multivariate selfsimilar process synthesis and Hurst-vector estimation.

Build a model with :func:`make_params` (or read one with
:func:`load_params`): a :class:`ModelParams`, checked in full when it is
made, so every instance is a valid model.  Draw paths with a
:class:`CirculantEmbedding` (reusable across seeds), and estimate the
exponent vector with :func:`analyze` or benchmark estimators with
:func:`run_mc`.
"""

__version__ = "0.1.0"

from .analysis import (
    GroupTestReport,
    McConfig,
    McReport,
    bh_reject,
    chi2_quantiles,
    estimate_correlation,
    mahalanobis_samples,
    performance_matrices,
    run_mc,
    sliding_window_estimates,
    spectral_norm,
    v_n_approx,
    wilcoxon_ranksum,
)
from .errors import OfbmkitError
from .estimation import (
    EstimateRecord,
    RegressionWeights,
    ScalingRangeConfig,
    analyze,
    octave_range,
    regression_weights,
    scaling_range,
    sorted_eigenvalues,
)
from .model import (
    ModelParams,
    OfbmEquivalent,
    load_params,
    make_params,
    ofbm_equivalent,
    params_from_json,
    params_to_json,
    rho_max,
)
from .synthesis import (
    CirculantEmbedding,
    EmbeddingReport,
    SamplePath,
)
from .wavelet import (
    WaveletFilter,
    WaveletPyramid,
    dwt,
    filter_bank,
    spectrum_set,
    wavelet_spectrum,
    windowed_spectra,
)
