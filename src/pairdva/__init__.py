"""Simulation and diagnosis toolkit for parallel-connected Li-ion cell
pairs: constant-current discharge of an OCV-R pair, dV/dQ peak shape
features (height, Fisher skewness), and inversion of the capacity-times-
resistance imbalance product.
"""

from .errors import (ConfigError, EmptyWindowError, FeatureError, FitWarning,
                     FormatError, IdentifyError, IntegrationError, NoPeakError,
                     PairDvaError, SpanError, SweepError)
from .kernels import backend, docv_dz, ocv
from .pairsim import (CellParams, PairSpec, SimConfig, SimTrace, make_pair,
                      simulate_cc_discharge, single_cell_reference)
from .signal import (DvDqCurve, PeakSample, SmoothingConfig, VOLTAGE_WINDOW,
                     downselect_window, dvdq_curve, peak_height,
                     resample_uniform_q)
from .features import (AnalysisConfig, PeakFeatures, SurrogateFit,
                       extract_features, fit_positive_surrogate,
                       skewness_pipeline, weighted_skewness)
from .sweep import (Candidate, FeatureMap, GridConfig, IdentificationResult,
                    ProductBin, ProductCurve, SweepCell, identify_product,
                    product_curve, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EmptyWindowError", "FeatureError", "FitWarning",
    "FormatError", "IdentifyError", "IntegrationError", "NoPeakError",
    "PairDvaError", "SpanError", "SweepError",
    "backend", "docv_dz", "ocv",
    "CellParams", "PairSpec", "SimConfig", "SimTrace",
    "make_pair", "simulate_cc_discharge", "single_cell_reference",
    "DvDqCurve", "PeakSample", "SmoothingConfig", "VOLTAGE_WINDOW",
    "downselect_window", "dvdq_curve", "peak_height", "resample_uniform_q",
    "AnalysisConfig", "PeakFeatures", "SurrogateFit", "extract_features",
    "fit_positive_surrogate", "skewness_pipeline", "weighted_skewness",
    "Candidate", "FeatureMap", "GridConfig", "IdentificationResult",
    "ProductBin", "ProductCurve", "SweepCell", "identify_product",
    "product_curve", "run_sweep",
    "__version__",
]
