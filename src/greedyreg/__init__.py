"""Sparse dictionary regression with greedy atom selection.

Orthogonal and pure greedy fits over Gaussian RBF dictionaries, with
pluggable selection criteria (ranked, random, threshold-gated, and
first-above-threshold), adaptive threshold-based termination, ridge and
FISTA comparators, and a reproducible benchmark harness.
"""

from .core import (
    Dataset,
    DesignMatrix,
    FitReport,
    SparseModel,
    validate_dataset,
)
from .algorithms import FitTrace, fit_delta_togl, fit_ogl, fit_pgl, fit_togl, predict
from .baselines import DenseModel, LassoPath, fit_fista, fit_ridge
from .bench import ExperimentConfig, MethodSpec, oracle_select, sweep
from .data import gen_sinc, load_csv, split_half, zscore_fit_apply
from .dictionary import (
    RbfSpec,
    build_rbf_from_samples,
    build_rbf_uniform,
    evaluate_design,
    normalize_columns,
)
from .greedy import Criterion, correlation, select_atom

__all__ = [
    "Criterion",
    "Dataset",
    "DenseModel",
    "DesignMatrix",
    "ExperimentConfig",
    "FitReport",
    "FitTrace",
    "LassoPath",
    "MethodSpec",
    "RbfSpec",
    "SparseModel",
    "build_rbf_from_samples",
    "build_rbf_uniform",
    "correlation",
    "evaluate_design",
    "fit_delta_togl",
    "fit_fista",
    "fit_ogl",
    "fit_pgl",
    "fit_ridge",
    "fit_togl",
    "gen_sinc",
    "load_csv",
    "normalize_columns",
    "oracle_select",
    "predict",
    "select_atom",
    "split_half",
    "sweep",
    "validate_dataset",
    "zscore_fit_apply",
]

__version__ = "0.17.0"
