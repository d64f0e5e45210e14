"""Multi-label country-level dialect identification.

Weighted unions of word/char/char_wb TF-IDF n-gram blocks feeding a linear
SVM, a random forest and a cosine KNN, combined by weighted hard majority
voting, with sample-averaged multi-label scoring, a hyperparameter sweep
harness and a TSV-based CLI. The SVM is fitted by working-set finite Newton
up to ``svm.NEWTON_MAX_SAMPLES`` (1,024) samples, by dual coordinate descent above.
"""

from .analyzers import (
    ANALYZER_KINDS,
    CHAR,
    CHAR_WB,
    WORD,
    build_analyzer,
    char_ngrams,
    char_wb_ngrams,
    tokenize_words,
    word_ngrams,
)
from .base import BaseEstimator, NotFittedError
from .corpus import (
    Dataset,
    Document,
    LabelSpace,
    TsvFormatError,
    make_synthetic,
    merge_label_spaces,
    parse_tsv,
    save_tsv,
    serialize_tsv,
    split_dataset,
)
from .ensemble import CLASSIFIER_ORDER, DecisionPolicy, weighted_votes
from .forest import RandomForest
from .grid import (
    GridSizeError,
    GridSpec,
    enumerate_grid,
    run_component_comparison,
    run_pipeline,
    run_sweep,
    write_sweep_tsv,
)
from .knn import KnnClassifier
from .metrics import LabelCounts, MetricsReport, evaluate
from .persistence import BundleFormatError, dumps_model, load_model, loads_model, save_model
from .pipeline import DialectPipeline, ForestParams, PipelineConfig, SvcParams
from .presets import PRESET_NAMES, preset
from .sparse import CsrMatrix
from .svm import ConvergenceWarning, LinearSvc, compute_class_weights
from .vectorizer import BlockSpec, TfidfBlock, TfidfUnion

__version__ = "0.1.0"

__all__ = [
    "ANALYZER_KINDS",
    "BaseEstimator",
    "BlockSpec",
    "BundleFormatError",
    "CHAR",
    "CHAR_WB",
    "CLASSIFIER_ORDER",
    "ConvergenceWarning",
    "CsrMatrix",
    "Dataset",
    "DecisionPolicy",
    "DialectPipeline",
    "Document",
    "ForestParams",
    "GridSizeError",
    "GridSpec",
    "KnnClassifier",
    "LabelCounts",
    "LabelSpace",
    "LinearSvc",
    "MetricsReport",
    "NotFittedError",
    "PipelineConfig",
    "PRESET_NAMES",
    "RandomForest",
    "SvcParams",
    "TfidfBlock",
    "TfidfUnion",
    "TsvFormatError",
    "WORD",
    "build_analyzer",
    "char_ngrams",
    "char_wb_ngrams",
    "compute_class_weights",
    "dumps_model",
    "enumerate_grid",
    "evaluate",
    "load_model",
    "loads_model",
    "make_synthetic",
    "merge_label_spaces",
    "parse_tsv",
    "preset",
    "run_component_comparison",
    "run_pipeline",
    "run_sweep",
    "save_model",
    "save_tsv",
    "serialize_tsv",
    "split_dataset",
    "tokenize_words",
    "weighted_votes",
    "word_ngrams",
    "write_sweep_tsv",
]
