"""Five binary traffic classifiers behind one train/predict contract."""

from .base import (ClassifyError, ManifestMismatchError, predict_arrays,
                   schema_fingerprint)
from .bayes import BayesModel, train_naive_bayes
from .logistic import LogisticModel, train_logistic
from .model_io import save_model
from .params import (ForestParams, LogisticParams, NaiveBayesParams,
                     SvmParams, TreeParams)
from .svm import SvmModel, train_svm
from .tree import ForestModel, TreeModel, train_forest, train_tree

__all__ = [
    "BayesModel", "ClassifyError", "ForestModel", "ForestParams",
    "LogisticModel", "LogisticParams", "ManifestMismatchError",
    "NaiveBayesParams", "SvmModel", "SvmParams", "TreeModel", "TreeParams",
    "predict_arrays", "save_model", "schema_fingerprint", "train_forest",
    "train_logistic", "train_naive_bayes", "train_svm", "train_tree",
]
