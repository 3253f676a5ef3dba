"""Classifiers, feature selection and the grouped evaluation harness."""

from .trees import (TreeNode, TreeEnsembleModel, train_random_forest,
                    train_boosted, gini_importance, select_top_features,
                    model_to_dict, model_from_dict)
from .knn import KnnModel, train_knn
from .evaluate import (ModelSpec, EvalReport, FoldResult, f1_score,
                       split_users_into_folds, grouped_cv, fit_model,
                       fit_on_rows, personalization_eval, PersonalizationResult)

__all__ = [
    "TreeNode", "TreeEnsembleModel", "train_random_forest", "train_boosted",
    "gini_importance", "select_top_features", "model_to_dict", "model_from_dict",
    "KnnModel", "train_knn",
    "ModelSpec", "EvalReport", "FoldResult", "f1_score",
    "split_users_into_folds", "grouped_cv", "fit_model", "fit_on_rows",
    "personalization_eval", "PersonalizationResult",
]
