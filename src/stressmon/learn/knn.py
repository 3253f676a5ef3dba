"""k-nearest-neighbor classifier over standardized training rows."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import nearest_rows
from ..errors import KTooLarge
from .trees import _validate_training_inputs


@dataclass
class KnnModel:
    """Majority vote of the k Euclidean-nearest standardized training rows.

    Standardization parameters come from the training rows, so predictions
    are invariant to per-feature affine rescaling of the raw inputs.
    Distance ties break toward the lower training-row index; vote ties
    toward class 0.
    """

    kind: str
    k: int
    z_train: np.ndarray
    y_train: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    feature_names: list
    hyperparameters: dict

    def _neighbours(self, X) -> np.ndarray:
        """Indices of the k nearest training rows of each row of X, (n, k)."""
        z = (np.asarray(X, dtype=float) - self.mean) / self.std
        return nearest_rows(self.z_train, z, self.k)[0]

    def predict(self, X) -> np.ndarray:
        ones = self.y_train[self._neighbours(X)].sum(axis=1)
        return (2 * ones > self.k).astype(int)


def train_knn(X, y, k: int, feature_names=None) -> KnnModel:
    """Store standardized training data for majority-vote prediction."""
    X, y, names = _validate_training_inputs(X, y, feature_names)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > X.shape[0]:
        raise KTooLarge(f"k={k} exceeds {X.shape[0]} training rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return KnnModel(kind="knn", k=k, z_train=(X - mean) / std, y_train=y,
                    mean=mean, std=std, feature_names=names,
                    hyperparameters={"k": int(k)})
