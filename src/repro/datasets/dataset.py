"""Dataset containers used throughout the training and evaluation flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.quant.quantizers import DEFAULT_INPUT_BITS, quantize_inputs

__all__ = ["DatasetSplit", "Dataset"]


@dataclass(frozen=True)
class DatasetSplit:
    """One split (train or test) of a dataset.

    ``labels`` is a read-only copy and :meth:`quantized` returns one
    read-only array per bit width, so the arrays a split hands out never
    change and their :meth:`~repro.core.cache.EvaluationCache.split_fingerprint`
    is computed once.
    """

    features: np.ndarray
    labels: np.ndarray
    _quantized: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels must have shape ({features.shape[0]},), got {labels.shape}"
            )
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def num_features(self) -> int:
        """Number of input features."""
        return int(self.features.shape[1])

    def quantized(self, bits: int = DEFAULT_INPUT_BITS) -> np.ndarray:
        """Inputs quantized to ``bits``-bit unsigned integers (read-only).

        Computed once per bit width; every call returns the same array.
        """
        codes = self._quantized.get(bits)
        if codes is None:
            codes = quantize_inputs(self.features, bits=bits)
            codes.flags.writeable = False
            codes = self._quantized.setdefault(bits, codes)
        return codes


@dataclass(frozen=True)
class Dataset:
    """A named dataset with its train and test splits."""

    name: str
    train: DatasetSplit
    test: DatasetSplit
    num_classes: int

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.train.num_features != self.test.num_features:
            raise ValueError("train and test splits must have the same feature count")

    def quantized_train(self, bits: int = DEFAULT_INPUT_BITS) -> Tuple[np.ndarray, np.ndarray]:
        """Quantized training inputs and their labels."""
        return self.train.quantized(bits), self.train.labels

    def quantized_test(self, bits: int = DEFAULT_INPUT_BITS) -> Tuple[np.ndarray, np.ndarray]:
        """Quantized test inputs and their labels."""
        return self.test.quantized(bits), self.test.labels
