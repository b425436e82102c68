"""Synthetic classification data with controlled difficulty.

The generator produces Gaussian class clusters on a ``[0, 1]`` feature
cube with three difficulty knobs:

* ``class_sep`` — distance between class prototypes relative to the
  within-class spread (lower = harder),
* ``noise`` — within-class standard deviation,
* ``label_noise`` — fraction of samples whose label is corrupted; for
  ordinal tasks (the wine-quality stand-ins) corrupted labels move to a
  *neighbouring* class, mimicking the heavy adjacent-class confusion of
  the real datasets that caps achievable accuracy near 55 %.

Together with per-class prior probabilities (class imbalance) this is
enough to place each synthetic stand-in close to the accuracy its real
UCI counterpart reaches in the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SyntheticSpec", "generate_synthetic_classification"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Difficulty and shape parameters of a synthetic classification task."""

    num_features: int
    num_classes: int
    num_samples: int
    class_sep: float = 2.0
    noise: float = 0.2
    label_noise: float = 0.0
    ordinal: bool = False
    class_priors: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_features <= 0 or self.num_classes <= 1 or self.num_samples <= 0:
            raise ValueError("num_features, num_classes (>1) and num_samples must be positive")
        if self.class_sep <= 0 or self.noise < 0:
            raise ValueError("class_sep must be positive and noise non-negative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError(f"label_noise must lie in [0, 1), got {self.label_noise}")
        if self.class_priors is not None:
            priors = np.asarray(self.class_priors, dtype=np.float64)
            if priors.shape != (self.num_classes,):
                raise ValueError("class_priors must have one entry per class")
            if np.any(priors < 0) or not np.isclose(priors.sum(), 1.0):
                raise ValueError("class_priors must be non-negative and sum to 1")


def _class_centers(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw class prototype vectors.

    For ordinal tasks the prototypes move monotonically along a random
    direction (class c sits between classes c-1 and c+1), which produces
    the adjacent-class confusion structure of quality-score datasets.
    Otherwise prototypes are independent random corners of the cube.
    """
    if spec.ordinal:
        direction = rng.normal(size=spec.num_features)
        direction /= np.linalg.norm(direction) + 1e-12
        base = rng.uniform(0.3, 0.7, size=spec.num_features)
        offsets = np.linspace(-0.5, 0.5, spec.num_classes)
        centers = base[None, :] + offsets[:, None] * direction[None, :] * spec.class_sep * 0.5
        jitter = rng.normal(scale=0.05, size=centers.shape)
        return centers + jitter
    centers = rng.uniform(0.0, 1.0, size=(spec.num_classes, spec.num_features))
    # Spread prototypes away from the global mean by the separation factor.
    mean = centers.mean(axis=0, keepdims=True)
    return mean + (centers - mean) * spec.class_sep


def _apply_label_noise(
    labels: np.ndarray, spec: SyntheticSpec, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt a ``label_noise`` fraction of the labels.

    All replacements come from one vector draw: the same bounded draws,
    in the same order, as one scalar ``rng.choice`` per flipped label.
    """
    if spec.label_noise <= 0.0:
        return labels
    labels = labels.copy()
    flip = np.flatnonzero(rng.random(labels.shape[0]) < spec.label_noise)
    if flip.size == 0:
        return labels
    if spec.ordinal:
        steps = rng.choice([-1, 1], size=flip.size)
        labels[flip] = np.clip(labels[flip] + steps, 0, spec.num_classes - 1)
    else:
        # A uniform draw over the other classes: skip past the true label.
        draws = rng.choice(spec.num_classes - 1, size=flip.size)
        labels[flip] = draws + (draws >= labels[flip])
    return labels


def generate_synthetic_classification(
    spec: SyntheticSpec,
    rng: np.random.Generator | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a synthetic classification dataset.

    Returns
    -------
    (features, labels):
        ``features`` has shape ``(num_samples, num_features)`` with values
        in ``[0, 1]``; ``labels`` are integers in ``[0, num_classes)``.
    """
    # Seeded fallback: library defaults must be reproducible (RP03).
    rng = rng or np.random.default_rng(0)
    priors = (
        np.asarray(spec.class_priors, dtype=np.float64)
        if spec.class_priors is not None
        else np.full(spec.num_classes, 1.0 / spec.num_classes)
    )
    labels = rng.choice(spec.num_classes, size=spec.num_samples, p=priors)
    centers = _class_centers(spec, rng)

    features = centers[labels] + rng.normal(scale=spec.noise, size=(spec.num_samples, spec.num_features))
    # Per-feature min-max to the unit cube, preserving relative geometry.
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    features = (features - lo) / span

    labels = _apply_label_noise(labels.astype(np.int64), spec, rng)
    return features.astype(np.float64), labels
