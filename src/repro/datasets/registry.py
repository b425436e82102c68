"""Registry of the five paper datasets and their synthetic stand-ins.

Every entry records the quantities the paper reports in Table I — MLP
topology, parameter count, baseline accuracy, baseline area/power, clock
period — plus the synthetic-generation parameters used to produce an
offline stand-in of matching dimensionality, class balance and
difficulty (see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.approx.topology import Topology
from repro.datasets.dataset import Dataset, DatasetSplit
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification

__all__ = [
    "DatasetSpec",
    "DATASET_SPECS",
    "available_datasets",
    "get_spec",
    "load_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one evaluation dataset.

    The ``paper_*`` fields are the values reported in the paper (Table I)
    and are used as reference points by the experiment harness; the
    ``synthetic`` field parameterizes the offline stand-in generator.
    """

    name: str
    short_name: str
    topology: Tuple[int, ...]
    paper_accuracy: float
    paper_area_cm2: float
    paper_power_mw: float
    clock_period_ms: float
    synthetic: SyntheticSpec
    paper_parameters: Optional[int] = None

    @property
    def num_classes(self) -> int:
        """Number of classes (last topology entry)."""
        return self.topology[-1]

    @property
    def mlp_topology(self) -> Topology:
        """The MLP topology used in the paper for this dataset."""
        return Topology(self.topology)


def _spec(
    name: str,
    short_name: str,
    topology: Tuple[int, ...],
    paper_accuracy: float,
    paper_area_cm2: float,
    paper_power_mw: float,
    clock_period_ms: float,
    num_samples: int,
    class_sep: float,
    noise: float,
    label_noise: float,
    ordinal: bool,
    class_priors: Optional[Tuple[float, ...]],
    paper_parameters: int,
) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        short_name=short_name,
        topology=topology,
        paper_accuracy=paper_accuracy,
        paper_area_cm2=paper_area_cm2,
        paper_power_mw=paper_power_mw,
        clock_period_ms=clock_period_ms,
        paper_parameters=paper_parameters,
        synthetic=SyntheticSpec(
            num_features=topology[0],
            num_classes=topology[-1],
            num_samples=num_samples,
            class_sep=class_sep,
            noise=noise,
            label_noise=label_noise,
            ordinal=ordinal,
            class_priors=class_priors,
        ),
    )


#: The five datasets of the paper (Table I), keyed by canonical name.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "breast_cancer": _spec(
        name="breast_cancer",
        short_name="BC",
        topology=(10, 3, 2),
        paper_accuracy=0.980,
        paper_area_cm2=12.0,
        paper_power_mw=40.0,
        clock_period_ms=200.0,
        num_samples=569,
        class_sep=2.8,
        noise=0.18,
        label_noise=0.01,
        ordinal=False,
        class_priors=(0.63, 0.37),
        paper_parameters=38,
    ),
    "cardio": _spec(
        name="cardio",
        short_name="Ca",
        topology=(21, 3, 3),
        paper_accuracy=0.881,
        paper_area_cm2=33.4,
        paper_power_mw=124.0,
        clock_period_ms=200.0,
        num_samples=2126,
        class_sep=1.5,
        noise=0.38,
        label_noise=0.08,
        ordinal=False,
        class_priors=(0.78, 0.14, 0.08),
        paper_parameters=78,
    ),
    "pendigits": _spec(
        name="pendigits",
        short_name="PD",
        topology=(16, 5, 10),
        paper_accuracy=0.937,
        paper_area_cm2=67.0,
        paper_power_mw=213.0,
        clock_period_ms=250.0,
        num_samples=3498,
        class_sep=2.3,
        noise=0.24,
        label_noise=0.02,
        ordinal=False,
        class_priors=None,
        paper_parameters=145,
    ),
    "redwine": _spec(
        name="redwine",
        short_name="RW",
        topology=(11, 2, 6),
        paper_accuracy=0.564,
        paper_area_cm2=17.6,
        paper_power_mw=73.5,
        clock_period_ms=200.0,
        num_samples=1599,
        class_sep=1.5,
        noise=0.33,
        label_noise=0.22,
        ordinal=True,
        class_priors=(0.006, 0.033, 0.426, 0.399, 0.124, 0.012),
        paper_parameters=42,
    ),
    "whitewine": _spec(
        name="whitewine",
        short_name="WW",
        topology=(11, 4, 7),
        paper_accuracy=0.537,
        paper_area_cm2=31.2,
        paper_power_mw=126.0,
        clock_period_ms=200.0,
        num_samples=4898,
        class_sep=2.2,
        noise=0.30,
        label_noise=0.22,
        ordinal=True,
        class_priors=(0.004, 0.033, 0.297, 0.449, 0.180, 0.036, 0.001),
        paper_parameters=83,
    ),
}

#: Aliases accepted by :func:`load_dataset`.
_ALIASES: Dict[str, str] = {
    "bc": "breast_cancer",
    "breastcancer": "breast_cancer",
    "ca": "cardio",
    "cardiotocography": "cardio",
    "pd": "pendigits",
    "rw": "redwine",
    "red_wine": "redwine",
    "ww": "whitewine",
    "white_wine": "whitewine",
}


def available_datasets() -> List[str]:
    """Canonical names of all registered datasets."""
    return sorted(DATASET_SPECS)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by canonical name, alias or short name."""
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    key = _ALIASES.get(key, key)
    for spec in DATASET_SPECS.values():
        if spec.short_name.lower() == key:
            return spec
    if key not in DATASET_SPECS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        )
    return DATASET_SPECS[key]


def load_dataset(
    name: str,
    seed: int = 0,
    num_samples: Optional[int] = None,
) -> Dataset:
    """Generate and split a dataset stand-in, 70 % of it for training as in the paper.

    Parameters
    ----------
    name:
        Dataset name (``breast_cancer``, ``cardio``, ``pendigits``,
        ``redwine``, ``whitewine`` or any alias/short name).
    seed:
        Seed of the generation *and* split randomness; the same seed
        always produces the same dataset.
    num_samples:
        Optional override of the sample count (useful to shrink the
        heavier datasets in CI-scale experiments).
    """
    spec = get_spec(name)
    synth = spec.synthetic
    if num_samples is not None:
        synth = SyntheticSpec(
            num_features=synth.num_features,
            num_classes=synth.num_classes,
            num_samples=num_samples,
            class_sep=synth.class_sep,
            noise=synth.noise,
            label_noise=synth.label_noise,
            ordinal=synth.ordinal,
            class_priors=synth.class_priors,
        )
    rng = np.random.default_rng(seed)
    features, labels = generate_synthetic_classification(synth, rng)
    features = normalize_01(features)
    x_train, y_train, x_test, y_test = stratified_split(features, labels, rng=rng)
    return Dataset(
        name=spec.name,
        train=DatasetSplit(features=x_train, labels=y_train),
        test=DatasetSplit(features=x_test, labels=y_test),
        num_classes=spec.num_classes,
    )
