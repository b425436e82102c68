"""Tests for the dataset substrate (synthetic generation, preprocessing, registry)."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets.dataset import DatasetSplit
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.registry import (
    DATASET_SPECS,
    available_datasets,
    get_spec,
    load_dataset,
)
from repro.datasets.synthetic import (
    SyntheticSpec,
    _apply_label_noise,
    generate_synthetic_classification,
)


class TestPreprocessing:
    def test_normalize_to_unit_interval(self, rng):
        features = rng.normal(size=(50, 3)) * 10 + 5
        normalized = normalize_01(features)
        assert normalized.min() >= 0.0 and normalized.max() <= 1.0
        assert normalized.min(axis=0) == pytest.approx(np.zeros(3))
        assert normalized.max(axis=0) == pytest.approx(np.ones(3))

    def test_normalize_constant_column(self):
        features = np.ones((10, 2))
        assert not np.isnan(normalize_01(features)).any()

    def test_normalize_with_reference_clips(self, rng):
        train = rng.random((20, 2))
        test = train * 3
        normalized = normalize_01(test, reference=train)
        assert normalized.max() <= 1.0

    def test_normalize_rejects_1d(self):
        with pytest.raises(ValueError):
            normalize_01(np.zeros(5))

    def test_stratified_split_preserves_class_ratio(self, rng):
        labels = np.array([0] * 70 + [1] * 30)
        features = rng.random((100, 2))
        x_train, y_train, x_test, y_test = stratified_split(features, labels, 0.7, rng)
        assert len(y_train) + len(y_test) == 100
        assert np.mean(y_train == 0) == pytest.approx(0.7, abs=0.05)
        assert np.mean(y_test == 0) == pytest.approx(0.7, abs=0.05)

    def test_stratified_split_no_sample_lost(self, rng):
        labels = rng.integers(0, 4, size=200)
        features = rng.random((200, 5))
        x_train, y_train, x_test, y_test = stratified_split(features, labels, 0.6, rng)
        assert len(y_train) + len(y_test) == 200

    def test_stratified_split_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            stratified_split(np.zeros((4, 2)), np.zeros(4), 1.5, rng)

    def test_stratified_split_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            stratified_split(np.zeros((4, 2)), np.zeros(5), 0.7, rng)

    def test_stratified_split_default_rng_is_deterministic(self, rng):
        # Regression (lint RP03): the unseeded fallback generator made
        # the default split silently differ run to run.
        labels = rng.integers(0, 3, size=120)
        features = rng.random((120, 4))
        first = stratified_split(features, labels, 0.7)
        second = stratified_split(features, labels, 0.7)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestSyntheticGeneration:
    def test_shapes_and_ranges(self, rng):
        spec = SyntheticSpec(num_features=6, num_classes=3, num_samples=120)
        features, labels = generate_synthetic_classification(spec, rng)
        assert features.shape == (120, 6)
        assert labels.shape == (120,)
        assert features.min() >= 0.0 and features.max() <= 1.0
        assert set(np.unique(labels)).issubset(set(range(3)))

    def test_reproducible_with_seed(self):
        spec = SyntheticSpec(num_features=4, num_classes=2, num_samples=50)
        a = generate_synthetic_classification(spec, np.random.default_rng(5))
        b = generate_synthetic_classification(spec, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_default_rng_is_deterministic(self):
        # Regression (lint RP03): generating without an explicit rng
        # used to draw a fresh OS-entropy generator every call.
        spec = SyntheticSpec(num_samples=60, num_features=4, num_classes=3)
        x1, y1 = generate_synthetic_classification(spec)
        x2, y2 = generate_synthetic_classification(spec)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_class_priors_respected(self, rng):
        spec = SyntheticSpec(
            num_features=4, num_classes=2, num_samples=4000, class_priors=(0.9, 0.1)
        )
        _, labels = generate_synthetic_classification(spec, rng)
        assert np.mean(labels == 0) == pytest.approx(0.9, abs=0.03)

    def test_separable_data_is_learnable(self, rng):
        spec = SyntheticSpec(num_features=4, num_classes=2, num_samples=300, class_sep=4.0, noise=0.1)
        features, labels = generate_synthetic_classification(spec, rng)
        # A nearest-centroid rule should do well on well-separated data.
        centroids = np.stack([features[labels == c].mean(axis=0) for c in range(2)])
        predictions = np.argmin(
            ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.mean(predictions == labels) > 0.9

    def test_label_noise_reduces_consistency(self, rng):
        clean_spec = SyntheticSpec(num_features=4, num_classes=2, num_samples=500, label_noise=0.0)
        noisy_spec = SyntheticSpec(num_features=4, num_classes=2, num_samples=500, label_noise=0.4)
        clean = generate_synthetic_classification(clean_spec, np.random.default_rng(1))
        noisy = generate_synthetic_classification(noisy_spec, np.random.default_rng(1))
        assert not np.array_equal(clean[1], noisy[1])

    def test_ordinal_noise_moves_to_neighbours(self, rng):
        spec = SyntheticSpec(
            num_features=3, num_classes=5, num_samples=100, label_noise=0.0, ordinal=True
        )
        features, labels = generate_synthetic_classification(spec, rng)
        assert labels.min() >= 0 and labels.max() <= 4

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_features=0, num_classes=2, num_samples=10)
        with pytest.raises(ValueError):
            SyntheticSpec(num_features=2, num_classes=1, num_samples=10)
        with pytest.raises(ValueError):
            SyntheticSpec(num_features=2, num_classes=2, num_samples=10, label_noise=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(num_features=2, num_classes=2, num_samples=10, class_priors=(0.9, 0.2))


def _loop_label_noise(labels, spec, rng):
    """Reference: one scalar draw per flipped label, in index order."""
    if spec.label_noise <= 0.0:
        return labels
    labels = labels.copy()
    flip = rng.random(labels.shape[0]) < spec.label_noise
    for idx in np.flatnonzero(flip):
        if spec.ordinal:
            step = rng.choice([-1, 1])
            labels[idx] = int(np.clip(labels[idx] + step, 0, spec.num_classes - 1))
        else:
            choices = [c for c in range(spec.num_classes) if c != labels[idx]]
            labels[idx] = int(rng.choice(choices))
    return labels


class TestLabelNoise:
    @settings(max_examples=60, deadline=None)
    @given(
        num_classes=st.integers(2, 10),
        num_samples=st.integers(1, 300),
        label_noise=st.floats(0.0, 0.5),
        ordinal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # No flips (noise off; noise on but no draw under it), and two classes,
    # where each replacement is a draw from one choice.
    @example(num_classes=3, num_samples=50, label_noise=0.0, ordinal=False, seed=0)
    @example(num_classes=6, num_samples=1, label_noise=1e-9, ordinal=True, seed=1)
    @example(num_classes=2, num_samples=200, label_noise=0.5, ordinal=False, seed=2)
    def test_one_draw_matches_per_label_loop(
        self, num_classes, num_samples, label_noise, ordinal, seed
    ):
        spec = SyntheticSpec(
            num_features=2,
            num_classes=num_classes,
            num_samples=num_samples,
            label_noise=label_noise,
            ordinal=ordinal,
        )
        labels = np.random.default_rng(seed ^ 0x5EED).integers(
            0, num_classes, size=num_samples
        )
        fast_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        fast = _apply_label_noise(labels, spec, fast_rng)
        loop = _loop_label_noise(labels, spec, loop_rng)
        np.testing.assert_array_equal(fast, loop)
        assert fast.dtype == loop.dtype
        # The same draws were consumed: both streams continue alike.
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert fast.min() >= 0 and fast.max() < num_classes


def _dataset_digest(dataset):
    """Digest of a dataset's train/test features (6 decimals) and labels."""
    digest = hashlib.sha256()
    for split in (dataset.train, dataset.test):
        features = np.round(split.features, 6)
        digest.update(np.ascontiguousarray(features, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(split.labels, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


#: ``load_dataset(name, seed, num_samples)`` digests.  Every experiment,
#: cache key and published number starts from these arrays, so a change
#: to the generator's random stream must show up here first.
DATASET_DIGESTS = {
    ("breast_cancer", 0, None): "a8e70d939c554a5b",
    ("breast_cancer", 0, 300): "bcd1d0914012eabb",
    ("breast_cancer", 0, 800): "8129e9a5c6acd74f",
    ("breast_cancer", 100, None): "a46ddf71f55acf0c",
    ("breast_cancer", 100, 300): "95d6600b7897f7af",
    ("breast_cancer", 100, 800): "ea6c4218d89d7a21",
    ("cardio", 0, None): "53ef73aec0d5d395",
    ("cardio", 0, 300): "f176debe2d90d80b",
    ("cardio", 0, 800): "a87168f7c4bf0b18",
    ("cardio", 100, None): "81e1660c4a5ac7ea",
    ("cardio", 100, 300): "7efa59a6c712d068",
    ("cardio", 100, 800): "7df9c881f073c568",
    ("pendigits", 0, None): "3bdde942de959f31",
    ("pendigits", 0, 300): "e2a19a487ade2bc6",
    ("pendigits", 0, 800): "d7e9acb7b332b3b6",
    ("pendigits", 100, None): "c4d5ed39980ca38d",
    ("pendigits", 100, 300): "f6fdf427073d5e31",
    ("pendigits", 100, 800): "6a5c20183c2f7afe",
    ("redwine", 0, None): "a3a297ecc99e64c6",
    ("redwine", 0, 300): "aef0386fcc94ee66",
    ("redwine", 0, 800): "ed0d341401fec9b3",
    ("redwine", 100, None): "a0c3e36aa7bfb0c1",
    ("redwine", 100, 300): "cd019e7ce0969fbe",
    ("redwine", 100, 800): "6a138c6fe967b001",
    ("whitewine", 0, None): "3fb0e07d0165349b",
    ("whitewine", 0, 300): "ee78e90f597e2393",
    ("whitewine", 0, 800): "304c9c825e32b8d1",
    ("whitewine", 100, None): "30e1845303fff8d1",
    ("whitewine", 100, 300): "33213e57882116bf",
    ("whitewine", 100, 800): "fb268e50b6a02da3",
}


class TestDatasetStream:
    @pytest.mark.parametrize("name, seed, num_samples", list(DATASET_DIGESTS))
    def test_load_dataset_digest_is_pinned(self, name, seed, num_samples):
        dataset = load_dataset(name, seed=seed, num_samples=num_samples)
        assert _dataset_digest(dataset) == DATASET_DIGESTS[(name, seed, num_samples)]


class TestDatasetContainers:
    def test_split_quantization(self, rng):
        split = DatasetSplit(features=rng.random((20, 3)), labels=rng.integers(0, 2, 20))
        quantized = split.quantized(bits=4)
        assert quantized.min() >= 0 and quantized.max() <= 15
        assert split.features.shape == (20, 3) and split.num_features == 3

    def test_quantized_train_is_one_read_only_array(self):
        """Each split is quantized once per bit width: every call returns
        the same read-only array, equal to a fresh quantization."""
        from repro.quant.quantizers import quantize_inputs

        dataset = load_dataset("breast_cancer", seed=0, num_samples=200)
        inputs, labels = dataset.quantized_train()
        for _ in range(3):
            again, again_labels = dataset.quantized_train()
            assert again is inputs and again_labels is labels
        assert dataset.quantized_test()[0] is dataset.quantized_test()[0]
        assert dataset.train.quantized(bits=3) is dataset.train.quantized(bits=3)
        assert dataset.train.quantized(bits=3) is not inputs
        np.testing.assert_array_equal(inputs, quantize_inputs(dataset.train.features))
        for array in (inputs, labels, dataset.quantized_test()[0], dataset.test.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_split_copies_its_labels(self, rng):
        """The read-only labels are the split's own copy: the caller's
        array stays writable and later edits to it do not reach the split."""
        labels = np.array([0, 1, 0, 1])
        split = DatasetSplit(features=rng.random((4, 2)), labels=labels)
        labels[0] = 1
        assert labels.flags.writeable
        assert split.labels.tolist() == [0, 1, 0, 1]

    def test_split_validation(self, rng):
        with pytest.raises(ValueError):
            DatasetSplit(features=rng.random(10), labels=np.zeros(10))
        with pytest.raises(ValueError):
            DatasetSplit(features=rng.random((10, 2)), labels=np.zeros(9))


class TestRegistry:
    def test_five_datasets_registered(self):
        assert available_datasets() == sorted(
            ["breast_cancer", "cardio", "pendigits", "redwine", "whitewine"]
        )

    def test_specs_match_table1_topologies(self):
        assert DATASET_SPECS["breast_cancer"].topology == (10, 3, 2)
        assert DATASET_SPECS["cardio"].topology == (21, 3, 3)
        assert DATASET_SPECS["pendigits"].topology == (16, 5, 10)
        assert DATASET_SPECS["redwine"].topology == (11, 2, 6)
        assert DATASET_SPECS["whitewine"].topology == (11, 4, 7)

    def test_clock_periods(self):
        assert get_spec("pendigits").clock_period_ms == 250.0
        assert get_spec("breast_cancer").clock_period_ms == 200.0

    def test_aliases_and_short_names(self):
        assert get_spec("BC").name == "breast_cancer"
        assert get_spec("red-wine").name == "redwine"
        assert get_spec("WW").name == "whitewine"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_spec("mnist")

    def test_load_dataset_shapes(self):
        dataset = load_dataset("breast_cancer", seed=0, num_samples=200)
        assert dataset.train.num_features == dataset.test.num_features == 10
        assert dataset.num_classes == 2
        assert len(dataset.train.labels) + len(dataset.test.labels) == 200
        assert len(dataset.train.labels) > len(dataset.test.labels)

    def test_load_dataset_deterministic(self):
        a = load_dataset("redwine", seed=3, num_samples=150)
        b = load_dataset("redwine", seed=3, num_samples=150)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_load_dataset_different_seeds_differ(self):
        a = load_dataset("cardio", seed=1, num_samples=150)
        b = load_dataset("cardio", seed=2, num_samples=150)
        assert not np.array_equal(a.train.features, b.train.features)

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_load_dataset_trains_on_seventy_percent_of_each_class(self, name):
        """The paper's 70/30 stratified split is the one split: every class
        puts ``round(0.7 * count)`` samples in the training set."""
        dataset = load_dataset(name, seed=0, num_samples=200)
        train = np.bincount(dataset.train.labels, minlength=dataset.num_classes)
        test = np.bincount(dataset.test.labels, minlength=dataset.num_classes)
        for n_train, n_test in zip(train, test):
            total = n_train + n_test
            if total > 1:
                expected = min(max(int(round(0.7 * total)), 1), total - 1)
            else:
                expected = total
            assert n_train == expected

    @settings(max_examples=5, deadline=None)
    @given(st.sampled_from(sorted(DATASET_SPECS)))
    def test_property_all_datasets_loadable(self, name):
        dataset = load_dataset(name, seed=0, num_samples=120)
        spec = get_spec(name)
        assert dataset.train.num_features == spec.topology[0]
        assert dataset.num_classes == spec.num_classes
