"""Tests for the ApproximateMLP model."""

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.masks import full_mask
from repro.approx.mlp import ApproximateMLP, default_shifts
from repro.approx.topology import Topology


class TestDefaultShifts:
    def test_one_shift_per_layer(self):
        topology = Topology((10, 3, 2))
        shifts = default_shifts(topology, ApproxConfig())
        assert len(shifts) == 2
        assert all(s >= 0 for s in shifts)

    def test_wider_layer_needs_larger_shift(self):
        config = ApproxConfig()
        narrow = default_shifts(Topology((2, 2, 2)), config)[0]
        wide = default_shifts(Topology((64, 2, 2)), config)[0]
        assert wide > narrow


class TestApproximateMLP:
    def test_random_construction_shapes(self, small_topology, approx_config, rng):
        mlp = ApproximateMLP.random(small_topology, approx_config, rng)
        assert len(mlp.layers) == 2
        assert mlp.layers[0].masks.shape == (4, 3)
        assert mlp.layers[1].masks.shape == (3, 2)
        assert mlp.layers[0].input_bits == 4
        assert mlp.layers[1].input_bits == 8
        assert mlp.layers[0].activation is not None
        assert mlp.layers[1].activation is None

    def test_random_default_rng_is_deterministic(self, small_topology, approx_config):
        # Regression (lint RP03): ApproximateMLP.random() without an
        # explicit generator used to draw an irreproducible network.
        first = ApproximateMLP.random(small_topology, approx_config)
        second = ApproximateMLP.random(small_topology, approx_config)
        for a, b in zip(first.layers, second.layers):
            np.testing.assert_array_equal(a.masks, b.masks)
            np.testing.assert_array_equal(a.signs, b.signs)
            np.testing.assert_array_equal(a.exponents, b.exponents)
            np.testing.assert_array_equal(a.biases, b.biases)

    def test_forward_and_predict_shapes(self, random_mlp, rng):
        x = rng.integers(0, 16, size=(13, 4))
        scores = random_mlp.forward(x)
        assert scores.shape == (13, 2)
        predictions = random_mlp.predict(x)
        assert predictions.shape == (13,)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_forward_accepts_single_sample(self, random_mlp):
        assert random_mlp.forward(np.array([1, 2, 3, 4])).shape == (1, 2)

    def test_accuracy_range(self, random_mlp, rng):
        x = rng.integers(0, 16, size=(50, 4))
        y = rng.integers(0, 2, size=50)
        assert 0.0 <= random_mlp.accuracy(x, y) <= 1.0

    def test_mask_density_extremes(self, small_topology, approx_config, rng, make_mlp):
        dense = make_mlp(rng, sizes=small_topology.sizes, config=approx_config, mask_density=1.0)
        sparse = make_mlp(rng, sizes=small_topology.sizes, config=approx_config, mask_density=0.0)
        dense_masks = [layer.masks for layer in dense.layers]
        sparse_masks = [layer.masks for layer in sparse.layers]
        assert sum(np.count_nonzero(m) for m in dense_masks) == small_topology.num_weights
        assert all(m.sum() == 0 for m in sparse_masks)
        # Density 1.0 opens every mask fully.
        assert all(
            np.all(layer.masks == (1 << layer.input_bits) - 1) for layer in dense.layers
        )

    def test_layer_count_mismatch_rejected(self, small_topology, approx_config, random_mlp):
        with pytest.raises(ValueError):
            ApproximateMLP(
                topology=Topology((4, 3, 3, 2)),
                config=approx_config,
                layers=random_mlp.layers,
            )

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_random_parameters_in_range(self, small_topology, approx_config, density):
        mlp = ApproximateMLP.random(
            small_topology, approx_config, np.random.default_rng(3), mask_density=density
        )
        for layer in mlp.layers:
            assert layer.masks.min() >= 0 and layer.masks.max() <= full_mask(layer.input_bits)
            assert set(np.unique(layer.signs)) <= {-1, 1}
            assert layer.exponents.min() >= 0
            assert layer.exponents.max() <= approx_config.max_exponent
            assert layer.biases.min() >= approx_config.bias_min
            assert layer.biases.max() <= approx_config.bias_max

    def test_parameter_count_matches_topology(self, random_mlp, small_topology):
        count = sum(layer.masks.size + layer.biases.size for layer in random_mlp.layers)
        assert count == small_topology.num_parameters

    def test_from_parameters_rebuilds_the_same_network(self, random_mlp, rng):
        layers = random_mlp.layers
        clone = ApproximateMLP.from_parameters(
            random_mlp.topology,
            random_mlp.config,
            masks=[layer.masks for layer in layers],
            signs=[layer.signs for layer in layers],
            exponents=[layer.exponents for layer in layers],
            biases=[layer.biases for layer in layers],
            shifts=random_mlp.shifts,
        )
        x = rng.integers(0, 16, size=(10, 4))
        assert np.array_equal(clone.forward(x), random_mlp.forward(x))
        assert clone.shifts == random_mlp.shifts

    def test_from_parameters_checks_ranges_unless_trusted(self, random_mlp):
        layers = random_mlp.layers
        params = dict(
            masks=[layer.masks for layer in layers],
            signs=[np.zeros_like(layer.signs) for layer in layers],
            exponents=[layer.exponents for layer in layers],
            biases=[layer.biases for layer in layers],
        )
        with pytest.raises(ValueError):
            ApproximateMLP.from_parameters(random_mlp.topology, random_mlp.config, **params)
        ApproximateMLP.from_parameters(
            random_mlp.topology, random_mlp.config, **params, validate=False
        )

    def test_accuracy_is_the_share_of_agreeing_predictions(self, random_mlp, rng):
        x = rng.integers(0, 16, size=(40, 4))
        predictions = random_mlp.predict(x)
        assert random_mlp.accuracy(x, predictions) == 1.0
        wrong = predictions.copy()
        wrong[:10] = 1 - wrong[:10]
        assert random_mlp.accuracy(x, wrong) == pytest.approx(0.75)
        assert random_mlp.accuracy(x, 1 - predictions) == 0.0

    def test_fully_pruned_mlp_predicts_constant(self, small_topology, approx_config, rng, make_mlp):
        mlp = make_mlp(rng, sizes=small_topology.sizes, config=approx_config, mask_density=0.0)
        for layer in mlp.layers:
            layer.biases[:] = 0
        x = rng.integers(0, 16, size=(20, 4))
        assert np.all(mlp.predict(x) == mlp.predict(x)[0])
