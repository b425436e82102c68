"""Tests for the FA-counting adder-tree area model (eq. 2) and its fast twin."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.layer import ApproximateLayer
from repro.approx.topology import Topology
from repro.hardware.adder_tree import (
    AdderTreeCost,
    approximate_neuron_columns,
    bit_positions,
    count_adders_from_columns,
    layer_adder_cost,
    mlp_adder_cost,
    mlp_fa_count,
)
from repro.hardware.fast_area import (
    fast_population_fa_count,
    population_layer_column_counts,
    reduce_columns_adder_costs,
)


class TestBitPositions:
    def test_examples(self):
        assert bit_positions(0) == []
        assert bit_positions(1) == [0]
        assert bit_positions(0b1011) == [0, 1, 3]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_positions(-1)


class TestColumns:
    def test_single_connection_full_mask(self):
        counts = approximate_neuron_columns(
            masks=np.array([0b1111]), exponents=np.array([0]), bias=0, input_bits=4
        )
        assert np.array_equal(counts[:4], np.array([1, 1, 1, 1]))

    def test_exponent_shifts_columns(self):
        counts = approximate_neuron_columns(
            masks=np.array([0b11]), exponents=np.array([2]), bias=0, input_bits=4
        )
        assert counts[2] == 1 and counts[3] == 1 and counts[0] == 0

    def test_bias_bits_counted(self):
        counts = approximate_neuron_columns(
            masks=np.array([0]), exponents=np.array([0]), bias=0b101, input_bits=4
        )
        assert counts[0] == 1 and counts[2] == 1

    def test_negative_bias_counts_magnitude(self):
        counts = approximate_neuron_columns(
            masks=np.array([0]), exponents=np.array([0]), bias=-3, input_bits=4
        )
        assert counts[0] == 1 and counts[1] == 1


class TestCountAdders:
    def test_three_bits_one_fa(self):
        # Paper: "for every three constant bits in a column, one FA is eliminated";
        # conversely three live bits in a column cost exactly one FA.
        cost = count_adders_from_columns([3])
        assert cost.full_adders == 1
        assert cost.reduction_stages == 1

    def test_two_bits_no_fa(self):
        assert count_adders_from_columns([2]).full_adders == 0

    def test_six_bits_two_fas_then_more(self):
        cost = count_adders_from_columns([6])
        # First stage: 2 FAs -> column has 2 bits + 2 carries next column.
        assert cost.full_adders == 2

    def test_monotonic_in_column_population(self):
        small = count_adders_from_columns([4, 4, 4]).full_adders
        large = count_adders_from_columns([8, 8, 8]).full_adders
        assert large > small

    def test_final_cpa_counts_two_bit_columns(self):
        cost = count_adders_from_columns([2, 2], include_final_cpa=True)
        assert cost.cpa_full_adders == 2
        assert cost.total_full_adders == 2

    def test_half_adders_only_when_enabled(self):
        plain = count_adders_from_columns([5, 5])
        with_ha = count_adders_from_columns([5, 5], use_half_adders=True)
        assert (plain.full_adders, plain.half_adders, plain.reduction_stages) == (6, 0, 4)
        assert (with_ha.full_adders, with_ha.half_adders, with_ha.reduction_stages) == (7, 3, 4)
        # The vectorized sweep gives the same costs under both flags.
        for use_half_adders, cost in ((False, plain), (True, with_ha)):
            fa, ha, _, stages = reduce_columns_adder_costs(
                np.array([[5], [5]]), use_half_adders=use_half_adders
            )
            assert (fa[0], ha[0], stages[0]) == (
                cost.full_adders,
                cost.half_adders,
                cost.reduction_stages,
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            count_adders_from_columns([-1])

    def test_cost_addition(self):
        a = AdderTreeCost(full_adders=2, half_adders=1, cpa_full_adders=3, reduction_stages=2)
        b = AdderTreeCost(full_adders=1, reduction_stages=5)
        total = a + b
        assert total.full_adders == 3
        assert total.half_adders == 1
        assert total.reduction_stages == 5
        assert sum([a, b], AdderTreeCost()).full_adders == 3


class TestNeuronAndMlpCost:
    @staticmethod
    def one_neuron(mask):
        return ApproximateLayer(
            masks=np.full((8, 1), mask),
            signs=np.ones((8, 1), dtype=int),
            exponents=np.zeros((8, 1), dtype=int),
            biases=np.zeros(1, dtype=int),
            input_bits=4,
        )

    def test_pruning_reduces_fa_count(self, rng):
        dense, sparse = self.one_neuron(0b1111), self.one_neuron(0b0001)
        assert layer_adder_cost(dense).full_adders > layer_adder_cost(sparse).full_adders

    def test_fully_pruned_mlp_has_zero_fa(self, small_topology, approx_config, rng):
        mlp = ApproximateMLP.random(small_topology, approx_config, rng, mask_density=0.0)
        for layer in mlp.layers:
            layer.biases[:] = 0
        assert mlp_fa_count(mlp) == 0

    def test_mlp_cost_is_sum_of_layers(self, random_mlp):
        total = mlp_adder_cost(random_mlp)
        assert total.full_adders == mlp_fa_count(random_mlp)
        assert total.full_adders > 0


def fast_fa_count(mlp):
    """FA count of one model through the population kernel."""
    (count,) = fast_population_fa_count([mlp])
    return int(count)


class TestFastArea:
    def test_fast_matches_reference_random_mlps(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            topology = Topology((int(rng.integers(2, 12)), int(rng.integers(2, 6)), int(rng.integers(2, 8))))
            mlp = ApproximateMLP.random(topology, ApproxConfig(), rng, mask_density=float(rng.random()))
            assert fast_fa_count(mlp) == mlp_fa_count(mlp)

    def test_layer_column_counts_shape(self, random_mlp):
        layer = random_mlp.layers[0]
        counts = population_layer_column_counts(
            layer.masks[None], layer.exponents[None], layer.biases[None], layer.input_bits
        )
        assert counts.shape[1] == layer.fan_out
        assert counts.sum() > 0

    def test_layer_column_counts_match_scalar_columns(self):
        """Every neuron's stacked histogram equals the scalar
        ``approximate_neuron_columns``, including empty masks and zero
        biases."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            population, fan_in, fan_out = (int(v) for v in rng.integers(1, 7, size=3))
            input_bits = int(rng.integers(1, 9))
            masks = rng.integers(0, 2**input_bits, size=(population, fan_in, fan_out))
            masks *= rng.random(masks.shape) < rng.random()
            exponents = rng.integers(0, 8, size=masks.shape)
            biases = rng.integers(-300, 300, size=(population, fan_out)) * (rng.random() < 0.8)
            counts = population_layer_column_counts(masks, exponents, biases, input_bits)
            assert counts.dtype == np.int64
            for p in range(population):
                for j in range(fan_out):
                    scalar = approximate_neuron_columns(
                        masks[p, :, j], exponents[p, :, j], int(biases[p, j]), input_bits
                    )
                    column = counts[:, p * fan_out + j]
                    size = max(len(scalar), len(column))
                    assert np.array_equal(
                        np.pad(column, (0, size - len(column))),
                        np.pad(scalar, (0, size - len(scalar))),
                    )

    def test_reduce_rejects_1d(self):
        with pytest.raises(ValueError):
            reduce_columns_adder_costs(np.array([1, 2, 3]))

    def test_bias_bits_above_sixteen_are_counted(self):
        # The histogram once scanned a fixed 16 bias bits, so wide biases
        # lost their top bits (232 FAs here instead of 233).
        config = ApproxConfig(weight_bits=10, bias_bits=18)
        mlp = ApproximateMLP.random(
            Topology((16, 4, 3)), config, rng=np.random.default_rng(8), mask_density=0.9
        )
        rng = np.random.default_rng(1008)
        for layer in mlp.layers:
            layer.biases[:] = rng.integers(config.bias_min, config.bias_max, size=layer.biases.shape)
        assert mlp_fa_count(mlp) == 233
        assert fast_fa_count(mlp) == 233

    def test_edge_designs_match_reference(self, edge_design):
        mlp, _ = edge_design
        assert fast_fa_count(mlp) == mlp_fa_count(mlp)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_property_fast_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        topology = Topology((int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(2, 5))))
        mlp = ApproximateMLP.random(topology, ApproxConfig(), rng, mask_density=float(rng.random()))
        assert fast_fa_count(mlp) == mlp_fa_count(mlp)
