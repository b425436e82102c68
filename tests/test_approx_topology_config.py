"""Tests for Topology and ApproxConfig."""

import pytest

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology


class TestTopology:
    def test_paper_topologies_parameter_counts(self):
        # Weight + bias counts of the Table I topologies.
        assert Topology((10, 3, 2)).num_weights == 36
        assert Topology((10, 3, 2)).num_parameters == 41
        assert Topology((16, 5, 10)).num_weights == 130
        assert Topology((11, 2, 6)).num_weights == 34

    def test_layer_shapes(self):
        topology = Topology((10, 3, 2))
        assert list(topology.layer_shapes()) == [(10, 3), (3, 2)]

    def test_properties(self):
        topology = Topology((21, 3, 3))
        assert topology.num_inputs == 21
        assert topology.num_outputs == 3
        assert topology.num_layers == 2
        assert len(topology) == 3
        assert list(topology) == [21, 3, 3]

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            Topology((5,))

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            Topology((5, 0, 2))

    @pytest.mark.parametrize("sizes", [(4, 2), (21, 3, 3), (10, 5, 4, 2)])
    def test_layer_shapes_chain_the_sizes(self, sizes):
        shapes = list(Topology(sizes).layer_shapes())
        assert len(shapes) == Topology(sizes).num_layers == len(sizes) - 1
        assert [fan_in for fan_in, _ in shapes] == list(sizes[:-1])
        assert [fan_out for _, fan_out in shapes] == list(sizes[1:])

    def test_str(self):
        assert str(Topology((10, 3, 2))) == "(10, 3, 2)"


class TestApproxConfig:
    def test_defaults_match_paper(self):
        config = ApproxConfig()
        assert config.input_bits == 4
        assert config.activation_bits == 8
        assert config.weight_bits == 8
        # k in [0, n-1) with n = 8 -> k_max = 6.
        assert config.max_exponent == 6

    def test_value_ranges(self):
        config = ApproxConfig()
        assert config.max_input_value == 15
        assert config.bias_min == -128
        assert config.bias_max == 127

    def test_layer_input_bits(self):
        config = ApproxConfig()
        assert config.layer_input_bits(0) == 4
        assert config.layer_input_bits(1) == 8
        assert config.layer_input_bits(5) == 8

    def test_layer_input_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            ApproxConfig().layer_input_bits(-1)

    def test_rejects_invalid_bits(self):
        with pytest.raises(ValueError):
            ApproxConfig(input_bits=0)
        with pytest.raises(ValueError):
            ApproxConfig(weight_bits=1)

    def test_custom_weight_bits_bound_exponent(self):
        assert ApproxConfig(weight_bits=4).max_exponent == 2
