"""Tests for the chromosome encoding (Fig. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.core.chromosome import GENES_PER_CONNECTION, ChromosomeLayout


@pytest.fixture
def layout(small_topology, approx_config):
    return ChromosomeLayout(small_topology, approx_config)


class TestLayoutStructure:
    def test_gene_count(self, layout, small_topology):
        expected = 0
        for fan_in, fan_out in small_topology.layer_shapes():
            expected += fan_out * (fan_in * GENES_PER_CONNECTION + 1)
        expected += small_topology.num_layers - 1  # shift genes
        assert layout.num_genes == expected

    def test_learn_shifts_flag_is_gone(self, small_topology, approx_config):
        """Every layout carries one shift gene per hidden layer; there is
        no flag to turn them off."""
        with pytest.raises(TypeError):
            ChromosomeLayout(small_topology, approx_config, learn_shifts=False)
        with pytest.raises(TypeError):
            ChromosomeLayout(small_topology, approx_config, learn_shifts=True)
        layout = ChromosomeLayout(small_topology, approx_config)
        shift_slice = layout.shift_slice
        assert shift_slice.stop - shift_slice.start == small_topology.num_layers - 1
        assert shift_slice.stop == layout.num_genes

    def test_bounds_shapes_and_ordering(self, layout):
        assert layout.lower_bounds.shape == (layout.num_genes,)
        assert layout.upper_bounds.shape == (layout.num_genes,)
        assert np.all(layout.lower_bounds <= layout.upper_bounds)

    def test_mask_gene_bounds(self, layout, approx_config):
        mask_bounds = layout.upper_bounds[layout.mask_gene_flags]
        # First-layer masks are 4-bit, second-layer masks 8-bit.
        assert set(np.unique(mask_bounds)) == {15, 255}
        assert np.all(layout.lower_bounds[layout.mask_gene_flags] == 0)

    def test_mask_bits_per_gene(self, layout):
        widths = layout.mask_bits_per_gene
        assert set(np.unique(widths[layout.mask_gene_flags])) == {4, 8}
        assert np.all(widths[~layout.mask_gene_flags] == 0)

    def test_describe_gene_kinds(self, layout):
        kinds = [layout.describe_gene(i)[0] for i in range(layout.num_genes)]
        assert kinds.count("shift") == 1
        assert kinds.count("bias") == 5  # 3 hidden + 2 output neurons
        assert kinds.count("mask") == kinds.count("sign") == kinds.count("exponent")

    def test_describe_gene_out_of_range(self, layout):
        with pytest.raises(IndexError):
            layout.describe_gene(layout.num_genes)

    def test_validate_and_clip(self, layout, rng):
        chromosome = layout.random(rng)
        layout.validate(chromosome)
        bad = chromosome.copy()
        bad[0] = 10**6
        with pytest.raises(ValueError):
            layout.validate(bad)
        layout.validate(layout.clip(bad))

    def test_validate_rejects_wrong_shape(self, layout):
        with pytest.raises(ValueError):
            layout.validate(np.zeros(3, dtype=np.int64))


class TestEncodeDecode:
    def test_decode_produces_valid_mlp(self, layout, rng):
        mlp = layout.decode(layout.random(rng))
        assert isinstance(mlp, ApproximateMLP)
        assert tuple(mlp.topology.sizes) == tuple(layout.topology.sizes)

    def test_encode_decode_roundtrip_on_random_mlp(self, layout, rng):
        mlp = ApproximateMLP.random(layout.topology, layout.config, rng)
        chromosome = layout.encode(mlp)
        decoded = layout.decode(chromosome)
        for original, restored in zip(mlp.layers, decoded.layers):
            assert np.array_equal(original.masks, restored.masks)
            assert np.array_equal(original.signs, restored.signs)
            assert np.array_equal(original.exponents, restored.exponents)
            assert np.array_equal(original.biases, restored.biases)

    def test_decode_encode_roundtrip_on_chromosome(self, layout, rng):
        chromosome = layout.random(rng)
        assert np.array_equal(layout.encode(layout.decode(chromosome)), chromosome)

    def test_decoded_forward_matches_encoded_model(self, layout, rng):
        mlp = ApproximateMLP.random(layout.topology, layout.config, rng)
        decoded = layout.decode(layout.encode(mlp))
        x = rng.integers(0, 16, size=(20, layout.topology.num_inputs))
        assert np.array_equal(mlp.forward(x), decoded.forward(x))

    def test_encode_rejects_topology_mismatch(self, layout, rng):
        other = ApproximateMLP.random(Topology((5, 3, 2)), layout.config, rng)
        with pytest.raises(ValueError):
            layout.encode(other)

    def test_decode_rejects_wrong_length(self, layout):
        with pytest.raises(ValueError):
            layout.decode(np.zeros(layout.num_genes + 1, dtype=np.int64))

    def test_shift_genes_control_activation(self, layout, rng):
        chromosome = layout.random(rng)
        chromosome[layout.shift_slice] = 0
        assert layout.decode(chromosome).shifts[0] == 0
        chromosome[layout.shift_slice] = layout.upper_bounds[layout.shift_slice]
        assert layout.decode(chromosome).shifts[0] == int(
            layout.upper_bounds[layout.shift_slice][0]
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_property_roundtrip_random_topologies(self, seed):
        rng = np.random.default_rng(seed)
        topology = Topology(
            (int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(2, 6)))
        )
        layout = ChromosomeLayout(topology, ApproxConfig())
        chromosome = layout.random(rng)
        assert np.array_equal(layout.encode(layout.decode(chromosome)), chromosome)



class TestPopulationBounds:
    """``population_parameters`` is the one bounds check every scored
    row passes, whatever the number formats make the gene ranges."""

    CONFIGS = [ApproxConfig(), ApproxConfig(activation_bits=4), ApproxConfig(bias_bits=20)]
    IDS = ["paper", "activation-4", "bias-20"]

    @staticmethod
    def _extremes(layout):
        return np.stack([layout.lower_bounds, layout.upper_bounds])

    @pytest.mark.parametrize("config", CONFIGS, ids=IDS)
    def test_genomes_at_the_bounds_are_accepted(self, config):
        layout = ChromosomeLayout(Topology((4, 3, 2)), config)
        params = layout.population_parameters(self._extremes(layout))
        assert params.biases[0].shape == (2, 3)
        assert params.biases[0].min() == config.bias_min
        assert params.biases[0].max() == config.bias_max

    @pytest.mark.parametrize("config", CONFIGS, ids=IDS)
    def test_a_gene_past_either_bound_raises(self, config):
        layout = ChromosomeLayout(Topology((4, 3, 2)), config)
        for row, step in ((0, -1), (1, 1)):
            population = self._extremes(layout)
            population[row, -1] += step
            with pytest.raises(ValueError, match=rf"genes \[{layout.num_genes - 1}\] out of bounds"):
                layout.population_parameters(population)

    def test_population_shape_is_checked(self):
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        for shape in ((2, layout.num_genes + 1), (layout.num_genes,), (1, 2, layout.num_genes)):
            with pytest.raises(ValueError, match="shape"):
                layout.population_parameters(np.zeros(shape, dtype=np.int64))

    def test_narrowed_layout_checks_its_narrowed_bounds(self, rng):
        """Bounds narrowed after construction (as the ablations do) are
        the ones checked: a gene inside the full range but outside the
        narrowed one raises."""
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        population = np.stack([layout.random(rng) for _ in range(3)])
        population = np.clip(population, -100, 100)
        layout.upper_bounds = np.minimum(layout.upper_bounds, 100)
        layout.lower_bounds = np.minimum(np.maximum(layout.lower_bounds, -100), 100)
        layout.population_parameters(population)
        narrowed = int(np.flatnonzero(layout.upper_bounds == 100)[0])
        population[1, narrowed] = 101
        with pytest.raises(ValueError, match="out of bounds"):
            layout.population_parameters(population)
