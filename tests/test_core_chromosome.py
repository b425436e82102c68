"""Tests for the chromosome encoding (Fig. 3)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.core.chromosome import GENES_PER_CONNECTION, ChromosomeLayout


@pytest.fixture
def layout(small_topology, approx_config):
    return ChromosomeLayout(small_topology, approx_config, learn_shifts=True)


class TestLayoutStructure:
    def test_gene_count(self, layout, small_topology):
        expected = 0
        for fan_in, fan_out in small_topology.layer_shapes():
            expected += fan_out * (fan_in * GENES_PER_CONNECTION + 1)
        expected += small_topology.num_layers - 1  # shift genes
        assert layout.num_genes == expected

    def test_no_shift_genes_when_disabled(self, small_topology, approx_config):
        with_shift = ChromosomeLayout(small_topology, approx_config, learn_shifts=True)
        without = ChromosomeLayout(small_topology, approx_config, learn_shifts=False)
        assert with_shift.num_genes == without.num_genes + small_topology.num_layers - 1

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
        layout = ChromosomeLayout(topology, ApproxConfig(), learn_shifts=bool(rng.integers(0, 2)))
        chromosome = layout.random(rng)
        assert np.array_equal(layout.encode(layout.decode(chromosome)), chromosome)


class TestMemoKeys:
    @pytest.mark.parametrize(
        "config, dtype",
        [
            (ApproxConfig(), np.int16),
            (ApproxConfig(activation_bits=4), np.int8),
            (ApproxConfig(bias_bits=20), np.int32),
        ],
    )
    def test_key_dtype_is_the_narrowest_covering_the_bounds(self, config, dtype):
        layout = ChromosomeLayout(Topology((4, 3, 2)), config)
        assert layout.key_dtype is dtype
        genome = layout.upper_bounds.copy()
        genome[layout.lower_bounds < 0] = layout.lower_bounds[layout.lower_bounds < 0]
        (key,) = layout.memo_keys(genome[None, :])
        assert key == genome.astype(dtype).tobytes()
        assert np.array_equal(np.frombuffer(key, dtype=dtype), genome)

    def test_narrowed_layout_keys_like_the_full_layout(self, rng):
        """Bounds narrowed after construction (as the ablations do) leave
        the key dtype alone, even where the narrowed range would fit a
        smaller dtype, so a genome keys the same under both layouts."""
        from repro.experiments.ablation import _freeze_masks_open

        full = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        trainer = SimpleNamespace(layout=ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig()))
        _freeze_masks_open(trainer)
        narrowed = trainer.layout
        narrowed.upper_bounds = np.minimum(narrowed.upper_bounds, 100)
        narrowed.lower_bounds = np.minimum(np.maximum(narrowed.lower_bounds, -100), 100)
        population = np.stack([narrowed.random(rng) for _ in range(5)])
        assert narrowed.key_dtype is full.key_dtype is np.int16
        assert narrowed.memo_keys(population) == full.memo_keys(population)

    def test_memo_keys_check_shape_and_bounds(self, layout):
        with pytest.raises(ValueError, match="shape"):
            layout.memo_keys(np.zeros((2, layout.num_genes + 1), dtype=np.int64))
        genome = layout.lower_bounds.copy()
        genome[0] = layout.upper_bounds[0] + 1
        with pytest.raises(ValueError, match="out of bounds"):
            layout.memo_keys(genome[None, :])

