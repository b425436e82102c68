"""Initial population construction.

Section IV-A of the paper: "we create an initial population of
semi-random chromosomes.  This population is randomly selected and
further doped with a small percentage (~10 %) of nearly non-approximate
solutions, exploring solutions of high accuracy at the early stages of
evolution."

A *nearly non-approximate* individual has fully open masks (no pruning)
and — when a gradient-trained float model is available — signs and
exponents obtained by projecting the trained weights onto the
power-of-two grid, so the GA starts from at least one region of the
search space that is already accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.approx.masks import full_mask
from repro.approx.pow2 import nearest_pow2_array
from repro.baselines.gradient import FloatMLP
from repro.core.chromosome import GENES_PER_CONNECTION, ChromosomeLayout

__all__ = ["PopulationInitializer"]


@dataclass
class PopulationInitializer:
    """Builds the initial NSGA-II population.

    Parameters
    ----------
    layout:
        Chromosome layout.
    doping_fraction:
        Fraction of the population replaced by nearly non-approximate
        individuals (paper: ~10 %).
    mask_density:
        Expected fraction of retained bits in the masks of the random
        individuals (0.5 gives an unbiased uniform draw).
    seed_model:
        Optional gradient-trained float MLP whose pow2 projection seeds
        the doped individuals.
    """

    layout: ChromosomeLayout
    doping_fraction: float = 0.10
    mask_density: float = 0.5
    seed_model: Optional[FloatMLP] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.doping_fraction <= 1.0:
            raise ValueError("doping_fraction must lie in [0, 1]")
        if not 0.0 <= self.mask_density <= 1.0:
            raise ValueError("mask_density must lie in [0, 1]")
        if self.seed_model is not None and tuple(self.seed_model.topology.sizes) != tuple(
            self.layout.topology.sizes
        ):
            raise ValueError("seed_model topology does not match the chromosome layout")

    # ------------------------------------------------------------------
    def random_individual(self, rng: np.random.Generator) -> np.ndarray:
        """A semi-random individual with the configured mask density."""
        chromosome = self.layout.random(rng)
        if self.mask_density != 0.5:
            mask_flags = self.layout.mask_gene_flags
            bits = self.layout.mask_bits_per_gene
            for index in np.flatnonzero(mask_flags):
                width = int(bits[index])
                draw = rng.random(width) < self.mask_density
                chromosome[index] = int((draw * (1 << np.arange(width))).sum())
        return self.layout.clip(chromosome)

    def doped_individual(self, rng: np.random.Generator) -> np.ndarray:
        """A nearly non-approximate individual (full masks, seeded weights)."""
        chromosome = self.layout.random(rng)
        layout = self.layout
        config = layout.config

        for layer_index, (fan_in, fan_out) in enumerate(layout.topology.layer_shapes()):
            in_bits = config.layer_input_bits(layer_index)
            open_mask = full_mask(in_bits)
            if self.seed_model is not None:
                weights = self.seed_model.weights[layer_index]
                max_abs = float(np.max(np.abs(weights))) or 1.0
                scaled = weights / max_abs * (2.0**config.max_exponent)
                signs, exponents = nearest_pow2_array(scaled, config.max_exponent)
                biases = np.clip(
                    np.round(
                        self.seed_model.biases[layer_index] / max_abs * (2.0**config.max_exponent)
                    ),
                    config.bias_min,
                    config.bias_max,
                ).astype(np.int64)
            else:
                signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=(fan_in, fan_out))
                exponents = rng.integers(0, config.max_exponent + 1, size=(fan_in, fan_out))
                biases = np.zeros(fan_out, dtype=np.int64)

            block = np.zeros(fan_out * (fan_in * GENES_PER_CONNECTION + 1), dtype=np.int64)
            per_neuron = block.reshape(fan_out, fan_in * GENES_PER_CONNECTION + 1)
            weight_genes = per_neuron[:, : fan_in * GENES_PER_CONNECTION].reshape(
                fan_out, fan_in, GENES_PER_CONNECTION
            )
            weight_genes[:, :, 0] = open_mask
            weight_genes[:, :, 1] = (signs.T > 0).astype(np.int64)
            weight_genes[:, :, 2] = exponents.T
            per_neuron[:, -1] = biases
            chromosome[layout.layer_slice(layer_index)] = per_neuron.reshape(-1)

        chromosome[layout.shift_slice] = layout.upper_bounds[layout.shift_slice]
        return layout.clip(chromosome)

    def build(self, population_size: int, rng: np.random.Generator) -> np.ndarray:
        """The full initial population as a ``(population_size, genes)`` int64
        matrix: the random individuals first, then the doped ones."""
        if population_size <= 0:
            raise ValueError(f"population_size must be positive, got {population_size}")
        num_doped = int(round(self.doping_fraction * population_size))
        num_doped = min(num_doped, population_size)
        rows = [self.random_individual(rng) for _ in range(population_size - num_doped)]
        rows.extend(self.doped_individual(rng) for _ in range(num_doped))
        return np.stack(rows).astype(np.int64, copy=False)
