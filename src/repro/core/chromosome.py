"""Chromosome encoding of the approximate MLP (Fig. 3 of the paper).

Every learnable parameter becomes one integer gene.  Genes are grouped
by weight (mask ``m``, sign ``s``, exponent ``k``), then by neuron
(its ``fan_in`` weights followed by the bias ``b``), then by layer —
mirroring the encoding illustrated in the paper's Fig. 3.  One
per-hidden-layer QReLU shift gene is appended at the end of the
chromosome (an extension of the paper's encoding: the GA can then adapt
the activation scaling to the pruning level it discovers).

The :class:`ChromosomeLayout` knows the lower/upper bound of every gene
and converts between flat gene vectors and :class:`ApproximateMLP`
models in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP, PopulationParameters, default_shifts
from repro.approx.topology import Topology

__all__ = ["ChromosomeLayout"]

#: Number of genes per connection: mask, sign, exponent.
GENES_PER_CONNECTION = 3


@dataclass
class ChromosomeLayout:
    """Mapping between flat integer chromosomes and approximate MLPs.

    Parameters
    ----------
    topology:
        MLP layer sizes.
    config:
        Number formats (mask widths, exponent range, bias range).

    One extra gene per hidden layer encodes the QReLU right shift,
    bounded by the worst-case shift.
    """

    topology: Topology
    config: ApproxConfig = field(default_factory=ApproxConfig)

    def __post_init__(self) -> None:
        # Per-layer gather indices: ``_weight_genes[l][i, j]`` is the mask
        # gene of connection (i, j) (sign and exponent follow it) and
        # ``_bias_genes[l][j]`` the bias gene of neuron j, so a whole
        # ``(n, genes)`` population slices into stacked parameters with
        # one fancy index per tensor.
        self._weight_genes: List[np.ndarray] = []
        self._bias_genes: List[np.ndarray] = []
        self._layer_slices: List[slice] = []
        offset = 0
        for fan_in, fan_out in self.topology.layer_shapes():
            genes_per_neuron = fan_in * GENES_PER_CONNECTION + 1
            neurons = offset + genes_per_neuron * np.arange(fan_out, dtype=np.int64)
            inputs = GENES_PER_CONNECTION * np.arange(fan_in, dtype=np.int64)
            self._weight_genes.append(inputs[:, None] + neurons[None, :])
            self._bias_genes.append(neurons + fan_in * GENES_PER_CONNECTION)
            self._layer_slices.append(slice(offset, offset + fan_out * genes_per_neuron))
            offset += fan_out * genes_per_neuron

        self._max_shifts = default_shifts(self.topology, self.config)
        num_hidden = self.topology.num_layers - 1
        self._shift_slice = slice(offset, offset + num_hidden)
        self.num_genes = offset + num_hidden

        self.lower_bounds = np.zeros(self.num_genes, dtype=np.int64)
        self.upper_bounds = np.zeros(self.num_genes, dtype=np.int64)
        self.mask_gene_flags = np.zeros(self.num_genes, dtype=bool)
        for layer_index, (weights, bias) in enumerate(
            zip(self._weight_genes, self._bias_genes)
        ):
            self.upper_bounds[weights] = (1 << self.config.layer_input_bits(layer_index)) - 1
            self.mask_gene_flags[weights] = True
            self.upper_bounds[weights + 1] = 1
            self.upper_bounds[weights + 2] = self.config.max_exponent
            self.lower_bounds[bias] = self.config.bias_min
            self.upper_bounds[bias] = self.config.bias_max
        self.upper_bounds[self._shift_slice] = self._max_shifts[:num_hidden]

    # ------------------------------------------------------------------
    # Gene bookkeeping
    # ------------------------------------------------------------------
    @property
    def mask_bits_per_gene(self) -> np.ndarray:
        """Bit-width of each mask gene (0 for non-mask genes)."""
        widths = np.zeros(self.num_genes, dtype=np.int64)
        for layer_index, weights in enumerate(self._weight_genes):
            widths[weights] = self.config.layer_input_bits(layer_index)
        return widths

    def layer_slice(self, layer_index: int) -> slice:
        """Slice of the chromosome holding layer ``layer_index``'s genes."""
        return self._layer_slices[layer_index]

    @property
    def shift_slice(self) -> slice:
        """Slice holding the per-hidden-layer shift genes."""
        return self._shift_slice

    def validate(self, chromosome: np.ndarray) -> None:
        """Raise ``ValueError`` if a chromosome violates its gene bounds."""
        self._check_bounds(self._one_row(chromosome))

    def _one_row(self, chromosome: np.ndarray) -> np.ndarray:
        """A gene vector as a ``(1, genes)`` population (shape-checked)."""
        chromosome = np.asarray(chromosome, dtype=np.int64)
        if chromosome.shape != (self.num_genes,):
            raise ValueError(
                f"chromosome must have shape ({self.num_genes},), got {chromosome.shape}"
            )
        return chromosome[None, :]

    def _population(self, population: np.ndarray) -> np.ndarray:
        """An ``(n, genes)`` int64 population (shape-checked)."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2 or population.shape[1] != self.num_genes:
            raise ValueError(
                f"population must have shape (n, {self.num_genes}), got {population.shape}"
            )
        return population

    def _check_bounds(self, population: np.ndarray) -> None:
        """One vectorized bounds check over an ``(n, genes)`` batch; the
        error names the out-of-bounds genes of the first offending row."""
        bad = (population < self.lower_bounds) | (population > self.upper_bounds)
        if bad.any():
            row = bad[np.flatnonzero(bad.any(axis=1))[0]]
            raise ValueError(f"genes {np.flatnonzero(row)[:10].tolist()} out of bounds")

    def clip(self, chromosome: np.ndarray) -> np.ndarray:
        """Project a gene vector back into its bounds."""
        return np.clip(
            np.asarray(chromosome, dtype=np.int64), self.lower_bounds, self.upper_bounds
        )

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random (in-bounds) chromosome."""
        return rng.integers(self.lower_bounds, self.upper_bounds + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Decode / encode
    # ------------------------------------------------------------------
    def population_parameters(self, population: np.ndarray) -> PopulationParameters:
        """Stacked model parameters of an ``(n, genes)`` population matrix.

        This is the one place genes map to parameters: masks, ±1 signs
        and exponents come back as one ``(n, fan_in, fan_out)`` tensor per
        layer, biases as ``(n, fan_out)`` and the QReLU shifts as
        ``(n, hidden)``.  Out-of-bounds genes raise the same ``ValueError`` as
        :meth:`validate`.
        """
        population = self._population(population)
        self._check_bounds(population)
        return PopulationParameters(
            masks=[population[:, weights] for weights in self._weight_genes],
            signs=[2 * population[:, weights + 1] - 1 for weights in self._weight_genes],
            exponents=[population[:, weights + 2] for weights in self._weight_genes],
            biases=[population[:, bias] for bias in self._bias_genes],
            shifts=population[:, self._shift_slice],
            input_bits=tuple(
                self.config.layer_input_bits(index) for index in range(self.topology.num_layers)
            ),
            activation_bits=self.config.activation_bits,
        )

    def decode(self, chromosome: np.ndarray) -> ApproximateMLP:
        """Build the :class:`ApproximateMLP` described by a chromosome
        (:meth:`population_parameters` of a one-row population)."""
        params = self.population_parameters(self._one_row(chromosome))
        # The bounds check above makes every parameter range valid, so
        # the per-layer value validation is skipped.
        return ApproximateMLP.from_parameters(
            topology=self.topology,
            config=self.config,
            masks=[masks[0] for masks in params.masks],
            signs=[signs[0] for signs in params.signs],
            exponents=[exponents[0] for exponents in params.exponents],
            biases=[biases[0] for biases in params.biases],
            shifts=params.shifts[0].tolist(),
            validate=False,
        )

    def encode(self, mlp: ApproximateMLP) -> np.ndarray:
        """Flatten an :class:`ApproximateMLP` into a gene vector."""
        if tuple(mlp.topology.sizes) != tuple(self.topology.sizes):
            raise ValueError(
                f"model topology {mlp.topology} does not match layout topology {self.topology}"
            )
        chromosome = np.zeros(self.num_genes, dtype=np.int64)
        for layer_index, layer in enumerate(mlp.layers):
            fan_in, fan_out = layer.fan_in, layer.fan_out
            weight_genes = np.stack(
                [
                    layer.masks.T,
                    (layer.signs.T > 0).astype(np.int64),
                    layer.exponents.T,
                ],
                axis=-1,
            )  # (fan_out, fan_in, 3)
            per_neuron = np.concatenate(
                [
                    weight_genes.reshape(fan_out, fan_in * GENES_PER_CONNECTION),
                    layer.biases[:, None],
                ],
                axis=1,
            )
            chromosome[self._layer_slices[layer_index]] = per_neuron.reshape(-1)
        shifts = mlp.shifts[: self.topology.num_layers - 1]
        capped = [min(int(s), int(self._max_shifts[idx])) for idx, s in enumerate(shifts)]
        chromosome[self._shift_slice] = np.array(capped, dtype=np.int64)
        return self.clip(chromosome)

    def describe_gene(self, index: int) -> Tuple[str, int, int, int]:
        """Human-readable description of gene ``index``.

        Returns ``(kind, layer, neuron, input)`` where ``kind`` is one of
        ``"mask"``, ``"sign"``, ``"exponent"``, ``"bias"`` or ``"shift"``
        (``input`` is -1 for bias and shift genes).
        """
        if not 0 <= index < self.num_genes:
            raise IndexError(f"gene index {index} out of range")
        if self._shift_slice.start <= index < self._shift_slice.stop:
            return ("shift", index - self._shift_slice.start, -1, -1)
        for layer_index, (fan_in, fan_out) in enumerate(self.topology.layer_shapes()):
            sl = self._layer_slices[layer_index]
            if not (sl.start <= index < sl.stop):
                continue
            local = index - sl.start
            genes_per_neuron = fan_in * GENES_PER_CONNECTION + 1
            neuron = local // genes_per_neuron
            within = local % genes_per_neuron
            if within == fan_in * GENES_PER_CONNECTION:
                return ("bias", layer_index, neuron, -1)
            input_index = within // GENES_PER_CONNECTION
            kind = ("mask", "sign", "exponent")[within % GENES_PER_CONNECTION]
            return (kind, layer_index, neuron, input_index)
        raise IndexError(f"gene index {index} not mapped")  # pragma: no cover
