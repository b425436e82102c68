"""MLP topology description.

A topology is the tuple of layer sizes reported in the paper's Table I,
e.g. ``(10, 3, 2)`` for the Breast Cancer MLP: 10 inputs, one hidden
layer with 3 neurons, 2 output neurons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """Layer sizes of an MLP, inputs first, outputs last."""

    sizes: Tuple[int, ...]

    def __init__(self, sizes: Sequence[int]) -> None:
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError(f"a topology needs at least input and output sizes, got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"all layer sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def num_inputs(self) -> int:
        """Number of input features."""
        return self.sizes[0]

    @property
    def num_outputs(self) -> int:
        """Number of output classes."""
        return self.sizes[-1]

    @property
    def num_layers(self) -> int:
        """Number of weight layers (hidden + output)."""
        return len(self.sizes) - 1

    @property
    def num_weights(self) -> int:
        """Number of weight (connection) parameters."""
        return sum(self.sizes[i] * self.sizes[i + 1] for i in range(self.num_layers))

    @property
    def num_biases(self) -> int:
        """Number of bias parameters (one per non-input neuron)."""
        return sum(self.sizes[1:])

    @property
    def num_parameters(self) -> int:
        """Total parameter count (weights + biases), as in Table I."""
        return self.num_weights + self.num_biases

    def layer_shapes(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(fan_in, fan_out)`` for every weight layer."""
        for i in range(self.num_layers):
            yield self.sizes[i], self.sizes[i + 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + ", ".join(str(s) for s in self.sizes) + ")"
