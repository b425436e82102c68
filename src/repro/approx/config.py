"""Configuration of the approximate-MLP number formats.

The defaults follow the paper's experimental setup (Section III-B and
V-A): 4-bit primary inputs, 8-bit QReLU activations, 8-bit weight
"budget" (which bounds the power-of-two exponent range to
``[0, weight_bits - 1)``), and 8-bit integer biases.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ApproxConfig"]


@dataclass(frozen=True)
class ApproxConfig:
    """Number formats shared by the approximate MLP and its cost models.

    Attributes
    ----------
    input_bits:
        Bit-width of the (unsigned) primary input features.
    activation_bits:
        Bit-width of the (unsigned) QReLU outputs, i.e. the inputs of
        every hidden/output layer after the first.
    weight_bits:
        Nominal weight bit budget ``n``.  Following equation (1) of the
        paper, the power-of-two exponent satisfies ``k in [0, n - 1)``,
        i.e. ``k <= n - 2``.
    bias_bits:
        Bit-width of the signed integer biases.
    """

    input_bits: int = 4
    activation_bits: int = 8
    weight_bits: int = 8
    bias_bits: int = 8

    def __post_init__(self) -> None:
        for name in ("input_bits", "activation_bits", "weight_bits", "bias_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.weight_bits < 2:
            raise ValueError(
                f"weight_bits must be at least 2 so that at least one exponent "
                f"value exists, got {self.weight_bits}"
            )

    @property
    def max_exponent(self) -> int:
        """Largest admissible power-of-two exponent ``k`` (inclusive)."""
        return self.weight_bits - 2

    @property
    def max_input_value(self) -> int:
        """Largest primary-input code."""
        return (1 << self.input_bits) - 1

    @property
    def bias_min(self) -> int:
        """Smallest signed bias code."""
        return -(1 << (self.bias_bits - 1))

    @property
    def bias_max(self) -> int:
        """Largest signed bias code."""
        return (1 << (self.bias_bits - 1)) - 1

    def layer_input_bits(self, layer_index: int) -> int:
        """Bit-width of the inputs feeding layer ``layer_index``.

        The first layer receives the quantized primary inputs, every
        subsequent layer receives QReLU activations.
        """
        if layer_index < 0:
            raise ValueError(f"layer_index must be non-negative, got {layer_index}")
        return self.input_bits if layer_index == 0 else self.activation_bits
