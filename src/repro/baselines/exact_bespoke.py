"""The exact bespoke printed MLP baseline (Mubarik et al., MICRO'20).

A bespoke MLP hardwires every trained coefficient in the circuit: each
weight becomes a constant-coefficient multiplier, each neuron a merged
multiply-accumulate adder tree.  The paper's baseline uses 8-bit
fixed-point weights and 4-bit inputs (Section V-A) and is what all area
and power reductions are reported against (Table I / Table II).

This module provides:

* :class:`BespokeMLP` — the integer inference model of the quantized
  circuit (so the reported baseline accuracy is the accuracy of the
  actual fixed-point hardware, not of the float model),
* :func:`quantize_float_mlp` — post-training quantization of a
  gradient-trained :class:`~repro.baselines.gradient.FloatMLP` with
  activation-range calibration on the training data,
* :func:`train_exact_baseline` — the full baseline flow (train float →
  quantize → report accuracy) used by the Table I experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.approx.topology import Topology
from repro.baselines.gradient import FloatMLP, GradientTrainer
from repro.hardware.synthesis import HardwareReport, synthesize_exact_mlp
from repro.quant.qrelu import qrelu
from repro.quant.quantizers import (
    DEFAULT_ACTIVATION_BITS,
    DEFAULT_INPUT_BITS,
    DEFAULT_WEIGHT_BITS,
)

__all__ = ["BespokeMLP", "quantize_float_mlp", "train_exact_baseline"]


@dataclass
class BespokeMLP:
    """Integer inference model of an exact bespoke printed MLP.

    Attributes
    ----------
    topology:
        Layer sizes.
    weight_codes:
        One ``(fan_in, fan_out)`` integer array per layer — the
        hard-wired fixed-point weight codes.
    bias_codes:
        One ``(fan_out,)`` integer array per layer, expressed in the
        accumulator scale of that layer.
    shifts:
        Per-layer QReLU right shifts (the last entry is unused: the
        output layer feeds the argmax directly).
    input_bits:
        Bit-width of the primary inputs.
    activation_bits:
        Bit-width of the hidden QReLU activations.
    """

    topology: Topology
    weight_codes: List[np.ndarray]
    bias_codes: List[np.ndarray]
    shifts: List[int]
    input_bits: int = DEFAULT_INPUT_BITS
    activation_bits: int = DEFAULT_ACTIVATION_BITS

    def __post_init__(self) -> None:
        if len(self.weight_codes) != self.topology.num_layers:
            raise ValueError("one weight-code matrix per layer is required")
        if len(self.bias_codes) != self.topology.num_layers:
            raise ValueError("one bias-code vector per layer is required")
        if len(self.shifts) != self.topology.num_layers:
            raise ValueError("one shift per layer is required")
        self.weight_codes = [np.asarray(w, dtype=np.int64) for w in self.weight_codes]
        self.bias_codes = [np.asarray(b, dtype=np.int64) for b in self.bias_codes]

    @property
    def input_bits_per_layer(self) -> List[int]:
        """Bit-width of the activations feeding each layer."""
        return [self.input_bits] + [self.activation_bits] * (self.topology.num_layers - 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output-layer accumulators for integer-quantized inputs."""
        activations = np.asarray(x, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        num_layers = self.topology.num_layers
        for index in range(num_layers):
            acc = activations @ self.weight_codes[index] + self.bias_codes[index]
            if index < num_layers - 1:
                activations = qrelu(acc, shift=self.shifts[index], out_bits=self.activation_bits)
            else:
                activations = acc
        return activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices for integer-quantized inputs."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on integer-quantized inputs."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def synthesize(self, clock_period_ms: Optional[float] = None) -> HardwareReport:
        """Hardware analysis of the bespoke circuit (area, power, delay).

        Pass the dataset's registry clock period
        (``get_spec(name).clock_period_ms``); ``None`` falls back to the
        200 ms default, which is wrong for Pendigits (250 ms).
        """
        return synthesize_exact_mlp(
            weight_codes=self.weight_codes,
            bias_codes=self.bias_codes,
            input_bits_per_layer=self.input_bits_per_layer,
            activation_bits=self.activation_bits,
            activation_shifts=self.shifts,
            clock_period_ms=clock_period_ms,
        )


def quantize_float_mlp(
    model: FloatMLP,
    calibration_inputs: np.ndarray,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    input_bits: int = DEFAULT_INPUT_BITS,
    activation_bits: int = DEFAULT_ACTIVATION_BITS,
) -> BespokeMLP:
    """Post-training quantization of a float MLP into a bespoke integer MLP.

    The scheme follows the standard bespoke flow: symmetric per-layer
    weight quantization to ``weight_bits`` bits, inputs quantized to
    ``input_bits`` bits, biases folded into the accumulator scale, and a
    per-layer power-of-two requantization (right shift) chosen from the
    activation range observed on ``calibration_inputs`` so that hidden
    activations fill the ``activation_bits``-bit QReLU range.

    Parameters
    ----------
    calibration_inputs:
        Real-valued (normalized to ``[0, 1]``) training inputs used only
        to calibrate the activation shifts.
    """
    calibration_inputs = np.asarray(calibration_inputs, dtype=np.float64)
    num_layers = model.topology.num_layers

    weight_codes: List[np.ndarray] = []
    bias_codes: List[np.ndarray] = []
    shifts: List[int] = []

    # Scale of the integer activations entering each layer.
    input_scale = 1.0 / ((1 << input_bits) - 1)
    act_max_code = (1 << activation_bits) - 1
    w_max_code = (1 << (weight_bits - 1)) - 1

    # Integer activations of the calibration set, propagated layer by layer.
    int_activations = np.round(calibration_inputs / input_scale).astype(np.int64)
    current_scale = input_scale

    for index in range(num_layers):
        weights = model.weights[index]
        biases = model.biases[index]
        max_abs = float(np.max(np.abs(weights))) if weights.size else 1.0
        weight_scale = max(max_abs, 1e-12) / w_max_code
        codes = np.clip(np.round(weights / weight_scale), -w_max_code - 1, w_max_code)
        codes = codes.astype(np.int64)
        acc_scale = weight_scale * current_scale
        bias_code = np.round(biases / acc_scale).astype(np.int64)

        weight_codes.append(codes)
        bias_codes.append(bias_code)

        acc = int_activations @ codes + bias_code
        if index < num_layers - 1:
            max_acc = float(np.percentile(np.maximum(acc, 0), 99.9)) if acc.size else 1.0
            max_acc = max(max_acc, 1.0)
            shift = max(int(np.ceil(np.log2((max_acc + 1) / (act_max_code + 1)))), 0)
            shifts.append(shift)
            int_activations = qrelu(acc, shift=shift, out_bits=activation_bits)
            current_scale = acc_scale * (2**shift)
        else:
            shifts.append(0)

    return BespokeMLP(
        topology=model.topology,
        weight_codes=weight_codes,
        bias_codes=bias_codes,
        shifts=shifts,
        input_bits=input_bits,
        activation_bits=activation_bits,
    )


def train_exact_baseline(
    features: np.ndarray,
    labels: np.ndarray,
    topology: Topology | Sequence[int],
    trainer: Optional[GradientTrainer] = None,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    input_bits: int = DEFAULT_INPUT_BITS,
    activation_bits: int = DEFAULT_ACTIVATION_BITS,
) -> tuple[BespokeMLP, FloatMLP]:
    """Full exact-baseline flow: gradient training + post-training quantization.

    Returns the quantized bespoke model and the underlying float model
    (the latter is reused by the post-training approximation baselines).
    """
    if not isinstance(topology, Topology):
        topology = Topology(topology)
    trainer = trainer or GradientTrainer()
    result = trainer.train(features, labels, topology)
    bespoke = quantize_float_mlp(
        result.model,
        calibration_inputs=features,
        weight_bits=weight_bits,
        input_bits=input_bits,
        activation_bits=activation_bits,
    )
    return bespoke, result.model
