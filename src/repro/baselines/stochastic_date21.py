"""Stochastic-computing printed MLP baseline (Weller et al., DATE 2021).

The DATE'21 design encodes every value as a bipolar stochastic bitstream
of length 1024: multiplication becomes a single XNOR gate, and the
multi-operand addition becomes a mux-based *scaled* adder (the output is
the average of its inputs).  The resulting circuits are tiny but

* the scaled addition divides the signal by the fan-in, wasting dynamic
  range, and
* the finite bitstream adds sampling noise,

which is why the DATE'21 MLPs lose on average ~35 % accuracy (and only
reach ~22 % on Pendigits) — the comparison point of Fig. 4.

The simulator below uses the exact first- and second-order statistics of
the bitstream arithmetic (mean plus binomial sampling noise) instead of
materializing the 1024-bit streams, which keeps the evaluation fast
while preserving the accuracy-degradation mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines.gradient import FloatMLP
from repro.hardware.egfet import default_egfet_library
from repro.hardware.synthesis import HardwareReport

__all__ = ["StochasticConfig", "StochasticMLP"]

#: Bitstream length used by the DATE'21 design.
DEFAULT_STREAM_LENGTH = 1024


@dataclass(frozen=True)
class StochasticConfig:
    """Parameters of the stochastic-computing MLP."""

    stream_length: int = DEFAULT_STREAM_LENGTH
    clock_period_ms: float = 0.22
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stream_length <= 0:
            raise ValueError("stream_length must be positive")

    @property
    def inference_latency_ms(self) -> float:
        """Latency of one inference (one full bitstream)."""
        return self.stream_length * self.clock_period_ms


@dataclass
class StochasticMLP:
    """Bipolar stochastic-computing MLP built from a float model."""

    model: FloatMLP
    config: StochasticConfig = StochasticConfig()

    def __post_init__(self) -> None:
        # Bipolar encoding requires values in [-1, 1]; normalize weights
        # per layer by their maximum magnitude (the hardware hardwires the
        # resulting probabilities in the stream generators).
        self._scaled_weights: List[np.ndarray] = []
        self._scaled_biases: List[np.ndarray] = []
        for weights, biases in zip(self.model.weights, self.model.biases):
            scale = float(np.max(np.abs(weights))) or 1.0
            self._scaled_weights.append(np.clip(weights / scale, -1.0, 1.0))
            self._scaled_biases.append(np.clip(biases / scale, -1.0, 1.0))

    def _stochastic_layer(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        biases: np.ndarray,
        rng: np.random.Generator,
        apply_relu: bool,
    ) -> np.ndarray:
        """One SC layer: XNOR products, mux-scaled addition, stream noise."""
        n_samples, fan_in = activations.shape
        fan_out = weights.shape[1]
        # XNOR multiplication of bipolar streams has expectation x * w.
        products = activations[:, :, None] * weights[None, :, :]
        # Mux-based scaled addition: average over fan_in + 1 (bias) inputs.
        scaled_sum = (products.sum(axis=1) + biases[None, :]) / (fan_in + 1)
        # Finite-length bitstream: the observed value is a binomial average.
        length = self.config.stream_length
        probabilities = np.clip((scaled_sum + 1.0) / 2.0, 0.0, 1.0)
        counts = rng.binomial(length, probabilities, size=(n_samples, fan_out))
        observed = counts / length * 2.0 - 1.0
        if apply_relu:
            observed = np.maximum(observed, 0.0)
        return observed

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Class scores for real-valued inputs in ``[0, 1]``."""
        rng = np.random.default_rng(self.config.seed)
        activations = np.clip(np.asarray(features, dtype=np.float64), 0.0, 1.0)
        num_layers = len(self._scaled_weights)
        for index in range(num_layers):
            activations = self._stochastic_layer(
                activations,
                self._scaled_weights[index],
                self._scaled_biases[index],
                rng,
                apply_relu=index < num_layers - 1,
            )
        return activations

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on real-valued inputs."""
        return float(np.mean(self.predict(features) == np.asarray(labels)))

    # ------------------------------------------------------------------
    # Hardware model
    # ------------------------------------------------------------------
    def cell_counts(self) -> dict:
        """Standard-cell counts of the stochastic datapath.

        Per connection: one XNOR (multiplication).  Per neuron: a mux
        tree over its inputs (fan_in MUX2), plus an up/down counter to
        convert the output stream back to binary (~10 DFF + 10 HA).  Per
        primary input and per hard-wired weight: a stream generator
        sharing one global LFSR (counted once, 16 DFF + 3 XOR) plus a
        comparator (~8 AND2 each).
        """
        topology = self.model.topology
        xnor = topology.num_weights
        mux = sum(fan_in * fan_out for fan_in, fan_out in topology.layer_shapes())
        counters_dff = 10 * topology.num_biases
        counters_ha = 10 * topology.num_biases
        generators = topology.num_inputs + topology.num_weights
        return {
            "XNOR2": float(xnor),
            "MUX2": float(mux),
            "DFF": float(counters_dff + 16),
            "HA": float(counters_ha),
            "AND2": float(8 * generators),
            "XOR2": 3.0,
        }

    def synthesize(self) -> HardwareReport:
        """Hardware analysis of the stochastic MLP."""
        library = default_egfet_library()
        counts = self.cell_counts()
        area = sum(library.area(cell, count) for cell, count in counts.items())
        power = sum(library.power(cell, count) for cell, count in counts.items())
        delay = 4 * library.delay("MUX2")
        return HardwareReport(
            area_cm2=area,
            power_mw=power,
            delay_ms=delay,
            voltage=1.0,
            clock_period_ms=self.config.inference_latency_ms,
            cell_counts=counts,
            area_breakdown={"stochastic_datapath": area},
        )
