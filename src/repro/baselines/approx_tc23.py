"""Post-training approximation baseline of Armeniakos et al. (IEEE TC 2023).

The TC'23 co-design approach keeps the conventional (gradient) training
untouched and applies approximation afterwards:

* every hard-wired coefficient is replaced by the closest
  *area-efficient* value — a value with at most ``max_csd_digits``
  non-zero digits in canonical signed-digit form, which shrinks the
  bespoke constant multiplier, and
* accumulations are truncated: the ``truncation_bits`` least-significant
  bits of every summand are dropped, removing the corresponding adder
  columns.

Unlike the paper's (and this reproduction's) genetic approach, the
accuracy/area trade-off is explored only *after* training, so the
reachable Pareto front is strictly worse — which is exactly the
comparison Fig. 4 makes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import product
from typing import List, Optional

import numpy as np

from repro.baselines.exact_bespoke import BespokeMLP
from repro.hardware.area import csd_encode
from repro.hardware.synthesis import HardwareReport, synthesize_exact_mlp
from repro.quant.qrelu import qrelu
from repro.serving.queries import DEFAULT_ACCURACY_LOSS

__all__ = [
    "approximate_weight_code",
    "approximate_weight_codes",
    "Tc23Config",
    "Tc23ApproximateMLP",
    "explore_tc23",
]

#: The TC'23 sweep grid: CSD digits per coefficient x truncated LSBs.
CSD_DIGIT_OPTIONS = (1, 2, 3)
TRUNCATION_OPTIONS = (0, 1, 2, 3)


def approximate_weight_code(code: int, max_csd_digits: int) -> int:
    """Closest value to ``code`` representable with at most ``max_csd_digits`` CSD digits.

    Keeps the most-significant digits of the canonical signed-digit
    expansion, which is the classic way of building cheaper hard-wired
    constant multipliers.
    """
    if max_csd_digits <= 0:
        return 0
    digits = csd_encode(int(code))
    if len(digits) <= max_csd_digits:
        return int(code)
    # Keep the largest-magnitude digits.
    digits_sorted = sorted(digits, key=lambda item: item[0], reverse=True)
    kept = digits_sorted[:max_csd_digits]
    return int(sum(digit * (1 << position) for position, digit in kept))


def approximate_weight_codes(codes: np.ndarray, max_csd_digits: int) -> np.ndarray:
    """:func:`approximate_weight_code` of every element of ``codes``.

    Each distinct code is approximated once and read back through the
    ``np.unique`` inverse index: a layer's codes repeat heavily.
    """
    codes = np.asarray(codes, dtype=np.int64)
    distinct, inverse = np.unique(codes, return_inverse=True)
    table = np.array(
        [approximate_weight_code(int(code), max_csd_digits) for code in distinct.tolist()],
        dtype=np.int64,
    )
    return table[inverse].reshape(codes.shape)


@dataclass(frozen=True)
class Tc23Config:
    """One operating point of the TC'23 approximation space."""

    max_csd_digits: int = 2
    truncation_bits: int = 0

    def __post_init__(self) -> None:
        if self.max_csd_digits < 1:
            raise ValueError("max_csd_digits must be at least 1")
        if self.truncation_bits < 0:
            raise ValueError("truncation_bits must be non-negative")


@dataclass
class Tc23ApproximateMLP:
    """A bespoke MLP after TC'23-style post-training approximation."""

    base: BespokeMLP
    config: Tc23Config

    def __post_init__(self) -> None:
        self.weight_codes = [
            approximate_weight_codes(codes, self.config.max_csd_digits)
            for codes in self.base.weight_codes
        ]

    def _at_truncation(self, truncation_bits: int) -> "Tc23ApproximateMLP":
        """This model at another truncation, sharing its approximated codes
        (they depend on the digit count only)."""
        model = copy.copy(self)
        model.config = Tc23Config(self.config.max_csd_digits, truncation_bits)
        return model

    def _truncate(self, activations: np.ndarray) -> np.ndarray:
        t = self.config.truncation_bits
        if t <= 0:
            return activations
        return (activations >> t) << t

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output scores with approximated coefficients and truncation."""
        activations = np.asarray(x, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        num_layers = self.base.topology.num_layers
        for index in range(num_layers):
            truncated = self._truncate(activations)
            acc = truncated @ self.weight_codes[index] + self.base.bias_codes[index]
            if index < num_layers - 1:
                activations = qrelu(
                    acc, shift=self.base.shifts[index], out_bits=self.base.activation_bits
                )
            else:
                activations = acc
        return activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on integer-quantized inputs."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def synthesis_job(self) -> dict:
        """Per-model synthesis arguments for the batched exact engine.

        Truncated summand bits simply disappear from the adder trees, so
        the per-layer effective input width shrinks by ``truncation_bits``.
        """
        effective_bits = [
            max(bits - self.config.truncation_bits, 1)
            for bits in self.base.input_bits_per_layer
        ]
        return {
            "weight_codes": self.weight_codes,
            "bias_codes": self.base.bias_codes,
            "input_bits_per_layer": effective_bits,
            "activation_bits": self.base.activation_bits,
            "activation_shifts": self.base.shifts,
        }

    def synthesize(
        self, voltage: float = 1.0, clock_period_ms: Optional[float] = None
    ) -> HardwareReport:
        """Hardware analysis of the approximated bespoke circuit."""
        return synthesize_exact_mlp(
            voltage=voltage,
            clock_period_ms=clock_period_ms,
            **self.synthesis_job(),
        )


def explore_tc23(
    base: BespokeMLP,
    inputs: np.ndarray,
    labels: np.ndarray,
    baseline_accuracy: float,
    max_accuracy_loss: float = DEFAULT_ACCURACY_LOSS,
    clock_period_ms: Optional[float] = None,
) -> tuple[Optional[Tc23ApproximateMLP], Optional[HardwareReport], List[dict]]:
    """Sweep the TC'23 design space and pick the smallest admissible circuit.

    Returns the chosen model, its hardware report, and the full sweep
    log (one dict per configuration with accuracy and area).  The whole
    grid is synthesized with one population-batched call.
    """
    from repro.hardware.fast_synthesis import synthesize_exact_population

    configs = list(product(CSD_DIGIT_OPTIONS, TRUNCATION_OPTIONS))
    # Weight codes are approximated once per digit count and shared by
    # that count's truncations.
    approximated = {
        digits: Tc23ApproximateMLP(base=base, config=Tc23Config(digits))
        for digits in dict.fromkeys(digits for digits, _ in configs)
    }
    models = [approximated[digits]._at_truncation(trunc) for digits, trunc in configs]
    reports = synthesize_exact_population(
        [model.synthesis_job() for model in models], clock_period_ms=clock_period_ms
    )

    best_model: Optional[Tc23ApproximateMLP] = None
    best_report: Optional[HardwareReport] = None
    sweep: List[dict] = []
    for (digits, trunc), model, report in zip(configs, models, reports):
        accuracy = model.accuracy(inputs, labels)
        sweep.append(
            {
                "max_csd_digits": digits,
                "truncation_bits": trunc,
                "accuracy": accuracy,
                "area_cm2": report.area_cm2,
                "power_mw": report.power_mw,
            }
        )
        if accuracy < baseline_accuracy - max_accuracy_loss:
            continue
        if best_report is None or report.area_cm2 < best_report.area_cm2:
            best_model, best_report = model, report
    return best_model, best_report, sweep
