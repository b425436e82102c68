"""Cross-approximation + voltage over-scaling baseline (TCAD 2023).

Armeniakos et al. (TCAD'23) extend their cross-layer approximation
(coefficient replacement with area-efficient values plus gate-level
pruning of the additions) with *voltage over-scaling* (VOS): the supply
is dropped below the nominal 1 V (the paper's comparison operates these
circuits below 0.8 V), which saves power quadratically but lets timing
errors creep into the longest adder-tree paths.

The reproduction models VOS behaviourally: below the safe supply, every
neuron accumulation suffers a bit-flip in one of its most significant
carry positions with a probability that grows with the over-scaling
depth.  This captures the characteristic accuracy/power trade-off of the
method without a full timing simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.approx_tc23 import Tc23Config, Tc23ApproximateMLP
from repro.baselines.exact_bespoke import BespokeMLP
from repro.hardware.egfet import MIN_VOLTAGE, NOMINAL_VOLTAGE
from repro.hardware.synthesis import HardwareReport
from repro.quant.qrelu import qrelu
from repro.serving.queries import DEFAULT_ACCURACY_LOSS

__all__ = ["VosConfig", "VosApproximateMLP", "explore_vos"]

#: The TCAD'23 sweep grid: CSD digits per coefficient x over-scaled supply (V).
CSD_DIGIT_OPTIONS = (1, 2, 3)
VOLTAGE_OPTIONS = (0.8, 0.7)

#: Per-neuron timing-error probability at the EGFET minimum supply; it
#: falls linearly to zero at the nominal supply.
ERROR_RATE_AT_MIN = 0.08


@dataclass(frozen=True)
class VosConfig:
    """Operating point: coefficient approximation plus supply voltage."""

    max_csd_digits: int = 2
    voltage: float = 0.8

    def __post_init__(self) -> None:
        if not MIN_VOLTAGE <= self.voltage <= NOMINAL_VOLTAGE:
            raise ValueError(
                f"voltage must lie in [{MIN_VOLTAGE}, {NOMINAL_VOLTAGE}], got {self.voltage}"
            )

    @property
    def timing_error_probability(self) -> float:
        """Per-neuron probability of a VOS-induced timing error."""
        if self.voltage >= NOMINAL_VOLTAGE - 1e-12:
            return 0.0
        depth = (NOMINAL_VOLTAGE - self.voltage) / (NOMINAL_VOLTAGE - MIN_VOLTAGE)
        return float(np.clip(depth, 0.0, 1.0) * ERROR_RATE_AT_MIN)


@dataclass
class VosApproximateMLP:
    """A coefficient-approximated bespoke MLP operated under VOS."""

    base: BespokeMLP
    config: VosConfig
    seed: int = 0

    def __post_init__(self) -> None:
        self._inner = Tc23ApproximateMLP(
            base=self.base,
            config=Tc23Config(max_csd_digits=self.config.max_csd_digits, truncation_bits=0),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output scores including stochastic VOS timing errors."""
        rng = np.random.default_rng(self.seed)
        activations = np.asarray(x, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        num_layers = self.base.topology.num_layers
        error_p = self.config.timing_error_probability
        for index in range(num_layers):
            acc = activations @ self._inner.weight_codes[index] + self.base.bias_codes[index]
            if error_p > 0.0:
                # A timing error flips a high-order carry: model it as a
                # +/- perturbation of about an eighth of the value range.
                magnitude = np.maximum(np.abs(acc) // 8, 1)
                flips = rng.random(acc.shape) < error_p
                signs = rng.choice(np.array([-1, 1]), size=acc.shape)
                acc = acc + flips * signs * magnitude
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
        """Classification accuracy (including VOS error injection)."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def synthesis_job(self) -> dict:
        """Per-model synthesis arguments for the batched exact engine."""
        return self._inner.synthesis_job()

    def synthesize(self, clock_period_ms: Optional[float] = None) -> HardwareReport:
        """Hardware analysis at the over-scaled supply voltage."""
        return self._inner.synthesize(
            voltage=self.config.voltage, clock_period_ms=clock_period_ms
        )


def explore_vos(
    base: BespokeMLP,
    inputs: np.ndarray,
    labels: np.ndarray,
    baseline_accuracy: float,
    max_accuracy_loss: float = DEFAULT_ACCURACY_LOSS,
    clock_period_ms: Optional[float] = None,
    seed: int = 0,
) -> tuple[Optional[VosApproximateMLP], Optional[HardwareReport], List[dict]]:
    """Sweep the TCAD'23 design space and pick the lowest-power admissible point.

    The whole (CSD digits × supply voltage) grid is synthesized with one
    population-batched call; the per-point supply voltages are passed
    through as a vector.
    """
    from repro.hardware.fast_synthesis import synthesize_exact_population

    configs = [
        (digits, voltage)
        for digits in CSD_DIGIT_OPTIONS
        for voltage in VOLTAGE_OPTIONS
    ]
    models = [
        VosApproximateMLP(
            base=base,
            config=VosConfig(max_csd_digits=digits, voltage=voltage),
            seed=seed,
        )
        for digits, voltage in configs
    ]
    reports = synthesize_exact_population(
        [model.synthesis_job() for model in models],
        voltage=[voltage for _, voltage in configs],
        clock_period_ms=clock_period_ms,
    )

    best_model: Optional[VosApproximateMLP] = None
    best_report: Optional[HardwareReport] = None
    sweep: List[dict] = []
    for (digits, voltage), model, report in zip(configs, models, reports):
        accuracy = model.accuracy(inputs, labels)
        sweep.append(
            {
                "max_csd_digits": digits,
                "voltage": voltage,
                "accuracy": accuracy,
                "area_cm2": report.area_cm2,
                "power_mw": report.power_mw,
            }
        )
        if accuracy < baseline_accuracy - max_accuracy_loss:
            continue
        if best_report is None or report.power_mw < best_report.power_mw:
            best_model, best_report = model, report
    return best_model, best_report, sweep
