"""Fig. 5 feasibility assessment: which printed power source fits which MLP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.power_sources import FeasibilityZone, classify_power_source
from repro.hardware.synthesis import HardwareReport

__all__ = ["FeasibilityResult", "assess_feasibility"]


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasibility of one circuit at a given operating voltage."""

    design_name: str
    voltage: float
    area_cm2: float
    power_mw: float
    zone: FeasibilityZone

    @property
    def label(self) -> str:
        """Zone label as used in the Fig. 5 legend."""
        return self.zone.label

    @property
    def self_powered(self) -> bool:
        """True when a printed energy harvester suffices."""
        return self.zone.self_powered


def assess_feasibility(
    report: HardwareReport,
    design_name: str,
    voltage: Optional[float] = None,
) -> FeasibilityResult:
    """Classify a synthesized circuit into its feasibility zone.

    Parameters
    ----------
    report:
        Hardware report of the circuit (at any voltage).
    voltage:
        Operating voltage to assess; when different from the report's
        voltage the report is re-scaled first (the Fig. 5 study operates
        the approximate MLPs at the minimum 0.6 V supply).
    """
    if voltage is not None and abs(voltage - report.voltage) > 1e-9:
        report = report.scaled_to_voltage(voltage)
    zone = classify_power_source(power_mw=report.power_mw, area_cm2=report.area_cm2)
    return FeasibilityResult(
        design_name=design_name,
        voltage=report.voltage,
        area_cm2=report.area_cm2,
        power_mw=report.power_mw,
        zone=zone,
    )
