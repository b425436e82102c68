"""Printed EGFET technology model.

The paper maps all circuits to the printed Electrolyte-Gated FET (EGFET)
library of Bleier et al. (ISCA'20) with Synopsys tooling.  That library
is not publicly redistributable, so this module provides a calibrated
stand-in: a cell library with per-cell area, power and delay plus a
supply-voltage scaling model.

Calibration targets (see DESIGN.md): the exact bespoke baseline MLPs of
Table I occupy 12–67 cm² and draw 40–213 mW at 1 V with clock periods of
200–250 ms, and their power density is roughly 3.3–4.2 mW/cm².  The cell
areas below are chosen so that the gate-level cost models of
:mod:`repro.hardware.synthesis` land in that range for the Table I
topologies, while *relative* costs between cells follow standard
CMOS-style gate-equivalent ratios (an FA is ~9 NAND2 equivalents, a DFF
~5, an XOR ~2, ...).  Because every design — baseline, state of the art,
and ours — is evaluated with the same library, the reduction factors
reported in the experiments depend only on these ratios, not on the
absolute calibration.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = ["CellSpec", "EGFETLibrary", "default_egfet_library", "rescale_power_delay"]


@dataclass(frozen=True)
class CellSpec:
    """Area / power / delay characterization of one printed standard cell.

    Attributes
    ----------
    area_cm2:
        Printed footprint of the cell in cm².
    power_mw:
        Total (dominantly static, as typical for EGFET inverters with
        resistive loads) power draw at the nominal 1 V supply, in mW.
    delay_ms:
        Propagation delay at the nominal supply, in milliseconds — EGFET
        circuits switch in the millisecond range (a few Hz to kHz).
    """

    area_cm2: float
    power_mw: float
    delay_ms: float

    def __post_init__(self) -> None:
        if self.area_cm2 < 0 or self.power_mw < 0 or self.delay_ms < 0:
            raise ValueError("cell characterization values must be non-negative")


#: Power density of EGFET logic at the nominal 1 V supply, in mW/cm².
#: Derived from the Table I baseline circuits (power / area ≈ 3.3–4.2).
NOMINAL_POWER_DENSITY_MW_PER_CM2 = 3.4

#: Nominal EGFET supply voltage (V).
NOMINAL_VOLTAGE = 1.0

#: Minimum supply voltage at which EGFET logic remains functional (V),
#: per Marques et al. (Adv. Materials 2019) as cited in the paper.
MIN_VOLTAGE = 0.6

# Gate-equivalent areas.  The unit gate (NAND2) footprint is chosen so
# that the exact bespoke Table I baselines land in the published cm²
# range (see module docstring).
_UNIT_GATE_AREA_CM2 = 3.3e-3
_UNIT_GATE_DELAY_MS = 1.0

_GATE_EQUIVALENTS: Dict[str, float] = {
    "INV": 0.6,
    "BUF": 0.8,
    "NAND2": 1.0,
    "NOR2": 1.0,
    "AND2": 1.3,
    "OR2": 1.3,
    "XOR2": 2.2,
    "XNOR2": 2.2,
    "MUX2": 2.0,
    "HA": 3.5,
    "FA": 8.5,
    "DFF": 5.0,
}

_GATE_DELAYS_MS: Dict[str, float] = {
    "INV": 0.5,
    "BUF": 0.6,
    "NAND2": 1.0,
    "NOR2": 1.0,
    "AND2": 1.2,
    "OR2": 1.2,
    "XOR2": 1.8,
    "XNOR2": 1.8,
    "MUX2": 1.5,
    "HA": 2.0,
    "FA": 3.0,
    "DFF": 2.5,
}


@dataclass(frozen=True)
class EGFETLibrary:
    """A printed EGFET standard-cell library with voltage scaling.

    Attributes
    ----------
    cells:
        Mapping from cell name to :class:`CellSpec` at the nominal supply.
    nominal_voltage:
        Supply voltage at which the cells are characterized (V).
    min_voltage:
        Lowest supported supply voltage (V).
    power_exponent:
        Exponent of the supply-voltage power scaling law
        ``P(V) = P(V_nom) * (V / V_nom) ** power_exponent``.
    """

    cells: Mapping[str, CellSpec]
    nominal_voltage: float = NOMINAL_VOLTAGE
    min_voltage: float = MIN_VOLTAGE
    power_exponent: float = 2.0
    name: str = "egfet-printed"

    def cell(self, cell_name: str) -> CellSpec:
        """Look up a cell, raising ``KeyError`` with the available names."""
        try:
            return self.cells[cell_name]
        except KeyError:
            raise KeyError(
                f"unknown cell {cell_name!r}; available: {sorted(self.cells)}"
            ) from None

    def area(self, cell_name: str, count: float = 1.0) -> float:
        """Area (cm²) of ``count`` instances of a cell."""
        return self.cell(cell_name).area_cm2 * count

    def power(self, cell_name: str, count: float = 1.0, voltage: float | None = None) -> float:
        """Power (mW) of ``count`` instances of a cell at a given supply."""
        base = self.cell(cell_name).power_mw * count
        return base * self.voltage_power_factor(voltage)

    def delay(self, cell_name: str, voltage: float | None = None) -> float:
        """Propagation delay (ms) of a cell at a given supply voltage."""
        return self.cell(cell_name).delay_ms * self.voltage_delay_factor(voltage)

    def voltage_power_factor(self, voltage: float | None) -> float:
        """Power scaling factor relative to the nominal supply."""
        if voltage is None:
            return 1.0
        self._check_voltage(voltage)
        return (voltage / self.nominal_voltage) ** self.power_exponent

    def voltage_delay_factor(self, voltage: float | None) -> float:
        """Delay scaling factor relative to the nominal supply.

        A simple alpha-power-law-inspired model: delay grows as the
        inverse of the supply overdrive.  At the minimum supported supply
        (0.6 V) delay is roughly 2x the nominal value, consistent with
        the paper's observation that its faster approximate circuits can
        absorb voltage scaling without missing the baseline latency.
        """
        if voltage is None:
            return 1.0
        self._check_voltage(voltage)
        return self.nominal_voltage / max(voltage - 0.35 * self.nominal_voltage, 1e-6) * 0.65

    def _check_voltage(self, voltage: float) -> None:
        if voltage <= 0:
            raise ValueError(f"voltage must be positive, got {voltage}")
        if voltage < self.min_voltage - 1e-9:
            raise ValueError(
                f"voltage {voltage} V is below the minimum supported supply "
                f"({self.min_voltage} V) of the EGFET technology"
            )


@functools.cache
def default_egfet_library() -> EGFETLibrary:
    """The default calibrated printed EGFET library.

    Built once per process.  Every call returns the same immutable
    instance: the dataclass is frozen and its ``cells`` is a read-only
    mapping, so threads share it safely.  It is the one library every
    circuit is priced with, as in the paper.
    """
    cells: Dict[str, CellSpec] = {}
    for name, ge in _GATE_EQUIVALENTS.items():
        area = _UNIT_GATE_AREA_CM2 * ge
        power = area * NOMINAL_POWER_DENSITY_MW_PER_CM2
        delay = _UNIT_GATE_DELAY_MS * _GATE_DELAYS_MS[name]
        cells[name] = CellSpec(area_cm2=area, power_mw=power, delay_ms=delay)
    return EGFETLibrary(cells=types.MappingProxyType(cells))


def rescale_power_delay(
    power_mw: float, delay_ms: float, from_voltage: float, to_voltage: float
) -> Tuple[float, float]:
    """``(power_mw, delay_ms)`` of a circuit moved from one supply to another.

    Area is voltage-independent; power and delay follow the default
    library's scaling laws.  This is the one re-scaling rule of the
    Fig. 5 study; the serving tier's
    :func:`~repro.serving.queries.scale_report` applies it to stored
    reports.
    """
    library = default_egfet_library()
    power = (
        power_mw
        / library.voltage_power_factor(from_voltage)
        * library.voltage_power_factor(to_voltage)
    )
    delay = (
        delay_ms
        / library.voltage_delay_factor(from_voltage)
        * library.voltage_delay_factor(to_voltage)
    )
    return power, delay
