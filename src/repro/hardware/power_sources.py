"""Printed power sources and the Fig. 5 feasibility zones.

The paper classifies every MLP circuit by the smallest printed power
source able to drive it:

* a printed **energy harvester** (sub-mW, enables self-powered
  operation),
* the **Blue Spark** printed battery (5 mW),
* the **Zinergy** printed battery (15 mW),
* the **Molex** printed battery (30 mW),
* or **no adequate power supply** beyond that.

Additionally, circuits whose area exceeds a sustainability threshold are
placed in the "unsustainable area" zone regardless of power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "PowerSource",
    "PRINTED_POWER_SOURCES",
    "ENERGY_HARVESTER",
    "BLUE_SPARK",
    "ZINERGY",
    "MOLEX",
    "classify_power_source",
    "FeasibilityZone",
    "UNSUSTAINABLE_AREA_CM2",
]

#: Area beyond which a circuit is considered impractical for most printed
#: applications (the paper cites >12 cm² baselines as already unsuitable;
#: the red zone of Fig. 5 starts around the tens of cm²).
UNSUSTAINABLE_AREA_CM2 = 30.0


@dataclass(frozen=True)
class PowerSource:
    """A printed power source with its deliverable power budget."""

    name: str
    max_power_mw: float
    kind: str = "battery"

    def __post_init__(self) -> None:
        if self.max_power_mw <= 0:
            raise ValueError(f"max_power_mw must be positive, got {self.max_power_mw}")
        if self.kind not in ("harvester", "battery"):
            raise ValueError(f"kind must be 'harvester' or 'battery', got {self.kind!r}")

    def can_power(self, power_mw: float) -> bool:
        """Whether this source can sustain a circuit drawing ``power_mw``."""
        return power_mw <= self.max_power_mw


#: Printed energy harvester budget (mW).  Typical printed/organic energy
#: harvesters for wearables deliver on the order of a milliwatt.
ENERGY_HARVESTER = PowerSource(name="Printed energy harvester", max_power_mw=1.0, kind="harvester")
BLUE_SPARK = PowerSource(name="Blue Spark", max_power_mw=5.0)
ZINERGY = PowerSource(name="Zinergy", max_power_mw=15.0)
MOLEX = PowerSource(name="Molex", max_power_mw=30.0)

#: All printed power sources considered in the paper, smallest first.
PRINTED_POWER_SOURCES: List[PowerSource] = [ENERGY_HARVESTER, BLUE_SPARK, ZINERGY, MOLEX]


@dataclass(frozen=True)
class FeasibilityZone:
    """Zone assignment of one circuit in the Fig. 5 feasibility plot."""

    power_source: Optional[PowerSource]
    sustainable_area: bool

    @property
    def label(self) -> str:
        """Human-readable zone label matching the figure legend."""
        if not self.sustainable_area:
            return "Unsustainable Area"
        if self.power_source is None:
            return "No Adequate Power Supply"
        return self.power_source.name

    @property
    def feasible(self) -> bool:
        """Whether the circuit can actually be deployed."""
        return self.sustainable_area and self.power_source is not None

    @property
    def self_powered(self) -> bool:
        """Whether an energy harvester suffices (the green zone)."""
        return (
            self.feasible
            and self.power_source is not None
            and self.power_source.kind == "harvester"
        )


def classify_power_source(
    power_mw: float,
    area_cm2: float | None = None,
    sources: Sequence[PowerSource] = PRINTED_POWER_SOURCES,
    unsustainable_area_cm2: float = UNSUSTAINABLE_AREA_CM2,
) -> FeasibilityZone:
    """Assign a circuit to its Fig. 5 feasibility zone.

    Parameters
    ----------
    power_mw:
        Power draw of the circuit.
    area_cm2:
        Printed area; when provided, circuits larger than
        ``unsustainable_area_cm2`` land in the red zone.
    sources:
        Candidate power sources, in any order.  The circuit gets the
        smallest budget that can power it; among sources with that same
        budget the first listed wins.
    """
    if power_mw < 0:
        raise ValueError(f"power_mw must be non-negative, got {power_mw}")
    sustainable = True if area_cm2 is None else area_cm2 <= unsustainable_area_cm2
    chosen: Optional[PowerSource] = None
    for source in sources:
        if source.can_power(power_mw) and (
            chosen is None or source.max_power_mw < chosen.max_power_mw
        ):
            chosen = source
    return FeasibilityZone(power_source=chosen, sustainable_area=sustainable)
