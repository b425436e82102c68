"""Hardware substrate: printed-technology cost models and synthesis.

This subpackage replaces the commercial EDA flow of the paper (Synopsys
Design Compiler / PrimeTime mapped to a printed EGFET library) with an
analytical but structurally faithful model.  Every computation has one
scalar reference and, where it is hot, one vectorized kernel that must
match it exactly (the kernel's ``slow=True`` path or the oracle the
equivalence tests call):

* Adder trees (the paper's eq. (2) Full-Adder count and the synthesized
  FA/HA/CPA costs): scalar :mod:`repro.hardware.adder_tree`, kernel
  :mod:`repro.hardware.fast_area` (one column histogram builder and one
  shared 3:2 sweep, used by the GA's area objective and by synthesis).
* Hardware analysis (MLP → :class:`~repro.hardware.synthesis.HardwareReport`):
  scalar :mod:`repro.hardware.synthesis` (``slow=True``), kernel
  :mod:`repro.hardware.fast_synthesis` (whole fronts and baseline
  sweeps in one pass).

Technology parameters: :mod:`repro.hardware.egfet` (printed EGFET cell
library and supply-voltage scaling), :mod:`repro.hardware.area` (exact
bespoke multipliers in CSD form and per-cell count formulas) and
:mod:`repro.hardware.power_sources` (printed batteries and harvesters
for the feasibility study, Fig. 5).
"""

# Re-exports are lazy (PEP 562): the serving layer's feasibility queries
# import the technology-parameter modules (egfet, power_sources) without
# the synthesis engines loading as a side effect.
from repro._lazy import lazy_exports

_EXPORTS = {
    "AdderTreeCost": "repro.hardware.adder_tree",
    "count_adders_from_columns": "repro.hardware.adder_tree",
    "approximate_neuron_columns": "repro.hardware.adder_tree",
    "layer_adder_cost": "repro.hardware.adder_tree",
    "mlp_fa_count": "repro.hardware.adder_tree",
    "mlp_adder_cost": "repro.hardware.adder_tree",
    "EGFETLibrary": "repro.hardware.egfet",
    "CellSpec": "repro.hardware.egfet",
    "default_egfet_library": "repro.hardware.egfet",
    "csd_encode": "repro.hardware.area",
    "csd_nonzero_digits": "repro.hardware.area",
    "constant_multiplier_columns": "repro.hardware.area",
    "exact_neuron_columns": "repro.hardware.area",
    "exact_neuron_adder_cost": "repro.hardware.area",
    "HardwareReport": "repro.hardware.synthesis",
    "synthesize_approximate_mlp": "repro.hardware.synthesis",
    "synthesize_exact_mlp": "repro.hardware.synthesis",
    "PowerSource": "repro.hardware.power_sources",
    "PRINTED_POWER_SOURCES": "repro.hardware.power_sources",
    "classify_power_source": "repro.hardware.power_sources",
    "reduce_columns_adder_costs": "repro.hardware.fast_area",
    "synthesize_approximate_population": "repro.hardware.fast_synthesis",
    "synthesize_exact_population": "repro.hardware.fast_synthesis",
}

_SUBMODULES = (
    "adder_tree",
    "area",
    "egfet",
    "fast_area",
    "fast_synthesis",
    "power_sources",
    "synthesis",
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)

__all__ = [
    "AdderTreeCost",
    "count_adders_from_columns",
    "approximate_neuron_columns",
    "layer_adder_cost",
    "mlp_fa_count",
    "mlp_adder_cost",
    "EGFETLibrary",
    "CellSpec",
    "default_egfet_library",
    "csd_encode",
    "csd_nonzero_digits",
    "constant_multiplier_columns",
    "exact_neuron_columns",
    "exact_neuron_adder_cost",
    "HardwareReport",
    "synthesize_approximate_mlp",
    "synthesize_exact_mlp",
    "PowerSource",
    "PRINTED_POWER_SOURCES",
    "classify_power_source",
    "reduce_columns_adder_costs",
    "synthesize_approximate_population",
    "synthesize_exact_population",
]
