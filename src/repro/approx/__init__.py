"""Approximate printed-MLP model.

This subpackage implements the hardware-approximated MLP of the paper:

* power-of-two weights ``w = s * 2**k`` (:mod:`repro.approx.pow2`) —
  multiplications reduce to rewiring (a constant shift),
* per-connection bit masks on the input activations
  (:mod:`repro.approx.masks`) — fine-grained unstructured pruning that
  removes individual summand bits (and hence full adders) from the
  multi-operand adder trees,
* the integer-only forward model of equation (4): one layer's plain sum
  (:mod:`repro.approx.layer`) and the MLP with its vectorized
  population kernel (:mod:`repro.approx.mlp`).

All learnable parameters are discrete integers, which is what motivates
the genetic training flow of :mod:`repro.core`.
"""

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology
from repro.approx.pow2 import nearest_pow2_array
from repro.approx.masks import full_mask, mask_popcount
from repro.approx.layer import ApproximateLayer
from repro.approx.mlp import ApproximateMLP

__all__ = [
    "ApproxConfig",
    "Topology",
    "nearest_pow2_array",
    "full_mask",
    "mask_popcount",
    "ApproximateLayer",
    "ApproximateMLP",
]
