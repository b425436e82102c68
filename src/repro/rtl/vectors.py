"""Pure testbench-vector parsing — no model stack, no generators.

The *generation* half of :mod:`repro.rtl` imports the search-time
model stack (:mod:`repro.approx`), which query-time code must never
reach.  The *parsing* half — recovering applied stimulus and golden
responses back out of an already-emitted testbench text — needs only
``re`` and numpy, and is exactly what the query-time consumers use:
the EDA cross-check flow re-simulates *stored* RTL records and the
verification harness reads golden vectors back from the artifact
rather than trusting the model that produced it.

This module is that pure half.  :mod:`repro.rtl.testbench` re-exports
both names, so search-time code keeps its historical import path; the
RP01 import-purity lint holds query-time code (``repro.eda``) to this
module instead.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = ["TestbenchVectors", "extract_testbench_vectors"]


class TestbenchVectors(NamedTuple):
    """Stimulus and golden responses recovered from a testbench text.

    A named result (still unpackable as the historical ``(vectors,
    golden)`` tuple) so downstream consumers — the verification harness,
    the EDA cross-check flow, the store's RTL records — can talk about
    ``.vectors``/``.golden``/``.num_vectors`` instead of positional
    indices.
    """

    #: Not a test class, despite the pytest-shaped name.
    __test__ = False

    #: ``(n, num_inputs)`` int64 applied input vectors.
    vectors: np.ndarray
    #: ``(n,)`` int64 expected class indices.
    golden: np.ndarray

    @property
    def num_vectors(self) -> int:
        """Number of applied stimulus vectors."""
        return int(self.golden.size)

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs each vector drives."""
        return int(self.vectors.shape[1])


#: One applied input assignment: ``inN = <bits>'d<value>;`` lines.  The
#: match starts at the newline before the line, a literal, so the regex
#: engine jumps from newline to newline instead of trying a match at
#: every character; the reader prepends one newline so that the first
#: line counts too.
_INPUT_RE = re.compile(r"\n\s*in(\d+) = \d+'d(\d+);$", re.MULTILINE)
#: One golden self-check: ``if (class_index !== <bits>'d<value>)`` lines.
_GOLDEN_RE = re.compile(r"class_index !== \d+'d(\d+)\)")


def extract_testbench_vectors(text: str) -> TestbenchVectors:
    """Recover the applied vectors and golden responses from a testbench.

    Parses the literal stimulus assignments (``inN = ...``) and golden
    self-checks (``class_index !== ...``) out of the Verilog text emitted
    by :func:`repro.rtl.testbench.generate_testbench`.  This is what the
    differential verification harness
    (:mod:`repro.evaluation.verification`) checks the *generated RTL
    artifact itself* against — the golden vectors are read back from the
    testbench text, not taken from the Python model that produced it.

    Returns
    -------
    A :class:`TestbenchVectors` — an ``(n, num_inputs)`` int64 array of
    the applied input vectors and an ``(n,)`` int64 array of the
    expected class indices (unpackable as ``(vectors, golden)``).
    Raises ``ValueError`` when the text does not look like a generated
    testbench.
    """
    golden = np.array(_GOLDEN_RE.findall(text), dtype=np.int64)
    # Every ``(index, value)`` digit-string pair, converted in one call
    # (a flat list converts faster than a list of tuples).
    pairs = chain.from_iterable(_INPUT_RE.findall("\n" + text))
    assignments = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    if golden.size == 0 or assignments.size == 0:
        raise ValueError("text does not contain generated testbench stimulus")
    if len(assignments) % golden.size:
        raise ValueError(
            f"{len(assignments)} input assignments do not divide into "
            f"{golden.size} golden checks"
        )
    num_inputs = len(assignments) // golden.size
    if not np.array_equal(assignments[:, 0], np.tile(np.arange(num_inputs), golden.size)):
        raise ValueError("input assignments are not in canonical order")
    return TestbenchVectors(
        vectors=np.ascontiguousarray(assignments[:, 1].reshape(golden.size, num_inputs)),
        golden=golden,
    )
