"""Tests of :mod:`repro.core.pure`, the stdlib-only helpers the search and
query tiers share.

* ``first_front_mask`` equals the all-pairs oracles
  (``true_pareto_front(slow=True)`` and ``pareto_front_reference``) on
  inputs drawn from a small pool, so exact ties, duplicates, signed zeros
  and infinities are common;
* ``stable_fingerprint`` keeps the digests every cache key, design name
  and store record was written with;
* importing the module loads no numpy.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pareto import ParetoPoint, pareto_front, pareto_front_reference
from repro.core.pure import first_front_mask, stable_fingerprint
from repro.evaluation.pareto_analysis import true_pareto_front

#: Few distinct values: ties and duplicates on both objectives, both
#: zeros (equal but of opposite sign) and both infinities.
POOL = (-math.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, math.inf)

objective_lists = st.lists(
    st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)), max_size=40
)


class Design:
    """Identity-compared stand-in for a stored or evaluated design."""

    def __init__(self, test_accuracy: float, area_cm2: float) -> None:
        self.test_accuracy = test_accuracy
        self.area_cm2 = area_cm2


class TestFirstFrontMask:
    @settings(max_examples=300, deadline=None)
    @given(objective_lists)
    def test_matches_true_front_oracle(self, objectives):
        designs = [Design(-first, second) for first, second in objectives]
        kept = {id(design) for design in true_pareto_front(designs, slow=True)}
        mask = first_front_mask(objectives)
        assert mask == [id(design) in kept for design in designs]
        assert all(type(flag) is bool for flag in mask)

    @settings(max_examples=300, deadline=None)
    @given(objective_lists)
    def test_matches_pareto_front_reference(self, objectives):
        points = [
            ParetoPoint(error, area, 1.0 - error, payload=index)
            for index, (error, area) in enumerate(objectives)
        ]
        reference = pareto_front_reference(points)
        # The pool's values are far apart, so the reference's closeness
        # collapse merges exactly the equal points (0.0 == -0.0).
        mask = first_front_mask(objectives)
        assert {objectives[i] for i, kept in enumerate(mask) if kept} == {
            (p.error, p.area) for p in reference
        }
        assert [p.payload for p in pareto_front(points)] == [
            p.payload for p in reference
        ]

    @pytest.mark.parametrize(
        "objectives, expected",
        [
            ([], []),
            ([(0.0, math.inf)], [True]),
            ([(0.0, math.inf), (0.0, math.inf)], [True, True]),
            ([(-math.inf, math.inf), (0.0, math.inf)], [True, False]),
            ([(0.0, 1.0), (-0.0, 1.0)], [True, True]),
            ([(0.0, 1.0), (-0.0, 2.0)], [True, False]),
            ([(0.5, 1.0), (0.5, 1.0), (0.5, 0.5)], [False, False, True]),
            ([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.6, 0.6)], [True, True, True, False]),
            ([(0.0, -math.inf), (-math.inf, 0.0)], [True, True]),
        ],
        ids=[
            "empty",
            "lone-infinite-second",
            "duplicate-infinite-seconds",
            "infinite-second-after-smaller-first",
            "signed-zero-duplicates",
            "signed-zero-group",
            "equal-first-group",
            "staircase",
            "negative-infinities",
        ],
    )
    def test_pinned_cases(self, objectives, expected):
        assert first_front_mask(objectives) == expected

    def test_accepts_any_iterable_of_pairs(self):
        pairs = [[0.2, 3.0], [0.1, 4.0], [0.3, 5.0]]
        assert first_front_mask(iter(pairs)) == first_front_mask(pairs) == [True, True, False]


class TestStableFingerprint:
    @pytest.mark.parametrize(
        "parts, digest_size, expected",
        [
            ((), 16, "cae66941d9efbd404e4d88758ea67670"),
            (("ab", "c"), 16, "4826ed043ab3cdec576d8541fa5d5a80"),
            ((b"\x00\x01", "design"), 16, "e317269001774485ad8b082134b61e8c"),
            (("x",), 8, "09f06e81dcd3af44"),
        ],
    )
    def test_digests_unchanged(self, parts, digest_size, expected):
        assert stable_fingerprint(*parts, digest_size=digest_size) == expected

    def test_parts_are_length_prefixed(self):
        assert stable_fingerprint("ab", "c") != stable_fingerprint("a", "bc")
        assert stable_fingerprint("ab") == stable_fingerprint(b"ab")


def test_module_loads_no_numpy():
    code = (
        "import json, sys\n"
        "import repro.core.pure\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == []
