"""Stdlib-only helpers shared by the search and the query tiers.

The serving layer (:mod:`repro.serving`) answers from a published store
without importing numpy, so the two computations it shares with the
search stack live here, in plain Python:

* :func:`first_front_mask` — the two-objective first-front sweep behind
  :func:`repro.core.pareto.pareto_front` and
  :func:`repro.serving.queries.nondominated_mask`;
* :func:`stable_fingerprint` — the content digest that names cache keys,
  published records and their RTL.

``tests/test_serving.py`` asserts that serving a store never loads
numpy, and the RP01 lint rule rejects any import of it from the serving
zone, so nothing here may import a third-party module.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Union

__all__ = ["first_front_mask", "stable_fingerprint"]


def first_front_mask(objectives: Iterable[Sequence[float]]) -> List[bool]:
    """Which ``(first, second)`` points no other point Pareto-dominates.

    Two minimization objectives.  After ordering by ``(first, second)``
    a point is dominated iff some point with a strictly smaller first
    objective has a second no larger, or a point with an equal first
    objective has a strictly smaller second — the running minimum over
    the earlier groups and the minimum of the point's own equal-first
    group, so one sweep decides every point.  Identical points do not
    dominate each other, so duplicates all stay.
    """
    points = [(float(first), float(second)) for first, second in objectives]
    keep = [False] * len(points)
    earlier_min = None  # smallest second among strictly smaller firsts
    running_min = None  # smallest second seen so far
    group_first = group_min = None
    for index in sorted(range(len(points)), key=points.__getitem__):
        first, second = points[index]
        if group_first is None or first != group_first:
            earlier_min = running_min
            group_first, group_min = first, second
        keep[index] = second <= group_min and (earlier_min is None or second < earlier_min)
        if running_min is None or second < running_min:
            running_min = second
    return keep


def stable_fingerprint(*parts: Union[bytes, str], digest_size: int = 16) -> str:
    """Machine-stable BLAKE2b hex digest of a sequence of parts.

    The shared identity scheme of the persistence layers: the
    :class:`~repro.serving.store.DesignStore` keys its records with it,
    and it is stable across processes, machines and ``PYTHONHASHSEED``
    (unlike the built-in ``hash``).  Parts are length-prefixed before
    hashing so that the concatenation is unambiguous
    (``("ab", "c") != ("a", "bc")``).
    """
    digest = hashlib.blake2b(digest_size=digest_size)
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()
