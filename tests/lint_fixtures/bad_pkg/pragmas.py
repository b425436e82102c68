"""RP00 fixtures: pragmas with an unknown verb."""

import time


def stamp():
    return time.time()  # lint: allow(RP03)


def other():
    return 1  # lint: frobnicate(RP03) -- no such verb


def typo():
    return 2  # lint: allow(RP99) -- no such rule id
