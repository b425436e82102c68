"""A leftover ``allow`` pragma: it suppresses nothing, and its verb is
itself an RP00 finding."""

import time


def stamp():
    return time.time()  # lint: allow(RP03) -- fixture: no pragma exempts a finding
