"""RP01 fixture: a function-level import of a third-party package."""


def render(values):
    import numpy as np

    return np.asarray(values)
