"""Shared fixtures for the test suite.

Besides the plain value fixtures, this module hosts the *builder
factories* (``make_mlp``, ``random_population``) that
several hardware/RTL/synthesis test modules previously each re-declared
locally.  They are session-scoped fixtures returning plain functions —
the factories themselves are stateless (the caller passes the rng), and
session scope keeps them usable inside ``hypothesis`` ``@given`` bodies
without tripping the function-scoped-fixture health check.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.core.chromosome import ChromosomeLayout
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification


# Tier-1 must give the same verdict on every run, so the profile loaded
# by default derandomizes Hypothesis: examples derive from each test's
# source, and no example database replays earlier failures.  Randomized
# fuzzing runs with ``HYPOTHESIS_PROFILE=default`` (each test's own
# budget) or ``HYPOTHESIS_PROFILE=fuzz`` (a larger one, no deadline);
# each falsifying example it finds becomes a pinned ``@example``.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", max_examples=500, deadline=None)
settings.load_profile(HYPOTHESIS_PROFILE)


def pytest_collection_modifyitems(items):
    """Under the ``fuzz`` profile, lift each property test's own budget.

    A test's ``@settings(max_examples=...)`` wins over the loaded
    profile, so the profile alone would not enlarge any of them.  The
    per-test settings live in a Hypothesis-internal attribute; reading
    it unguarded makes a Hypothesis that renames it fail here loudly
    instead of fuzzing at the old budgets.
    """
    if HYPOTHESIS_PROFILE != "fuzz":
        return
    budget = settings.get_profile("fuzz").max_examples
    for item in items:
        test = getattr(item, "function", None)
        if not getattr(test, "is_hypothesis_test", False):
            continue
        own = test._hypothesis_internal_use_settings
        if own.max_examples < budget:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=budget, deadline=None
            )


def build_mlp(rng, sizes=(4, 3, 2), config=None, mask_density=0.5):
    """A random :class:`ApproximateMLP` on ``sizes``."""
    return ApproximateMLP.random(
        Topology(sizes), config or ApproxConfig(), rng, mask_density=mask_density
    )


def build_population(rng, sizes, size, config=None):
    """Layout-decoded random population (the GA's candidate shape)."""
    layout = ChromosomeLayout(Topology(sizes), config or ApproxConfig())
    return [layout.decode(layout.random(rng)) for _ in range(size)]


@pytest.fixture(scope="session")
def make_mlp():
    """Factory fixture: ``make_mlp(rng, sizes=..., mask_density=...)``."""
    return build_mlp


@pytest.fixture(scope="session")
def random_population():
    """Factory fixture: ``random_population(rng, sizes, size)``."""
    return build_population


@pytest.fixture
def decode_calls(monkeypatch):
    """Count :meth:`ChromosomeLayout.decode` calls from here on.

    A one-element list; tests reset it with ``decode_calls[0] = 0``.
    ``GAResult.decode`` goes through the same method.
    """
    calls = [0]
    original = ChromosomeLayout.decode

    def counting(self, chromosome):
        calls[0] += 1
        return original(self, chromosome)

    monkeypatch.setattr(ChromosomeLayout, "decode", counting)
    return calls


def _constant_hidden_layer(mlp):
    """Prune the hidden layer and give neuron ``j`` the bias ``(j + 1) <<
    shift`` (capped at ``bias_max``): its QReLU then emits a non-zero
    constant for every input, while the output layer keeps live masks."""
    hidden = mlp.layers[0]
    hidden.masks[:] = 0
    biases = (np.arange(hidden.fan_out) + 1) << hidden.activation.shift
    hidden.biases[:] = np.minimum(biases, mlp.config.bias_max)


#: Corner designs the GA can reach, which every oracle must agree on:
#: ``{name: (config, mask density[, in-place edit of the drawn model])}``.
EDGE_DESIGNS = {
    "one_bit_inputs": (ApproxConfig(input_bits=1), 0.5),
    "all_pruned": (ApproxConfig(), 0.0),
    "sparse": (ApproxConfig(), 0.1),
    # Layer-0 QReLU shift 5 reaches past the 3-bit accumulator.
    "shift_past_accumulator": (ApproxConfig(bias_bits=1), 0.0),
    "minimal_widths": (
        ApproxConfig(input_bits=1, activation_bits=1, weight_bits=2, bias_bits=1),
        0.5,
    ),
    "constant_hidden_layer": (ApproxConfig(), 0.5, _constant_hidden_layer),
}


@pytest.fixture(params=sorted(EDGE_DESIGNS))
def edge_design(request):
    """``(mlp, vectors)`` for one corner design: the all-zero and
    all-ones input rows, then 62 random ones."""
    config, mask_density, *edit = EDGE_DESIGNS[request.param]
    rng = np.random.default_rng(19)
    mlp = build_mlp(rng, sizes=(5, 4, 3), config=config, mask_density=mask_density)
    for step in edit:
        step(mlp)
    top = config.max_input_value
    vectors = np.vstack(
        [np.zeros((1, 5)), np.full((1, 5), top), rng.integers(0, top + 1, size=(62, 5))]
    )
    return mlp, vectors.astype(np.int64)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_topology() -> Topology:
    """A tiny MLP topology (4 inputs, 3 hidden, 2 classes)."""
    return Topology((4, 3, 2))


@pytest.fixture
def approx_config() -> ApproxConfig:
    """Default approximation config (4-bit inputs, 8-bit activations)."""
    return ApproxConfig()


@pytest.fixture
def random_mlp(small_topology, approx_config, rng) -> ApproximateMLP:
    """A random approximate MLP on the small topology."""
    return ApproximateMLP.random(small_topology, approx_config, rng)


@pytest.fixture
def tiny_dataset(rng):
    """A small, easily separable synthetic classification dataset.

    Returns (x_train_q, y_train, x_test_q, y_test) with 4-bit quantized
    inputs, matching the ``small_topology`` fixture (4 features, 2 classes).
    """
    from repro.quant.quantizers import quantize_inputs

    spec = SyntheticSpec(
        num_features=4, num_classes=2, num_samples=200, class_sep=3.0, noise=0.15
    )
    features, labels = generate_synthetic_classification(spec, rng)
    features = normalize_01(features)
    x_train, y_train, x_test, y_test = stratified_split(features, labels, 0.7, rng)
    return (
        quantize_inputs(x_train),
        y_train,
        quantize_inputs(x_test),
        y_test,
    )
