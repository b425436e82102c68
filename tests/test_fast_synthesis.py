"""Equivalence and cache-sharing tests for the batched synthesis engine.

The vectorized engine in :mod:`repro.hardware.fast_synthesis` must be
*bit-identical* to the scalar analyzers in
:mod:`repro.hardware.synthesis` (retained as the ``slow=True`` oracle):
every randomized case below compares whole :class:`HardwareReport`
dataclasses — area, power, delay, cell counts and area breakdown — with
exact equality, across topologies, bit-widths, voltages and the
registered-I/O variant.  The second half covers the shared
:class:`~repro.core.cache.EvaluationCache`: true-LRU eviction order and
the end-to-end guarantee that a pipeline run decodes nothing and performs
no redundant forward/synthesis for genomes already seen by the GA stage.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology
from repro.core.cache import EvaluationCache, LRUCache
from repro.core.chromosome import ChromosomeLayout
from repro.evaluation.pareto_analysis import evaluate_front
from repro.experiments.config import ExperimentScale
from repro.experiments.session import ExperimentSession
from repro.hardware.adder_tree import count_adders_from_columns
from repro.hardware.area import csd_encode
from repro.hardware.fast_area import reduce_columns_adder_costs
from repro.hardware.fast_synthesis import (
    _exact_layer_columns,
    synthesize_approximate_population,
    synthesize_exact_population,
)
from repro.hardware.synthesis import (
    synthesize_approximate_mlp,
    synthesize_exact_mlp,
)


# ----------------------------------------------------------------------
# Shared 3:2 reduction
# ----------------------------------------------------------------------
def _reducer_inputs():
    """Random histograms, then tall ones that exercise the carry headroom
    (fan_in >= 1024 layers produce columns in the thousands)."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        width = int(rng.integers(1, 24))
        n = int(rng.integers(1, 30))
        yield rng.integers(0, 40, size=(width, n))
    for peak in (1025, 5000):
        for _ in range(3):
            width = int(rng.integers(1, 30))
            n = int(rng.integers(1, 8))
            yield rng.integers(0, peak + 1, size=(width, n))
    yield np.full((10, 3), 1025, dtype=np.int64)


class TestReduceColumnsAdderCosts:
    @pytest.mark.parametrize("use_half_adders", [False, True])
    @pytest.mark.parametrize("include_final_cpa", [False, True])
    def test_matches_scalar_reducer(self, use_half_adders, include_final_cpa):
        for trial, counts in enumerate(_reducer_inputs()):
            n = counts.shape[1]
            fa, ha, cpa, stages = reduce_columns_adder_costs(
                counts,
                use_half_adders=use_half_adders,
                include_final_cpa=include_final_cpa,
            )
            for j in range(n):
                cost = count_adders_from_columns(
                    counts[:, j],
                    use_half_adders=use_half_adders,
                    include_final_cpa=include_final_cpa,
                )
                assert fa[j] == cost.full_adders, (trial, j)
                assert ha[j] == cost.half_adders, (trial, j)
                assert cpa[j] == cost.cpa_full_adders, (trial, j)
                assert stages[j] == cost.reduction_stages, (trial, j)

    def test_mixed_depths_do_not_interfere(self):
        # One already-reduced tree next to a deep one: the shared sweep
        # must leave the finished tree untouched.
        counts = np.array([[1, 30], [2, 30], [0, 30]], dtype=np.int64)
        fa, ha, cpa, stages = reduce_columns_adder_costs(counts)
        shallow = count_adders_from_columns(
            counts[:, 0], use_half_adders=True, include_final_cpa=True
        )
        deep = count_adders_from_columns(
            counts[:, 1], use_half_adders=True, include_final_cpa=True
        )
        assert (fa[0], ha[0], cpa[0], stages[0]) == (
            shallow.full_adders,
            shallow.half_adders,
            shallow.cpa_full_adders,
            shallow.reduction_stages,
        )
        assert (fa[1], ha[1], cpa[1], stages[1]) == (
            deep.full_adders,
            deep.half_adders,
            deep.cpa_full_adders,
            deep.reduction_stages,
        )

    def test_rejects_negative_and_non_matrix(self):
        with pytest.raises(ValueError):
            reduce_columns_adder_costs(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            reduce_columns_adder_costs(np.array([[1], [-1]]))


# ----------------------------------------------------------------------
# Approximate MLPs
# ----------------------------------------------------------------------
class TestApproximateEquivalence:
    @pytest.mark.parametrize(
        "sizes", [(4, 3, 2), (6, 4, 3), (5, 2), (16, 5, 10), (3, 3, 3, 2)]
    )
    def test_population_matches_scalar_oracle(self, sizes, random_population):
        rng = np.random.default_rng(hash(sizes) % (2**32))
        mlps = random_population(rng, sizes, 6)
        fast = synthesize_approximate_population(mlps)
        for mlp, report in zip(mlps, fast):
            assert report == synthesize_approximate_mlp(mlp, slow=True)

    @pytest.mark.parametrize("voltage", [1.0, 0.8, 0.6])
    def test_operating_points(self, voltage, random_population):
        rng = np.random.default_rng(5)
        mlps = random_population(rng, (6, 4, 3), 5)
        fast = synthesize_approximate_population(mlps, voltage=voltage)
        for mlp, report in zip(mlps, fast):
            assert report == synthesize_approximate_mlp(mlp, voltage=voltage, slow=True)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=2),
        input_bits=st.integers(min_value=1, max_value=8),
        activation_bits=st.integers(min_value=1, max_value=8),
        weight_bits=st.integers(min_value=2, max_value=8),
        bias_bits=st.integers(min_value=1, max_value=12),
        size=st.integers(min_value=1, max_value=5),
    )
    def test_parameters_input_matches_models_and_scalar_oracle(
        self, seed, hidden, input_bits, activation_bits, weight_bits, bias_bits, size,
    ):
        """Stacked genome parameters (the front stage's input) give the
        reports of the model list and of the scalar oracle, with learned
        shifts and (first row) the worst-case shifts."""
        rng = np.random.default_rng(seed)
        config = ApproxConfig(
            input_bits=input_bits,
            activation_bits=activation_bits,
            weight_bits=weight_bits,
            bias_bits=bias_bits,
        )
        topology = Topology((int(rng.integers(1, 6)), *hidden, int(rng.integers(2, 5))))
        layout = ChromosomeLayout(topology, config)
        genomes = np.stack([layout.random(rng) for _ in range(size)])
        genomes[0, layout.shift_slice] = layout.upper_bounds[layout.shift_slice]
        models = [layout.decode(row) for row in genomes]
        native = synthesize_approximate_population(layout.population_parameters(genomes))
        assert native == synthesize_approximate_population(models)
        assert native == [synthesize_approximate_mlp(mlp, slow=True) for mlp in models]

    def test_edge_designs_match_scalar_oracle(self, edge_design):
        mlp, _ = edge_design
        (report,) = synthesize_approximate_population([mlp])
        assert report == synthesize_approximate_mlp(mlp, slow=True)

    def test_default_path_delegates_to_fast_engine(self, random_population):
        rng = np.random.default_rng(6)
        (mlp,) = random_population(rng, (4, 3, 2), 1)
        assert synthesize_approximate_mlp(mlp) == synthesize_approximate_mlp(
            mlp, slow=True
        )

    def test_clock_period_is_passed_through(self, random_population):
        rng = np.random.default_rng(7)
        (mlp,) = random_population(rng, (4, 3, 2), 1)
        report = synthesize_approximate_population([mlp], clock_period_ms=250.0)[0]
        assert report.clock_period_ms == pytest.approx(250.0)

    def test_empty_and_heterogeneous_inputs(self, random_population):
        assert synthesize_approximate_population([]) == []
        rng = np.random.default_rng(8)
        a = random_population(rng, (4, 3, 2), 1)
        b = random_population(rng, (5, 3, 2), 1)
        with pytest.raises(ValueError):
            synthesize_approximate_population(a + b)


# ----------------------------------------------------------------------
# Exact bespoke MLPs
# ----------------------------------------------------------------------
def _random_exact_job(rng):
    num_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(2, 8)) for _ in range(num_layers + 1)]
    weight_codes = [
        rng.integers(-127, 128, size=(sizes[i], sizes[i + 1]))
        for i in range(num_layers)
    ]
    bias_codes = [
        rng.integers(-5000, 5001, size=(sizes[i + 1],)) for i in range(num_layers)
    ]
    input_bits = [int(rng.integers(2, 6))] + [8] * (num_layers - 1)
    shifts = [int(rng.integers(0, 6)) for _ in range(num_layers)]
    use_shifts = bool(rng.integers(0, 2))
    return {
        "weight_codes": weight_codes,
        "bias_codes": bias_codes,
        "input_bits_per_layer": input_bits,
        "activation_bits": 8,
        "activation_shifts": shifts if use_shifts else None,
    }


class TestExactEquivalence:
    def test_randomized_jobs_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            job = _random_exact_job(rng)
            voltage = float(rng.choice([1.0, 0.9, 0.7]))
            fast = synthesize_exact_mlp(voltage=voltage, **job)
            slow = synthesize_exact_mlp(voltage=voltage, slow=True, **job)
            assert fast == slow, trial

    def test_heterogeneous_batch_with_per_job_voltages(self):
        rng = np.random.default_rng(12)
        jobs = [_random_exact_job(rng) for _ in range(5)]
        voltages = [1.0, 0.8, 0.7, 0.9, 0.6]
        reports = synthesize_exact_population(jobs, voltage=voltages)
        for job, voltage, report in zip(jobs, voltages, reports):
            assert report == synthesize_exact_mlp(voltage=voltage, slow=True, **job)

    def test_voltage_vector_must_align(self):
        rng = np.random.default_rng(13)
        jobs = [_random_exact_job(rng) for _ in range(2)]
        with pytest.raises(ValueError):
            synthesize_exact_population(jobs, voltage=[1.0])

    def test_misaligned_job_rejected(self):
        job = {
            "weight_codes": [np.ones((3, 2), dtype=np.int64)] * 2,
            "bias_codes": [np.zeros(2, dtype=np.int64)],
            "input_bits_per_layer": [4, 8],
        }
        with pytest.raises(ValueError):
            synthesize_exact_population([job])

    def test_default_exact_path_delegates_to_fast_engine(self):
        rng = np.random.default_rng(15)
        job = _random_exact_job(rng)
        assert synthesize_exact_mlp(**job) == synthesize_exact_mlp(slow=True, **job)


def _carry_run_codes():
    """Codes ``±2^k`` and ``±(2^k - 1)``: single digits and the longest
    CSD carry runs, ``2^k - 1 = 2^k - 2^0``."""
    powers = [1 << k for k in range(11)]
    codes = powers + [p - 1 for p in powers[1:]]
    codes += [-code for code in codes]
    return np.array(codes, dtype=np.int64).reshape(-1, 6)


def _exact_edge_jobs():
    """Exact layers at the edges of the column-histogram builder."""
    zeros = np.zeros((5, 3), dtype=np.int64)
    carry = _carry_run_codes()
    return {
        "all_zero": {
            "weight_codes": [zeros, np.zeros((3, 2), dtype=np.int64)],
            "bias_codes": [np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)],
            "input_bits_per_layer": [4, 8],
        },
        "carry_runs": {
            "weight_codes": [carry, carry.T[:, :3]],
            "bias_codes": [
                np.array([0, 1, -1, 1023, -1024, 2047]),
                np.array([-(1 << 20), 5, 0]),
            ],
            "input_bits_per_layer": [4, 8],
        },
        "one_bit_inputs": {
            "weight_codes": [carry[:, :4], np.array([[3], [-3], [7], [-8]])],
            "bias_codes": [np.array([-1, 2, -3, 4]), np.array([-9])],
            "input_bits_per_layer": [1, 1],
        },
        "single_neuron": {
            "weight_codes": [np.array([[-7], [12], [0], [-1]])],
            "bias_codes": [np.array([-100])],
            "input_bits_per_layer": [4],
        },
        "negative_biases": {
            "weight_codes": [np.array([[5, -6], [-127, 127], [64, -64]])],
            "bias_codes": [np.array([-5000, -1])],
            "input_bits_per_layer": [3],
        },
    }


class TestExactColumnEdges:
    @pytest.mark.parametrize("name", sorted(_exact_edge_jobs()))
    def test_edge_layers_match_scalar_oracle(self, name):
        job = _exact_edge_jobs()[name]
        assert synthesize_exact_population([job])[0] == synthesize_exact_mlp(
            slow=True, **job
        )

    def test_edge_layers_batched_together(self):
        jobs = list(_exact_edge_jobs().values())
        for job, report in zip(jobs, synthesize_exact_population(jobs)):
            assert report == synthesize_exact_mlp(slow=True, **job)

    def test_all_zero_layer_holds_only_its_bias(self):
        columns, inverter_bits = _exact_layer_columns(
            np.zeros((4, 2), dtype=np.int64), np.array([0, -5]), 4
        )
        assert inverter_bits == 0
        np.testing.assert_array_equal(columns[:, 0], 0)
        np.testing.assert_array_equal(columns[:3, 1], [1, 0, 1])
        np.testing.assert_array_equal(columns[3:, 1], 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**40), 2**40))
    @example(0)
    @example(-1)
    @example(3)
    @example(-(2**40))
    @example(2**40 - 1)
    @example(0b1011011101111)
    def test_naf_digits_equal_csd_encode(self, code):
        """With one input bit and no bias, a 1x1 layer's histogram marks
        exactly the weight's CSD digit positions."""
        columns, inverter_bits = _exact_layer_columns(
            np.array([[code]], dtype=np.int64), np.zeros(1, dtype=np.int64), 1
        )
        digits = csd_encode(code)
        assert set(np.flatnonzero(columns[:, 0])) == {p for p, _ in digits}
        assert columns.max(initial=0) <= 1
        assert inverter_bits == sum(1 for _, digit in digits if digit < 0)


# ----------------------------------------------------------------------
# Batched front evaluation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_ga_result():
    from repro.core.trainer import GAConfig, GATrainer

    rng = np.random.default_rng(21)
    inputs = rng.integers(0, 16, size=(60, 4))
    labels = rng.integers(0, 2, size=60)
    trainer = GATrainer(
        (4, 3, 2), ga_config=GAConfig(population_size=12, generations=3, seed=0)
    )
    result = trainer.train(inputs, labels)
    return result, inputs, labels


class TestEvaluateFrontBatching:
    def test_batched_front_matches_scalar_oracle(self, tiny_ga_result):
        result, inputs, labels = tiny_ga_result
        fast = evaluate_front(result, inputs, labels, clock_period_ms=200.0)
        slow = evaluate_front(result, inputs, labels, clock_period_ms=200.0, slow=True)
        assert fast == slow

    def test_cache_reuse_returns_identical_designs(self, tiny_ga_result):
        result, inputs, labels = tiny_ga_result
        cache = EvaluationCache()
        first = evaluate_front(result, inputs, labels, cache=cache)
        misses_after_first = cache.reports.misses
        second = evaluate_front(result, inputs, labels, cache=cache)
        assert second == first
        # The second pass is served entirely from the cache: no new
        # report misses, no new accuracy misses.
        assert cache.reports.misses == misses_after_first
        assert cache.reports.hits >= len(first)

    def test_report_memo_is_keyed_by_design_and_clock_period(self, tiny_ga_result):
        """Reports are memoized per ``(genome, clock period)``: the same
        front at another clock period is priced anew, not served from the
        entries of the first."""
        result, inputs, labels = tiny_ga_result
        cache = EvaluationCache()
        evaluate_front(result, inputs, labels, cache=cache, clock_period_ms=200.0)
        keys = _keys(cache.reports)
        assert keys and all(key[1] == 200.0 and len(key) == 2 for key in keys)
        misses = cache.reports.misses
        other = evaluate_front(result, inputs, labels, cache=cache, clock_period_ms=250.0)
        assert cache.reports.misses > misses
        assert other == evaluate_front(result, inputs, labels, clock_period_ms=250.0)
        assert {key[1] for key in _keys(cache.reports)} == {200.0, 250.0}


# ----------------------------------------------------------------------
# LRU cache semantics (satellite: FIFO -> true LRU)
# ----------------------------------------------------------------------
def _keys(cache):
    """Keys in eviction order (least recently used first)."""
    return [key for key, _ in cache.entries()]


class TestLRUCache:
    def test_hit_refreshes_recency_and_eviction_order(self):
        cache = LRUCache(max_size=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        # Touch the oldest entry: under FIFO it would still be evicted
        # first; under true LRU the untouched "b" goes first.
        assert cache.get("a") == 1
        assert _keys(cache) == ["b", "c", "a"]
        cache.put("d", 4)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        cache.put("e", 5)
        assert "c" not in cache
        assert _keys(cache) == ["a", "d", "e"]

    def test_counters_and_bound(self):
        cache = LRUCache(max_size=2)
        assert cache.get("missing") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.hits == 1 and cache.misses == 1
        cache.put("y", 2)
        cache.put("z", 3)
        assert len(cache) == 2
        with pytest.raises(ValueError):
            LRUCache(max_size=0)

    def test_writes_count_changes(self):
        """``writes`` counts what changes the entries (put, a pop hit),
        never a lookup."""
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("missing")
        cache.pop("missing")
        assert "a" in cache
        assert cache.writes == 2
        cache.restore([("c", 3)])
        assert cache.writes == 3
        cache.pop("a")
        cache.pop("b")
        cache.pop("c")
        assert cache.writes == 6 and cache.entries() == []

    def test_put_replaces_the_value_and_refreshes_recency(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert _keys(cache) == ["b", "a"]
        cache.put("c", 3)
        assert _keys(cache) == ["a", "c"]
        assert cache.get("a") == 10

    def test_pop_removes_and_counts_like_get(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "gone") == "gone"
        assert "a" not in cache and cache.entries() == []
        assert (cache.hits, cache.misses) == (1, 1)

    def test_contains_and_len_leave_recency_and_counters_alone(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "z" not in cache and len(cache) == 2
        assert _keys(cache) == ["a", "b"]
        assert (cache.hits, cache.misses) == (0, 0)

    def test_restore_keeps_order(self):
        cache = LRUCache(max_size=4)
        assert cache.restore([("a", 1), ("b", 2)]) == 2
        assert cache.entries() == [("a", 1), ("b", 2)]
        assert (cache.hits, cache.misses) == (0, 0)

    def test_restore_past_the_bound_keeps_the_most_recent(self):
        cache = LRUCache(max_size=2)
        assert cache.restore([(key, float(key)) for key in range(5)]) == 5
        assert cache.entries() == [(3, 3.0), (4, 4.0)]

    @pytest.mark.parametrize(
        "entry, error",
        [(("a",), ValueError), (("a", 1, 0.0), ValueError), (([], 1), TypeError)],
        ids=["short-pair", "format-13-triple", "unhashable-key"],
    )
    def test_restore_rejects_malformed_entries(self, entry, error):
        cache = LRUCache(max_size=2)
        with pytest.raises(error):
            cache.restore([entry])


# ----------------------------------------------------------------------
# End-to-end cache sharing across pipeline stages
# ----------------------------------------------------------------------
def _tiny_scale(datasets):
    return ExperimentScale(
        name="tiny-test",
        datasets=datasets,
        max_samples=160,
        gradient_epochs=8,
        gradient_restarts=1,
        ga_population=10,
        ga_generations=3,
        max_front_designs=8,
    )


class TestPipelineCacheSharing:
    def test_front_stage_reuses_ga_work(self, decode_calls):
        session = ExperimentSession(_tiny_scale(("breast_cancer",)))
        result = session.front("breast_cancer")
        approx = result.approximate
        assert approx is not None and approx.cache is not None
        cache = approx.cache
        # Zero decodes: the GA and the front stage both score straight
        # from the genome matrix.
        assert len(approx.designs) > 0
        assert decode_calls[0] == 0
        # Every report was synthesized exactly once (no report existed
        # before the front stage, so every lookup missed then filled).
        assert cache.reports.hits == 0
        assert cache.reports.misses == len(approx.designs)

        # A later reporting stage re-requesting the front is served
        # entirely from the cache: zero redundant forward/synthesis.
        x_test, y_test = result.dataset.quantized_test()
        again = evaluate_front(
            approx.ga_result,
            x_test,
            y_test,
            clock_period_ms=result.spec.clock_period_ms,
            max_designs=session.scale.max_front_designs,
            cache=cache,
        )
        assert again == approx.designs
        assert decode_calls[0] == 0
        assert cache.reports.misses == len(approx.designs)

    def test_pendigits_uses_registry_clock_period(self):
        from repro.datasets.registry import get_spec

        assert get_spec("pendigits").clock_period_ms == pytest.approx(250.0)
        session = ExperimentSession(_tiny_scale(("pendigits",)))
        result = session.front("pendigits")
        assert result.baseline.report.clock_period_ms == pytest.approx(250.0)
        assert result.approximate is not None
        for design in result.approximate.designs:
            assert design.report.clock_period_ms == pytest.approx(250.0)
