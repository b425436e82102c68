"""Equivalence tests for the batched search kernels and their oracles.

* Genome-native population fitness — ``ChromosomeLayout.population_parameters``
  + stacked forward + stacked FA count — equals per-chromosome decode +
  ``ApproximateMLP.accuracy`` + scalar ``mlp_fa_count``
  (``FitnessEvaluator.compute_population(..., slow=True)``), across
  learned and fixed shifts, wide inputs, degenerate parameters, every
  matmul exactness regime and ablation-restricted layouts.
* ``forward_stacked`` equals the per-model scalar forward (its oracle,
  ``ApproximateLayer.accumulate``) on every corner design, and the
  ``slow=True`` oracles run without the kernel's bit-plane helpers.
  No array the kernel returns aliases its per-thread scratch, and
  threads running it at once get the serial results.
* Stacked gradient restarts equal the serial restarts
  (``GradientTrainer.train(..., slow=True)``) bit for bit.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.layer import accumulator_bounds
from repro.approx import mlp as mlp_module
from repro.approx.mlp import (
    accuracy_population,
    build_bit_planes,
    exact_matmul_dtype,
    forward_stacked,
    stack_parameters,
)
from repro.approx.topology import Topology
from repro.baselines.gradient import GradientTrainer
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import FitnessEvaluator
from repro.core.trainer import GAConfig, GATrainer
from repro.experiments.ablation import _freeze_exponents_zero, _freeze_masks_open


def _evaluator(layout, rng, n_samples=30, baseline_accuracy=0.8):
    inputs = rng.integers(0, 1 << layout.config.input_bits, size=(n_samples, layout.topology.num_inputs))
    labels = rng.integers(0, layout.topology.num_outputs, size=n_samples)
    return FitnessEvaluator(layout, inputs, labels, baseline_accuracy=baseline_accuracy)


def _assert_batch_matches_oracle(evaluator, population):
    fast = evaluator.compute_population(population)
    slow = evaluator.compute_population(population, slow=True)
    assert fast.shape == (len(population), 4)
    assert np.array_equal(fast, slow)
    # The stacked forward itself is bitwise identical, not only the argmax.
    layout = evaluator.layout
    params = layout.population_parameters(population)
    scores = forward_stacked(params, evaluator.train_inputs)
    for row, candidate_scores in zip(population, scores):
        assert np.array_equal(candidate_scores, layout.decode(row).forward(evaluator.train_inputs))


def _batch_dtype(layout, population):
    """The matmul dtype the stacked forward picks for each layer position."""
    params = layout.population_parameters(population)
    return [
        exact_matmul_dtype(*accumulator_bounds(m, s, e, b))
        for m, s, e, b in zip(params.masks, params.signs, params.exponents, params.biases)
    ]


class TestGenomeNativeFitness:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=2),
        input_bits=st.integers(min_value=1, max_value=11),
        activation_bits=st.integers(min_value=1, max_value=10),
        weight_bits=st.integers(min_value=2, max_value=10),
        bias_bits=st.integers(min_value=1, max_value=18),
        size=st.integers(min_value=1, max_value=6),
    )
    def test_batch_fitness_equals_per_chromosome_oracle(
        self, seed, hidden, input_bits, activation_bits, weight_bits, bias_bits, size,
    ):
        rng = np.random.default_rng(seed)
        config = ApproxConfig(
            input_bits=input_bits,
            activation_bits=activation_bits,
            weight_bits=weight_bits,
            bias_bits=bias_bits,
        )
        topology = Topology((int(rng.integers(1, 6)), *hidden, int(rng.integers(2, 5))))
        layout = ChromosomeLayout(topology, config)
        population = np.stack([layout.random(rng) for _ in range(size)])
        _assert_batch_matches_oracle(_evaluator(layout, rng), population)

    def test_population_of_one(self):
        rng = np.random.default_rng(1)
        layout = ChromosomeLayout(Topology((5, 3, 3)), ApproxConfig())
        _assert_batch_matches_oracle(_evaluator(layout, rng), layout.random(rng)[None, :])

    def test_all_zero_masks_and_extreme_biases(self):
        rng = np.random.default_rng(2)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        rows = np.stack([layout.random(rng) for _ in range(4)])
        rows[0, layout.mask_gene_flags] = 0  # every connection pruned
        rows[1] = layout.lower_bounds  # all-zero masks, most negative biases
        rows[2] = layout.upper_bounds  # fully open masks, largest biases
        rows[3, layout.mask_gene_flags] = 0
        rows[3, ~layout.mask_gene_flags] = layout.upper_bounds[~layout.mask_gene_flags]
        _assert_batch_matches_oracle(_evaluator(layout, rng), rows)

    def test_wide_inputs_use_unpadded_planes(self):
        # input_bits > 8: the plane stride is the input width, not a byte.
        rng = np.random.default_rng(3)
        config = ApproxConfig(input_bits=12, activation_bits=10)
        layout = ChromosomeLayout(Topology((3, 4, 2)), config)
        population = np.stack([layout.random(rng) for _ in range(5)])
        _assert_batch_matches_oracle(_evaluator(layout, rng), population)

    def test_batches_straddling_the_exactness_thresholds(self):
        """Rows whose own bounds would pick float32, float64 and int64 share
        one batch; the batch uses the weakest dtype exact for all of them."""
        rng = np.random.default_rng(4)
        config = ApproxConfig(input_bits=8, activation_bits=8, weight_bits=50)
        layout = ChromosomeLayout(Topology((3, 2, 2)), config)
        exponent_genes = np.array(
            [layout.describe_gene(i)[0] == "exponent" for i in range(layout.num_genes)]
        )

        def with_exponent(value):
            row = layout.random(rng)
            row[exponent_genes] = value
            return row

        small, medium, huge = with_exponent(0), with_exponent(30), with_exponent(48)
        assert _batch_dtype(layout, small[None, :])[0] is np.float32
        assert _batch_dtype(layout, medium[None, :])[0] is np.float64
        assert _batch_dtype(layout, huge[None, :])[0] is None
        assert _batch_dtype(layout, np.stack([small, medium]))[0] is np.float64
        assert _batch_dtype(layout, np.stack([small, medium, huge]))[0] is None
        evaluator = _evaluator(layout, rng)
        for batch in ([small, medium], [small, medium, huge], [huge, small]):
            _assert_batch_matches_oracle(evaluator, np.stack(batch))

    @pytest.mark.parametrize(
        "exponent, dtype", [(0, np.float32), (30, np.float64), (48, np.int64)]
    )
    def test_each_dtype_regime_runs_the_one_forward_path(self, exponent, dtype):
        """float32, float64 and int64 batches all go through forward_stacked
        and stay in their exact dtype through bias and QReLU to the output."""
        rng = np.random.default_rng(7)
        config = ApproxConfig(input_bits=8, activation_bits=8, weight_bits=50)
        layout = ChromosomeLayout(Topology((3, 2, 2)), config)
        exponent_genes = np.array(
            [layout.describe_gene(i)[0] == "exponent" for i in range(layout.num_genes)]
        )
        population = np.stack([layout.random(rng) for _ in range(3)])
        population[:, exponent_genes] = exponent
        evaluator = _evaluator(layout, rng)
        scores = forward_stacked(layout.population_parameters(population), evaluator.train_inputs)
        assert scores.dtype == dtype
        _assert_batch_matches_oracle(evaluator, population)

    @pytest.mark.parametrize("block_bytes", [1, 3000])
    def test_candidate_blocks_match_one_block(self, monkeypatch, block_bytes):
        """Splitting the population into candidate blocks (one candidate
        each, or a few) changes neither the scores nor the batch dtype."""
        rng = np.random.default_rng(8)
        config = ApproxConfig(input_bits=8, activation_bits=8, weight_bits=50)
        layout = ChromosomeLayout(Topology((3, 4, 2, 3)), config)
        exponent_genes = np.array(
            [layout.describe_gene(i)[0] == "exponent" for i in range(layout.num_genes)]
        )
        population = np.stack([layout.random(rng) for _ in range(7)])
        population[:, exponent_genes] = 0
        population[0, exponent_genes] = 30  # the batch runs in float64
        evaluator = _evaluator(layout, rng)
        params = layout.population_parameters(population)
        whole = forward_stacked(params, evaluator.train_inputs)
        monkeypatch.setattr(mlp_module, "_BLOCK_BYTES", block_bytes)
        blocked = forward_stacked(params, evaluator.train_inputs)
        assert blocked.dtype == whole.dtype == np.float64
        assert np.array_equal(blocked, whole)
        _assert_batch_matches_oracle(evaluator, population)

    @pytest.mark.parametrize("restrict", [_freeze_masks_open, _freeze_exponents_zero])
    def test_ablation_restricted_layouts(self, restrict):
        rng = np.random.default_rng(5)
        trainer = GATrainer(Topology((4, 3, 2)), ApproxConfig(), GAConfig())
        restrict(trainer)
        layout = trainer.layout
        population = np.stack([layout.random(rng) for _ in range(6)])
        _assert_batch_matches_oracle(_evaluator(layout, rng), population)

    def test_out_of_bounds_row_raises_like_decode(self):
        rng = np.random.default_rng(6)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        population = np.stack([layout.random(rng) for _ in range(4)])
        population[2, [5, 9]] = layout.upper_bounds[[5, 9]] + 1
        population[3, 1] = -1
        with pytest.raises(ValueError) as single:
            layout.decode(population[2])
        with pytest.raises(ValueError) as batch:
            layout.population_parameters(population)
        assert str(batch.value) == str(single.value) == "genes [5, 9] out of bounds"
        with pytest.raises(ValueError, match=r"genes \[5, 9\] out of bounds"):
            _evaluator(layout, rng).compute_population(population)

    def test_population_shape_is_checked(self):
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        with pytest.raises(ValueError, match="population must have shape"):
            layout.population_parameters(np.zeros(layout.num_genes, dtype=np.int64))
        with pytest.raises(ValueError, match="population must have shape"):
            layout.population_parameters(np.zeros((2, 3), dtype=np.int64))

    def test_decode_is_one_row_of_population_parameters(self):
        rng = np.random.default_rng(7)
        layout = ChromosomeLayout(Topology((4, 3, 3, 2)), ApproxConfig())
        population = np.stack([layout.random(rng) for _ in range(3)])
        params = layout.population_parameters(population)
        for p, row in enumerate(population):
            model = layout.decode(row)
            for index, layer in enumerate(model.layers):
                assert np.array_equal(layer.masks, params.masks[index][p])
                assert np.array_equal(layer.signs, params.signs[index][p])
                assert np.array_equal(layer.exponents, params.exponents[index][p])
                assert np.array_equal(layer.biases, params.biases[index][p])
            assert model.shifts[:-1] == params.shifts[p].tolist()
            assert np.array_equal(layout.encode(model), row)

    def test_stacked_model_parameters_round_trip(self):
        rng = np.random.default_rng(8)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        population = np.stack([layout.random(rng) for _ in range(4)])
        models = [layout.decode(row) for row in population]
        stacked, native = stack_parameters(models), layout.population_parameters(population)
        for name in ("masks", "signs", "exponents", "biases"):
            for a, b in zip(getattr(stacked, name), getattr(native, name)):
                assert np.array_equal(a, b)
        assert np.array_equal(stacked.shifts, native.shifts)
        x = rng.integers(0, 16, size=(12, 4))
        assert np.array_equal(forward_stacked(stack_parameters(models), x), forward_stacked(native, x))

    def test_evaluate_and_pool_share_the_batch_path(self):
        rng = np.random.default_rng(9)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        evaluator = _evaluator(layout, rng)
        population = np.stack([layout.random(rng) for _ in range(5)])
        oracle = evaluator.compute_population(population, slow=True)
        one_row = [evaluator.evaluate_population(row[None]) for row in population]
        assert np.array_equal(np.concatenate(one_row), oracle)
        assert evaluator.fitness_computations == 5


class TestFrontDecodes:
    def test_training_and_front_evaluation_decode_nothing(self, tiny_dataset, decode_calls):
        from repro.evaluation.pareto_analysis import evaluate_front

        x_train, y_train, x_test, y_test = tiny_dataset
        trainer = GATrainer(
            Topology((4, 3, 2)),
            ApproxConfig(),
            GAConfig(population_size=16, generations=4, seed=3),
        )
        cache = EvaluationCache()
        result = trainer.train(x_train, y_train, baseline_accuracy=0.9)
        # Fitness and the front stage both score from the genome matrix.
        designs = evaluate_front(result, x_test, y_test, cache=cache)
        assert len(designs) == len(result.estimated_front) > 0
        assert decode_calls[0] == 0
        # The scalar oracle decodes each member once and agrees.
        assert evaluate_front(result, x_test, y_test, slow=True) == designs
        assert decode_calls[0] == len(designs)


class TestKernelAgainstScalarOracle:
    # The fixture's model is only read, so sharing it across examples is safe.
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10**9), extra_bits=st.integers(0, 8))
    def test_edge_designs_match_accumulate(self, edge_design, seed, extra_bits):
        """On every corner design the kernel equals the per-model forward,
        also on inputs with bits above ``input_bits``, which both paths
        must drop (the masks carry none)."""
        mlp, vectors = edge_design
        rng = np.random.default_rng(seed)
        wide = rng.integers(0, 1 << (mlp.config.input_bits + extra_bits), size=(16, 5))
        x = np.vstack([vectors, wide])
        assert np.array_equal(forward_stacked(stack_parameters([mlp]), x)[0], mlp.forward(x))
        labels = rng.integers(0, mlp.topology.num_outputs, size=len(x))
        assert accuracy_population([mlp], x, labels)[0] == mlp.accuracy(x, labels)

    def test_oracles_run_without_the_kernel_helpers(self, monkeypatch, tiny_dataset):
        """With ``build_bit_planes`` and ``exact_matmul_dtype`` raising,
        the kernel fails while ``compute_population(slow=True)``,
        ``evaluate_front(slow=True)`` and ``verify_design`` still run and
        agree with it: the oracles share no helper with what they check."""
        from repro.evaluation.pareto_analysis import evaluate_front
        from repro.evaluation.verification import verify_design

        x_train, y_train, x_test, y_test = tiny_dataset
        trainer = GATrainer(
            Topology((4, 3, 2)),
            ApproxConfig(),
            GAConfig(population_size=16, generations=4, seed=3),
        )
        result = trainer.train(x_train, y_train, baseline_accuracy=0.9)
        layout = result.layout
        population = np.stack([point.payload for point in result.estimated_front])
        evaluator = FitnessEvaluator(layout, x_train, y_train, baseline_accuracy=0.9)
        fitness = evaluator.compute_population(population)
        designs = evaluate_front(result, x_test, y_test)
        params = layout.population_parameters(population)
        kernel_predictions = forward_stacked(params, x_test).argmax(axis=2)

        class HelperCalled(Exception):
            pass

        def unavailable(*args, **kwargs):
            raise HelperCalled

        # Patch every module that binds the helpers by name, not only
        # their home module.
        helpers = {build_bit_planes, exact_matmul_dtype}
        for name, module in list(sys.modules.items()):
            if name.startswith("repro"):
                for attr in ("build_bit_planes", "exact_matmul_dtype"):
                    if getattr(module, attr, None) in helpers:
                        monkeypatch.setattr(module, attr, unavailable)
        with pytest.raises(HelperCalled):
            forward_stacked(params, x_test)

        assert np.array_equal(evaluator.compute_population(population, slow=True), fitness)
        assert evaluate_front(result, x_test, y_test, slow=True) == designs
        for row, predictions in zip(population, kernel_predictions):
            mlp = layout.decode(row)
            assert np.array_equal(mlp.predict(x_test), predictions)
            assert verify_design(mlp, x_test[:16]).total_mismatches == 0

    def test_returned_arrays_never_alias_scratch(self):
        """Interleaved kernel calls of other shapes and dtypes reuse the
        per-thread scratch; no array returned earlier may change."""
        rng = np.random.default_rng(12)
        config = ApproxConfig(input_bits=8, activation_bits=8, weight_bits=50)
        layout = ChromosomeLayout(Topology((3, 4, 2, 3)), config)
        exponent_genes = np.array(
            [layout.describe_gene(i)[0] == "exponent" for i in range(layout.num_genes)]
        )
        calls = []
        # Each call is smaller than the one before it or a new dtype, so
        # grow-only scratch would hand it the previous call's memory.
        for exponent, size, samples in ((0, 5, 40), (30, 3, 17), (48, 6, 64), (0, 2, 9)):
            population = np.stack([layout.random(rng) for _ in range(size)])
            population[:, exponent_genes] = exponent
            x = rng.integers(0, 256, size=(samples, 3))
            y = rng.integers(0, 3, size=samples)
            params = layout.population_parameters(population)
            scores = forward_stacked(params, x)
            accuracies = accuracy_population(params, x, y)
            assert np.array_equal(accuracies, (scores.argmax(axis=2) == y).mean(axis=1))
            calls.append((scores, scores.copy(), accuracies, accuracies.copy()))
        assert [call[0].dtype for call in calls] == [np.float32, np.float64, np.int64, np.float32]
        for scores, scores_then, accuracies, accuracies_then in calls:
            assert np.array_equal(scores, scores_then)
            assert np.array_equal(accuracies, accuracies_then)

    def test_concurrent_threads_get_the_serial_results(self):
        """Every thread has its own scratch: threads scoring different
        populations at once (more threads than cores, a tiny switch
        interval) get exactly the serial accuracies."""
        rng = np.random.default_rng(13)
        layout = ChromosomeLayout(Topology((4, 5, 3)), ApproxConfig())
        jobs = []
        for _ in range(4):
            population = np.stack([layout.random(rng) for _ in range(8)])
            x = rng.integers(0, 16, size=(60, 4))
            y = rng.integers(0, 3, size=60)
            params = layout.population_parameters(population)
            jobs.append((params, x, y, accuracy_population(params, x, y)))
        results = {index: [] for index in range(len(jobs))}

        def work(index, params, x, y):
            for _ in range(30):
                results[index].append(accuracy_population(params, x, y))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(index, *job[:3]))
                for index, job in enumerate(jobs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, job in enumerate(jobs):
            assert len(results[index]) == 30
            for accuracies in results[index]:
                assert np.array_equal(accuracies, job[3])


class TestStackedGradientRestarts:
    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_stacked_restarts_equal_serial_bit_for_bit(self, restarts):
        rng = np.random.default_rng(10)
        features = rng.random((45, 5))  # 45 samples: batch size 8 leaves a 5-row tail
        labels = rng.integers(0, 3, size=45)
        trainer = GradientTrainer(epochs=6, batch_size=8, restarts=restarts, seed=4)
        stacked = trainer.train(features, labels, (5, 4, 3))
        serial = trainer.train(features, labels, (5, 4, 3), slow=True)
        assert stacked.train_accuracy == serial.train_accuracy
        assert stacked.losses == serial.losses
        assert stacked.epochs_run == serial.epochs_run == restarts * 6
        for a, b in zip(
            stacked.model.weights + stacked.model.biases,
            serial.model.weights + serial.model.biases,
        ):
            assert np.array_equal(a, b)

    def test_ten_classes_and_a_partial_tail_batch(self):
        """Ten classes make the per-sample class sums pairwise (eight or
        more terms), and 70 rows in batches of 16 leave a 6-row tail: the
        one-pass epoch loss must still equal the serial per-batch means."""
        rng = np.random.default_rng(12)
        features = rng.random((70, 6))
        labels = rng.integers(0, 10, size=70)
        trainer = GradientTrainer(epochs=4, batch_size=16, restarts=2, seed=1)
        stacked = trainer.train(features, labels, (6, 5, 10))
        serial = trainer.train(features, labels, (6, 5, 10), slow=True)
        assert stacked.losses == serial.losses
        for a, b in zip(
            stacked.model.weights + stacked.model.biases,
            serial.model.weights + serial.model.biases,
        ):
            assert np.array_equal(a, b)

    def test_deeper_topology_and_single_row_batches(self):
        rng = np.random.default_rng(11)
        features = rng.random((13, 4))
        labels = rng.integers(0, 2, size=13)
        trainer = GradientTrainer(epochs=3, batch_size=1, restarts=2, seed=0)
        stacked = trainer.train(features, labels, (4, 3, 3, 2))
        serial = trainer.train(features, labels, (4, 3, 3, 2), slow=True)
        assert stacked.losses == serial.losses
        for a, b in zip(stacked.model.weights, serial.model.weights):
            assert np.array_equal(a, b)
