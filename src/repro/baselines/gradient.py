"""Conventional gradient-based MLP training (numpy backpropagation).

This is the training flow the paper calls "Grad." in Table III: a
floating-point MLP trained with backpropagation on the classification
loss only (no hardware awareness).  It serves three purposes in the
reproduction:

1. it produces the weights that are post-training-quantized into the
   exact bespoke baseline (Table I),
2. it is the starting point of the post-training approximation
   baselines (TC'23, TCAD'23),
3. its wall-clock training time is the reference point of the execution
   time study (Table III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.approx.topology import Topology

__all__ = ["FloatMLP", "GradientTrainer", "TrainingResult"]


@dataclass
class FloatMLP:
    """A plain floating-point MLP with ReLU hidden layers and linear output."""

    topology: Topology
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} weight matrices, got {len(self.weights)}"
            )
        if len(self.biases) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} bias vectors, got {len(self.biases)}"
            )
        for index, (shape, weight, bias) in enumerate(
            zip(self.topology.layer_shapes(), self.weights, self.biases)
        ):
            if weight.shape != shape:
                raise ValueError(f"layer {index} weights have shape {weight.shape}, expected {shape}")
            if bias.shape != (shape[1],):
                raise ValueError(f"layer {index} biases have shape {bias.shape}, expected ({shape[1]},)")

    @classmethod
    def random(cls, topology: Topology, rng: np.random.Generator | None = None) -> "FloatMLP":
        """He-initialized random MLP."""
        # Seeded fallback: library defaults must be reproducible (RP03).
        rng = rng or np.random.default_rng(0)
        weights = []
        biases = []
        for fan_in, fan_out in topology.layer_shapes():
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(topology=topology, weights=weights, biases=biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores (logits) for real-valued inputs ``x``."""
        activations = np.asarray(x, dtype=np.float64)
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            activations = activations @ weight + bias
            if index < len(self.weights) - 1:
                activations = np.maximum(activations, 0.0)
        return activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on real-valued inputs."""
        return float(np.mean(self.predict(x) == np.asarray(y)))


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a gradient training run."""

    model: FloatMLP
    train_accuracy: float
    losses: List[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    epochs_run: int = 0


def _softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row softmax over the last axis, written to ``out`` when given."""
    shifted = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    exp = np.exp(shifted, out=shifted)
    return np.divide(exp, np.add.reduce(exp, axis=-1, keepdims=True), out=exp)


@dataclass
class GradientTrainer:
    """Mini-batch Adam on the cross-entropy loss.

    The printed MLP topologies have very narrow hidden layers (2–5
    neurons), which makes plain SGD prone to collapsing onto the majority
    class; Adam with a handful of random restarts reliably reaches the
    baseline accuracies of Table I.

    Parameters
    ----------
    epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    learning_rate:
        Step size.
    weight_decay:
        L2 regularization strength.
    restarts:
        Number of independently initialized runs; the model with the best
        training accuracy is returned.
    seed:
        Seed of the weight initialization and batch shuffling.
    """

    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.01
    weight_decay: float = 1e-4
    restarts: int = 3
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology | Sequence[int],
        slow: bool = False,
    ) -> TrainingResult:
        """Train a :class:`FloatMLP` on ``(features, labels)``.

        Runs ``restarts`` independent trainings and keeps the best.  All
        restarts train at once on a leading restart axis; restart ``r``
        draws from its own ``default_rng(seed + r)`` stream in the serial
        order (initialization, then one permutation per epoch), so the
        result is bitwise identical to ``slow=True``, which trains the
        restarts one after another.
        """
        start = time.perf_counter()
        if not isinstance(topology, Topology):
            topology = Topology(topology)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[1] != topology.num_inputs:
            raise ValueError(
                f"dataset has {features.shape[1]} features but topology expects {topology.num_inputs}"
            )
        if labels.max(initial=0) >= topology.num_outputs:
            raise ValueError(
                f"labels contain class {labels.max()} but topology has {topology.num_outputs} outputs"
            )
        base_seed = self.seed if self.seed is not None else 0
        rngs = [np.random.default_rng(base_seed + r) for r in range(self.restarts)]
        if slow:
            runs = [self._train_single(features, labels, topology, rng) for rng in rngs]
        else:
            runs = self._train_stacked(features, labels, topology, rngs)
        best: Optional[TrainingResult] = None
        for model, losses in runs:
            accuracy = model.accuracy(features, labels)
            if best is None or accuracy > best.train_accuracy:
                best = TrainingResult(model=model, train_accuracy=accuracy, losses=losses)
        elapsed = time.perf_counter() - start
        assert best is not None
        return TrainingResult(
            model=best.model,
            train_accuracy=best.train_accuracy,
            losses=best.losses,
            wall_clock_seconds=elapsed,
            epochs_run=self.restarts * self.epochs,
        )

    def _train_stacked(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology,
        rngs: List[np.random.Generator],
    ) -> List[tuple[FloatMLP, List[float]]]:
        """:meth:`_train_single` for every restart at once.

        Weights are ``(R, fan_in, fan_out)`` and biases ``(R, 1, fan_out)``
        views into one flat parameter vector, so each minibatch step is
        one batched matmul per layer and one optimizer update over all
        parameters.  Every element sees the serial operations in the
        serial order (all gradients of a step use the pre-step weights
        there too), so each restart's arithmetic is unchanged.
        """
        models = [FloatMLP.random(topology, rng) for rng in rngs]
        restarts, num_layers = len(rngs), topology.num_layers
        initial = [np.stack(w) for w in zip(*(m.weights for m in models))]
        initial += [np.stack(b)[:, None, :] for b in zip(*(m.biases for m in models))]
        params = np.concatenate([array.ravel() for array in initial])
        grads = np.empty_like(params)
        bounds = np.cumsum([0] + [array.size for array in initial])

        def views(flat: np.ndarray) -> List[np.ndarray]:
            return [
                flat[start:stop].reshape(array.shape)
                for start, stop, array in zip(bounds[:-1], bounds[1:], initial)
            ]

        weights, biases = views(params)[:num_layers], views(params)[num_layers:]
        grad_w, grad_b = views(grads)[:num_layers], views(grads)[num_layers:]
        velocity = np.zeros_like(params)
        second = np.zeros_like(params)
        scaled, update = np.empty_like(params), np.empty_like(params)
        one_hot = np.eye(topology.num_outputs)[labels]
        n = features.shape[0]
        # The batches' start rows; every batch holds ``batch_size`` rows
        # except a shorter tail.
        starts = range(0, n, self.batch_size)
        full = n // self.batch_size
        lengths = np.array([min(self.batch_size, n - start) for start in starts], dtype=np.float64)
        probs = np.empty((restarts, n, topology.num_outputs))
        losses = np.zeros((self.epochs, restarts))
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for epoch in range(self.epochs):
            orders = np.stack([rng.permutation(n) for rng in rngs])  # (R, n)
            shuffled_x, shuffled_t = features[orders], one_hot[orders]
            for start_idx in starts:
                x = shuffled_x[:, start_idx : start_idx + self.batch_size]
                t = shuffled_t[:, start_idx : start_idx + self.batch_size]
                batch = x.shape[1]

                activations = [x]
                for index in range(num_layers):
                    z = activations[-1] @ weights[index]
                    z += biases[index]
                    if index < num_layers - 1:
                        np.maximum(z, 0.0, out=z)
                    activations.append(z)
                batch_probs = _softmax(
                    activations[-1], out=probs[:, start_idx : start_idx + batch]
                )

                grad = np.subtract(batch_probs, t)
                grad /= batch
                step += 1
                for index in range(num_layers - 1, -1, -1):
                    np.multiply(weights[index], self.weight_decay, out=grad_w[index])
                    grad_w[index] += activations[index].transpose(0, 2, 1) @ grad
                    np.add.reduce(grad, axis=1, keepdims=True, out=grad_b[index])
                    if index > 0:
                        grad = grad @ weights[index].transpose(0, 2, 1)
                        grad *= activations[index] > 0
                velocity *= beta1
                velocity += np.multiply(grads, 1 - beta1, out=scaled)
                second *= beta2
                second += np.multiply(np.square(grads, out=scaled), 1 - beta2, out=scaled)
                correction1 = 1 - beta1**step
                correction2 = 1 - beta2**step
                np.sqrt(np.divide(second, correction2, out=update), out=update)
                update += eps
                np.divide(np.divide(velocity, correction1, out=scaled), update, out=update)
                params -= np.multiply(update, self.learning_rate, out=update)
            losses[epoch] = self._epoch_loss(probs, shuffled_t, lengths, full)
        return [
            (
                FloatMLP(
                    topology=topology,
                    weights=[w[r].copy() for w in weights],
                    biases=[b[r, 0].copy() for b in biases],
                ),
                list(losses[:, r]),
            )
            for r in range(restarts)
        ]

    def _epoch_loss(
        self, probs: np.ndarray, targets: np.ndarray, lengths: np.ndarray, full: int
    ) -> np.ndarray:
        """Every restart's mean training loss over one epoch, as :meth:`_train_single`
        records it: per-batch means accumulated batch by batch.

        ``probs`` and ``targets`` are ``(R, n, C)`` in the epoch's shuffled
        order and ``lengths`` the batch lengths, the first ``full`` of
        them ``batch_size``.  Each sum runs over the serial operands in
        the serial order, so the result is bit-identical.
        """
        restarts, n, _ = probs.shape
        samples = np.add.reduce(targets * np.log(probs + 1e-12), axis=-1)  # (R, n)
        sums = np.empty((restarts, len(lengths)))
        split = full * self.batch_size
        np.add.reduce(
            samples[:, :split].reshape(restarts, full, self.batch_size), axis=-1, out=sums[:, :full]
        )
        if split < n:
            np.add.reduce(samples[:, split:], axis=-1, out=sums[:, full])
        # A leading zero starts the running sum from 0.0 as the serial
        # loop does; accumulate adds the batches strictly in order, where
        # a pairwise sum would regroup them.
        terms = np.zeros((restarts, len(lengths) + 1))
        np.multiply(-(sums / lengths), lengths, out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1] / n

    def _train_single(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        topology: Topology,
        rng: np.random.Generator,
    ) -> tuple[FloatMLP, List[float]]:
        model = FloatMLP.random(topology, rng)
        velocity_w = [np.zeros_like(w) for w in model.weights]
        velocity_b = [np.zeros_like(b) for b in model.biases]
        second_w = [np.zeros_like(w) for w in model.weights]
        second_b = [np.zeros_like(b) for b in model.biases]
        one_hot = np.eye(topology.num_outputs)[labels]
        n = features.shape[0]
        losses: List[float] = []
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for epoch in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start_idx in range(0, n, self.batch_size):
                batch = order[start_idx : start_idx + self.batch_size]
                x = features[batch]
                t = one_hot[batch]

                # Forward pass, keeping intermediate activations.
                activations = [x]
                for index, (weight, bias) in enumerate(zip(model.weights, model.biases)):
                    z = activations[-1] @ weight + bias
                    if index < topology.num_layers - 1:
                        z = np.maximum(z, 0.0)
                    activations.append(z)
                probs = _softmax(activations[-1])
                batch_loss = -np.mean(np.sum(t * np.log(probs + 1e-12), axis=1))
                epoch_loss += batch_loss * len(batch)

                # Backward pass.
                grad = (probs - t) / len(batch)
                step += 1
                for index in range(topology.num_layers - 1, -1, -1):
                    grad_w = activations[index].T @ grad + self.weight_decay * model.weights[index]
                    grad_b = grad.sum(axis=0)
                    if index > 0:
                        grad = grad @ model.weights[index].T
                        grad = grad * (activations[index] > 0)
                    velocity_w[index] = beta1 * velocity_w[index] + (1 - beta1) * grad_w
                    velocity_b[index] = beta1 * velocity_b[index] + (1 - beta1) * grad_b
                    second_w[index] = beta2 * second_w[index] + (1 - beta2) * grad_w**2
                    second_b[index] = beta2 * second_b[index] + (1 - beta2) * grad_b**2
                    correction1 = 1 - beta1**step
                    correction2 = 1 - beta2**step
                    update_w = (velocity_w[index] / correction1) / (
                        np.sqrt(second_w[index] / correction2) + eps
                    )
                    update_b = (velocity_b[index] / correction1) / (
                        np.sqrt(second_b[index] / correction2) + eps
                    )
                    model.weights[index] = model.weights[index] - self.learning_rate * update_w
                    model.biases[index] = model.biases[index] - self.learning_rate * update_b

            losses.append(epoch_loss / n)
        return model, losses
