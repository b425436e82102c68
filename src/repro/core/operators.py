"""Genetic operators: tournament selection, crossover and mutation.

The operators work directly on the integer gene vectors produced by
:class:`~repro.core.chromosome.ChromosomeLayout`:

* **binary tournament selection** with the usual NSGA-II criterion
  (lower rank wins, ties broken by larger crowding distance),
* **uniform crossover** ("crossover combines winning weights"),
* **mutation** that treats mask genes specially: instead of re-drawing
  the whole mask value, individual bits are flipped, which is the
  natural neighbourhood for the fine-grained pruning decision.  Sign,
  exponent and bias genes receive a random-reset or (with probability
  :data:`CREEP_FRACTION`) a +/-1 creep mutation.

A selected gene is guaranteed to actually change: creep mutations
*reflect* off the gene bounds instead of clipping back onto the current
value, random resets resample from the range *excluding* the current
value, and mask genes with zero mask bits (or frozen bounds) are never
selected — so the effective mutation rate equals
``mutation_probability`` instead of silently undershooting it.

The whole variation pipeline is **matrix-native**:
:meth:`GeneticOperators.make_offspring` takes the population as one
``(n, genes)`` int64 matrix, runs batched tournaments / crossover /
mutation with pure numpy index arithmetic, and returns the offspring as a
``(count, genes)`` matrix.  The original per-individual scalar walk is
retained behind ``slow=True``: both paths consume the *same* pre-drawn
random tensors (:class:`VariationDraws`), so for a given generator
state they produce bit-identical offspring — which is what the
randomized equivalence tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.chromosome import ChromosomeLayout
from repro.core.nsga2 import binary_tournament_winners

__all__ = ["CREEP_FRACTION", "GeneticOperators", "VariationDraws"]

#: Share of range-gene mutations that take a +/-1 creep step instead of a
#: full random reset: a branch coin below it creeps.
CREEP_FRACTION = 0.5


@dataclass(frozen=True)
class VariationDraws:
    """Every random draw of one :meth:`GeneticOperators.make_offspring` call.

    All tensors are drawn up front, in a fixed order, so the vectorized
    engine and the scalar ``slow=True`` oracle consume identical
    randomness and therefore produce identical offspring.  Shapes use
    ``p = num_pairs`` (each pair yields two children, ``c = 2 * p``) and
    ``g = num_genes``.  The per-mutation value draws are *compact*: one
    entry per selected gene (``k = (mutation_coins < rate).sum()``,
    consumed in row-major order of the selection matrix), so the draw
    volume scales with the mutation rate instead of with ``c * g``.
    """

    #: ``(c, 2)`` population indices of each tournament's contestants
    #: (distinct within a row whenever the population has > 1 member).
    contestants: np.ndarray
    #: ``(c,)`` uniforms breaking full (rank, crowding) ties.
    tie_coins: np.ndarray
    #: ``(p,)`` uniforms deciding whether a pair undergoes crossover.
    crossover_coins: np.ndarray
    #: ``(x, g)`` uniforms — the gene-origin masks of the ``x`` pairs
    #: that undergo crossover, in pair order.
    crossover_mask: np.ndarray
    #: ``(c, g)`` uniforms selecting which genes mutate.
    mutation_coins: np.ndarray
    #: ``(k,)`` uniforms, one per selected gene in row-major order:
    #: picks the mask bit to flip, or chooses creep vs random reset.
    branch_coins: np.ndarray
    #: ``(k,)`` uniforms, one per selected gene in row-major order:
    #: chooses the creep direction, or draws the random-reset value.
    value_coins: np.ndarray

    @property
    def num_pairs(self) -> int:
        return int(self.crossover_coins.shape[0])


@dataclass
class GeneticOperators:
    """Crossover, mutation and tournament selection on integer chromosomes.

    Parameters
    ----------
    layout:
        Chromosome layout (gene bounds and mask-gene positions).
    crossover_probability:
        Probability that a mating pair undergoes crossover (paper: 0.7).
    mutation_probability:
        Per-gene mutation probability (paper: 0.2 %–ish per gene is far
        too low for the short chromosomes of printed MLPs; the default
        0.02, which the trainer uses, mutates a handful of genes per
        child).
    """

    layout: ChromosomeLayout
    crossover_probability: float = 0.7
    mutation_probability: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must lie in [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability must lie in [0, 1]")
        self._mask_bits = np.asarray(self.layout.mask_bits_per_gene, dtype=np.int64)
        lower = np.asarray(self.layout.lower_bounds, dtype=np.int64)
        upper = np.asarray(self.layout.upper_bounds, dtype=np.int64)
        span = upper - lower
        mask_flags = np.asarray(self.layout.mask_gene_flags, dtype=bool)
        # Gene classes of the mutation kernel.  A mask gene is mutable
        # only when it has at least one mask bit *and* open bounds (the
        # ablations freeze mask genes by pinning lower == upper); a
        # zero-bit or frozen gene is skipped outright instead of
        # flipping a phantom bit and relying on clip to undo it.
        self._flip_genes = mask_flags & (self._mask_bits > 0) & (span > 0)
        self._binary_genes = ~mask_flags & (span == 1)
        self._range_genes = ~mask_flags & (span >= 2)

    # ------------------------------------------------------------------
    # Batched variation pipeline
    # ------------------------------------------------------------------
    def draw_variation(
        self, population_size: int, count: int, rng: np.random.Generator
    ) -> VariationDraws:
        """Draw every random tensor of one offspring batch, in fixed order."""
        if population_size <= 0:
            raise ValueError("population is empty")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        num_genes = self.layout.num_genes
        num_pairs = (count + 1) // 2
        num_children = 2 * num_pairs
        # Two *distinct* contestants per tournament (matching the seed's
        # rng.choice(n, 2, replace=False)): the second index is drawn
        # from [0, n-1) and shifted past the first, which is exactly a
        # uniform draw over the ordered distinct pairs.
        first = rng.integers(0, population_size, size=num_children)
        if population_size > 1:
            second = rng.integers(0, population_size - 1, size=num_children)
            second += second >= first
        else:
            second = np.zeros(num_children, dtype=np.int64)
        contestants = np.stack([first, second], axis=1)
        tie_coins = rng.random(num_children)
        crossover_coins = rng.random(num_pairs)
        num_crossed = int(np.count_nonzero(crossover_coins < self.crossover_probability))
        crossover_mask = rng.random((num_crossed, num_genes))
        mutation_coins = rng.random((num_children, num_genes))
        num_selected = int(np.count_nonzero(mutation_coins < self.mutation_probability))
        return VariationDraws(
            contestants=contestants,
            tie_coins=tie_coins,
            crossover_coins=crossover_coins,
            crossover_mask=crossover_mask,
            mutation_coins=mutation_coins,
            branch_coins=rng.random(num_selected),
            value_coins=rng.random(num_selected),
        )

    def select_parents(
        self, ranks: np.ndarray, crowding: np.ndarray, draws: VariationDraws
    ) -> np.ndarray:
        """All tournament winners of one batch (``(2 * num_pairs,)`` indices)."""
        return binary_tournament_winners(
            np.asarray(ranks), np.asarray(crowding), draws.contestants, draws.tie_coins
        )

    def crossover_population(
        self, parents_a: np.ndarray, parents_b: np.ndarray, draws: VariationDraws
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform crossover of ``num_pairs`` parent rows, as boolean-mask blends."""
        parents_a = np.asarray(parents_a, dtype=np.int64)
        parents_b = np.asarray(parents_b, dtype=np.int64)
        crossed = draws.crossover_coins < self.crossover_probability
        # Rows that skip crossover take every gene from their own parent.
        take_from_a = np.ones(parents_a.shape, dtype=bool)
        take_from_a[crossed] = draws.crossover_mask < 0.5
        children_a = np.where(take_from_a, parents_a, parents_b)
        children_b = np.where(take_from_a, parents_b, parents_a)
        return children_a, children_b

    def mutate_population(
        self, children: np.ndarray, draws: VariationDraws, copy: bool = True
    ) -> np.ndarray:
        """Vectorized mutation of a ``(c, genes)`` child matrix.

        The selected entries are gathered into flat arrays (row-major
        order, matching the compact draw layout) and the disjoint
        gene-class branches — mask-bit XOR, binary flip, reflected
        creep, resampling reset — are applied with boolean-mask
        assignments; every selected mutable gene changes value by
        construction.  ``copy=False`` mutates ``children`` in place
        (it must already be a C-contiguous int64 matrix).
        """
        out = np.array(children, dtype=np.int64, copy=copy)
        rows, cols = np.nonzero(draws.mutation_coins < self.mutation_probability)
        if rows.size == 0:
            return out
        values = out[rows, cols]
        lower = self.layout.lower_bounds[cols]
        upper = self.layout.upper_bounds[cols]
        branch_coins = draws.branch_coins
        value_coins = draws.value_coins
        mutated = values.copy()

        # Mask genes: XOR one uniformly drawn bit.
        flip = self._flip_genes[cols]
        bits = self._mask_bits[cols][flip]
        bit_index = np.minimum((branch_coins[flip] * bits).astype(np.int64), bits - 1)
        mutated[flip] = values[flip] ^ (np.int64(1) << bit_index)

        # Binary genes: flip between the two bound values.
        binary = self._binary_genes[cols]
        mutated[binary] = (lower + upper - values)[binary]

        # Range genes: +/-1 creep (reflected off the bounds) or a random
        # reset over the range excluding the current value.
        in_range = self._range_genes[cols]
        creep = in_range & (branch_coins < CREEP_FRACTION)
        step = np.where(value_coins < 0.5, -1, 1)
        step = np.where(values == lower, 1, np.where(values == upper, -1, step))
        mutated[creep] = (values + step)[creep]
        reset = in_range & ~creep
        span = upper - lower
        draw = lower + np.minimum(
            (value_coins * span).astype(np.int64), np.maximum(span - 1, 0)
        )
        mutated[reset] = (draw + (draw >= values))[reset]

        out[rows, cols] = mutated
        return out

    def _offspring_vectorized(
        self,
        population: np.ndarray,
        ranks: np.ndarray,
        crowding: np.ndarray,
        draws: VariationDraws,
    ) -> np.ndarray:
        winners = self.select_parents(ranks, crowding, draws)
        parents_a = population[winners[0::2]]
        parents_b = population[winners[1::2]]
        children_a, children_b = self.crossover_population(parents_a, parents_b, draws)
        children = np.empty(
            (2 * draws.num_pairs, population.shape[1]), dtype=np.int64
        )
        children[0::2] = children_a
        children[1::2] = children_b
        return self.mutate_population(children, draws, copy=False)

    def _offspring_scalar(
        self,
        population: np.ndarray,
        ranks: np.ndarray,
        crowding: np.ndarray,
        draws: VariationDraws,
    ) -> np.ndarray:
        """Per-individual / per-gene reference walk over the same draws.

        Retained as the ``slow=True`` oracle: bit-identical to
        :meth:`_offspring_vectorized` for the same :class:`VariationDraws`.
        """
        lower_bounds = self.layout.lower_bounds
        upper_bounds = self.layout.upper_bounds
        num_genes = population.shape[1]

        def tournament(row: int) -> int:
            a, b = (int(i) for i in draws.contestants[row])
            if ranks[a] < ranks[b]:
                return a
            if ranks[b] < ranks[a]:
                return b
            if crowding[a] > crowding[b]:
                return a
            if crowding[b] > crowding[a]:
                return b
            return a if draws.tie_coins[row] < 0.5 else b

        children: List[np.ndarray] = []
        crossed_so_far = 0
        for pair in range(draws.num_pairs):
            parent_a = population[tournament(2 * pair)].copy()
            parent_b = population[tournament(2 * pair + 1)].copy()
            if draws.crossover_coins[pair] < self.crossover_probability:
                take_from_a = draws.crossover_mask[crossed_so_far] < 0.5
                crossed_so_far += 1
                child_a = np.where(take_from_a, parent_a, parent_b)
                child_b = np.where(take_from_a, parent_b, parent_a)
            else:
                child_a, child_b = parent_a, parent_b
            children.append(child_a.astype(np.int64))
            children.append(child_b.astype(np.int64))

        offspring = np.stack(children)
        # The compact per-mutation draws are consumed in row-major order
        # of the selection matrix, mirroring the vectorized gather.
        draw_cursor = 0
        for row in range(offspring.shape[0]):
            for index in range(num_genes):
                if draws.mutation_coins[row, index] >= self.mutation_probability:
                    continue
                branch_coin = float(draws.branch_coins[draw_cursor])
                value_coin = float(draws.value_coins[draw_cursor])
                draw_cursor += 1
                lower = int(lower_bounds[index])
                upper = int(upper_bounds[index])
                value = int(offspring[row, index])
                if self._flip_genes[index]:
                    bits = int(self._mask_bits[index])
                    bit = min(int(branch_coin * bits), bits - 1)
                    offspring[row, index] = value ^ (1 << bit)
                elif self._binary_genes[index]:
                    offspring[row, index] = lower + upper - value
                elif self._range_genes[index]:
                    if branch_coin < CREEP_FRACTION:
                        step = -1 if value_coin < 0.5 else 1
                        if value == lower:
                            step = 1
                        elif value == upper:
                            step = -1
                        offspring[row, index] = value + step
                    else:
                        span = upper - lower
                        draw = lower + min(int(value_coin * span), span - 1)
                        if draw >= value:
                            draw += 1
                        offspring[row, index] = draw
        return offspring

    # ------------------------------------------------------------------
    # Offspring generation
    # ------------------------------------------------------------------
    def make_offspring(
        self,
        population: np.ndarray,
        ranks: np.ndarray,
        crowding: np.ndarray,
        count: int,
        rng: np.random.Generator,
        slow: bool = False,
    ) -> np.ndarray:
        """Produce ``count`` children via selection, crossover and mutation.

        ``population`` is an ``(n, genes)`` int64 matrix and so is the
        result, ``(count, genes)``.  ``slow=True`` runs the scalar
        per-individual reference walk over the same random draws
        (bit-identical output).
        """
        if population.ndim != 2:
            raise ValueError(f"population must be an (n, genes) matrix, got {population.shape}")
        draws = self.draw_variation(population.shape[0], count, rng)
        if slow:
            offspring = self._offspring_scalar(population, ranks, crowding, draws)
        else:
            offspring = self._offspring_vectorized(population, ranks, crowding, draws)
        return offspring[:count]
