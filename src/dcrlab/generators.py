"""Block generators, online generators, and exact entropy accounting.

A block generator maps a public parameter z and a seed x to a tuple of
output blocks.  An online generator tosses fresh coins before each block;
block i may read only the coins of blocks 1..i.  Per-block coin spaces are
finite uniform ranges of arbitrary integer size, which lets reference
generators hit non-dyadic conditional laws (e.g. uniform over a preimage
set of size 3) exactly.

Two entropy functionals are computed, always by full enumeration:

* real entropy       H(Y | Z)                    of a block generator,
* accessible entropy sum_i H(Y_i | Z, R_{<i})    of an online generator.

Each is evaluated along two independent routes (conditional-entropy
machinery vs expected sample-entropy) and the routes are asserted to agree
to 1e-9, which checks the textbook identities the accounting rests on.
"""

import itertools
from collections import Counter
from typing import Callable, Sequence

from dcrlab.probkit import (
    Dist,
    SupportError,
    _context_entropy,
    _log2_ratio,
    shannon_entropy,
)

ROUTE_TOL = 1e-9
LAW_ENUM_CAP = 2**20      # largest single coin space enumerated by counting
PREFIX_ENUM_CAP = 2**22   # largest product of coin spaces walked as prefixes


class GeneratorError(ValueError):
    """A generator was queried outside its declared contract."""


class BlockGenerator:
    """A deterministic m-block generator over an enumerable (z, x) space.

    ``param_space`` lists the public-parameter values (sampled uniformly);
    ``seed_bits`` is the seed length s; ``block_bits`` declares the length
    of each output block; ``fn(z, x)`` returns the m-tuple of blocks.
    """

    def __init__(self, name: str, param_space: Sequence, seed_bits: int,
                 block_bits: Sequence[int], fn: Callable):
        self.name = name
        self.param_space = tuple(param_space)
        self.seed_bits = seed_bits
        self.block_bits = tuple(block_bits)
        self.fn = fn
        self._law_cache: dict[int, Dist] = {}

    @property
    def m_blocks(self) -> int:
        return len(self.block_bits)

    def run(self, z, x: int) -> tuple:
        out = tuple(self.fn(z, x))
        if len(out) != self.m_blocks:
            raise GeneratorError(f"{self.name}: expected {self.m_blocks} blocks, got {len(out)}")
        for y, bits in zip(out, self.block_bits):
            if not 0 <= y < 2**bits:
                raise GeneratorError(f"{self.name}: block value {y} outside {bits} bits")
        return out

    def output_dist(self, z) -> Dist:
        """Exact law of the output tuple for a fixed z (seed uniform)."""
        if z in self._law_cache:
            return self._law_cache[z]
        if 2**self.seed_bits > PREFIX_ENUM_CAP:
            raise GeneratorError("seed space beyond enumeration cap")
        counts: dict[tuple, int] = {}
        for x in range(2**self.seed_bits):
            y = self.run(z, x)
            counts[y] = counts.get(y, 0) + 1
        law = Dist(counts, denominator=2**self.seed_bits)
        self._law_cache[z] = law
        return law

    def support(self, z) -> frozenset:
        return frozenset(self.output_dist(z).support())


def _sample_entropy_of(g: BlockGenerator, z) -> Callable[[tuple], float]:
    """For one z, the map from an output prefix to its real sample-entropy
    sum_j H_{Y_j | Z, Y_<j}(y_j | z, y_<j): each term is -log2 of the
    conditional probability of block j given the earlier blocks, under the
    exact law of g(z, uniform seed).  The count of every output prefix is
    read from one pass over the law."""
    law = g.output_dist(z)
    prefix_counts: dict[tuple, int] = {}
    for y, c in law.counts.items():
        for j in range(1, len(y) + 1):
            prefix_counts[y[:j]] = prefix_counts.get(y[:j], 0) + c

    def prefix_entropy(prefix: tuple) -> float:
        total = 0.0
        prev = law.denominator
        for j in range(1, len(prefix) + 1):
            cur = prefix_counts.get(prefix[:j], 0)
            if cur == 0:
                raise SupportError(f"prefix {prefix[:j]} not in support for z={z!r}")
            total += -_log2_ratio(cur, prev)
            prev = cur
        return total

    return prefix_entropy


def real_entropy(g: BlockGenerator) -> float:
    """H(Y | Z) of the generator, seeds and parameters uniform.

    Computed as a conditional Shannon entropy of the (output, parameter)
    joint law, streamed by ``_context_entropy`` without building it, then
    re-derived as the expected real sample-entropy over (z, y); the two
    routes must agree to 1e-9.
    """
    k = len(g.param_space)
    laws = [g.output_dist(z) for z in g.param_space]
    via_cond = _context_entropy(laws)

    via_samples = 0.0
    for z, law in zip(g.param_space, laws):
        prefix_entropy = _sample_entropy_of(g, z)
        for y, c in law.counts.items():
            via_samples += c / law.denominator / k * prefix_entropy(y)
    if abs(via_cond - via_samples) > ROUTE_TOL:
        raise AssertionError(
            f"real-entropy routes disagree: {via_cond} vs {via_samples}")
    return via_cond


# ------------------------------------------------------------ online generators

class OnlineGenerator:
    """An m-block generator tossing fresh coins per block.

    ``coin_spaces[i]`` is the size of block i's uniform coin range; block i
    sees only coins 1..i.  ``block(z, coins)`` with ``len(coins) == i``
    returns block i.  ``block_law`` gives the exact conditional law of
    block i given (z, earlier coins); the default implementation counts
    over the block's coin range, generators with oversized coin spaces
    supply it analytically as ``law_fn``.
    """

    def __init__(self, name: str, param_space: Sequence, coin_spaces: Sequence[int],
                 block_fn: Callable, law_fn: Callable | None = None):
        self.name = name
        self.param_space = tuple(param_space)
        self.coin_spaces = tuple(int(v) for v in coin_spaces)
        self.block_fn = block_fn
        self.law_fn = law_fn
        self._law_cache: dict[tuple, Dist] = {}
        if any(v < 1 for v in self.coin_spaces):
            raise GeneratorError("coin spaces must be non-empty")

    @property
    def m_blocks(self) -> int:
        return len(self.coin_spaces)

    def block(self, z, coins: Sequence[int]):
        i = len(coins) - 1
        if not 0 <= i < self.m_blocks:
            raise GeneratorError("coin prefix length out of range")
        return self.block_fn(z, tuple(coins))

    def block_law(self, z, r_prefix: Sequence[int]) -> Dist:
        """The law of block ``len(r_prefix)`` given (z, r_prefix), derived
        once per (z, prefix) and shared by every consumer: the accessible
        entropy, the consistency check and the rewinding adversary."""
        prefix = tuple(r_prefix)
        law = self._law_cache.get((z, prefix))
        if law is None:
            law = self._law_cache[(z, prefix)] = self._derive_law(z, prefix)
        return law

    def _derive_law(self, z, prefix: tuple) -> Dist:
        if self.law_fn is not None:
            return self.law_fn(z, prefix)
        space = self.coin_spaces[len(prefix)]
        if space > LAW_ENUM_CAP:
            raise GeneratorError(
                f"{self.name}: coin space {space} not enumerable; analytic law required")
        counts: dict[object, int] = {}
        for r in range(space):
            y = self.block(z, prefix + (r,))
            counts[y] = counts.get(y, 0) + 1
        return Dist(counts, denominator=space)

    def coin_prefixes(self, upto: int):
        """All coin tuples for blocks 1..upto (exclusive of block upto+1)."""
        total = 1
        for v in self.coin_spaces[:upto]:
            total *= v
        if total > PREFIX_ENUM_CAP:
            raise GeneratorError(f"{self.name}: prefix space {total} beyond cap")
        return itertools.product(*(range(v) for v in self.coin_spaces[:upto]))


def accessible_entropy(gt: OnlineGenerator) -> float:
    """sum_i H(Y_i | Z, R_{<i}), parameters and coins uniform.

    Route one conditions through the joint law of (block, context),
    streamed term by term; route two takes the transcript expectation of
    the per-block sample entropies, once per distinct law within each key.
    Agreement to 1e-9 is asserted.
    """
    via_cond = 0.0
    via_expect = 0.0
    for i in range(gt.m_blocks):
        prefix_list = list(gt.coin_prefixes(i))
        laws = [gt.block_law(z, prefix) for z in gt.param_space for prefix in prefix_list]
        via_cond += _context_entropy(laws)
        expect_i = 0.0
        for start in range(0, len(laws), len(prefix_list)):
            for law, contexts in Counter(laws[start:start + len(prefix_list)]).items():
                expect_i += contexts * shannon_entropy(law)
        via_expect += expect_i / len(laws)
    if abs(via_cond - via_expect) > ROUTE_TOL:
        raise AssertionError(
            f"accessible-entropy routes disagree: {via_cond} vs {via_expect}")
    return via_cond


def online_support(gt: OnlineGenerator, z) -> frozenset:
    """All output tuples the online generator can emit for a fixed z.  The
    support of each distinct (earlier blocks, last block law object) is
    read once, however many coin prefixes lead to it."""
    tuples: set[tuple] = set()
    seen = set()
    for prefix in gt.coin_prefixes(gt.m_blocks - 1):
        partial = tuple(gt.block(z, prefix[: i + 1]) for i in range(len(prefix)))
        last_law = gt.block_law(z, prefix)
        if (partial, id(last_law)) not in seen:
            seen.add((partial, id(last_law)))
            for y in last_law.support():
                tuples.add(partial + (y,))
    return frozenset(tuples)


def check_consistent(gt: OnlineGenerator, g: BlockGenerator) -> bool:
    """True iff for every z the online generator's output support sits
    inside the block generator's support (so its outputs are always valid
    g-executions)."""
    if gt.param_space != g.param_space or gt.m_blocks != g.m_blocks:
        return False
    return all(online_support(gt, z) <= g.support(z) for z in g.param_space)
