"""Two-party commitment schemes, their hiding game, and the reduction
from two-message statistically hiding commitments to a hash family whose
random-collision pairs equivocate.

Plaintexts are ell-bit ints, sender coins k-bit ints; a two-message scheme
is (receiver first message, sender commit message) with the canonical
verifier: the decommitment is (plaintext, coins) and verification replays
the commit computation.  The induced hash function on x = (plaintext,
coins) is h(x) = commit(first message, plaintext; coins), so a random
collision of h is exactly a pair of valid openings of one commitment.
That table is the whole commit map.  One pass over it gives the joint
count n_b(y) of (plaintext b, commit message y) over uniform (b, r), and
the hiding distance, the equivocation rate under Col and the averaging
step are integer sums over those counts; the equivocation check's
verifier replay on every fiber input is what ties the table to the
scheme.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from dcrlab.hashfam import ENUM_CAP_HARD, HashFamily, HashFunction, _check_cap

TOL = 1e-9


# ----------------------------------------------------------------- scheme model

class TwoMessageCommitment:
    """Receiver speaks once, sender commits once; canonical verification.

    Concrete schemes supply ``first_message`` (receiver seed -> opaque key
    material) and ``commit_value`` (key material, plaintext, coins ->
    commit message).  Both are total and deterministic, so every game in
    this module can be computed by enumeration.  The input space x =
    (plaintext, coins) is checked against the hard enumeration cap here,
    before a subclass builds any table over it.
    """

    name = "two-message"

    def __init__(self, ell: int, coin_bits: int, message_bits: int,
                 receiver_seeds: Sequence[int]):
        if ell < 1:
            raise ValueError(f"ell must be at least 1, got {ell}")
        if coin_bits < 0:
            raise ValueError(f"coin_bits must be at least 0, got {coin_bits}")
        if not 1 <= message_bits <= 63:  # commit values are drawn as int64
            raise ValueError(f"message_bits must be in 1..63, got {message_bits}")
        _check_cap(ell + coin_bits, ENUM_CAP_HARD)
        self.ell = ell
        self.coin_bits = coin_bits
        self.message_bits = message_bits
        self.receiver_seeds = tuple(receiver_seeds)

    def first_message(self, seed: int):
        raise NotImplementedError

    def commit_value(self, first_msg, plaintext: int, coins: int) -> int:
        raise NotImplementedError

    # -- canonical verifier ----------------------------------------------

    def verify(self, com, decom) -> int | None:
        """Replays the sender computation; returns the plaintext or None."""
        first_msg, commit_msg = com
        plaintext, coins = decom
        if not (0 <= plaintext < 2**self.ell and 0 <= coins < 2**self.coin_bits):
            return None
        if self.commit_value(first_msg, plaintext, coins) != commit_msg:
            return None
        return plaintext


# ----------------------------------------------------------------- toy schemes

class RandomFunctionCommitment(TwoMessageCommitment):
    """The receiver sends the table of a uniformly random function
    f : {0,1}^(ell+k) -> {0,1}^m and the sender answers f(b || r).

    Hiding degrades to a measurable epsilon as m approaches ell + k and is
    strong when k - m is large; binding is only as strong as collision
    finding in a published table, i.e. not at all, which is irrelevant to
    the reduction (it only consumes hiding and the two-message shape).
    """

    def __init__(self, coin_bits: int, message_bits: int, num_seeds: int = 16,
                 seed: int = 0, ell: int = 1):
        super().__init__(ell, coin_bits, message_bits, range(num_seeds))
        self.name = f"random-function[k={coin_bits},m={message_bits},ell={ell}]"
        rng = np.random.default_rng(seed)
        size = 2 ** (ell + coin_bits)
        self._tables = {
            s: tuple(int(v) for v in rng.integers(0, 2**message_bits, size=size))
            for s in self.receiver_seeds
        }

    def first_message(self, seed):
        return self._tables[seed]

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[(plaintext << self.coin_bits) | coins]


class OpaqueCommitment(TwoMessageCommitment):
    """Ignores the plaintext entirely: commit message = f(r).  Perfectly
    hiding (epsilon exactly 0), useful as the zero-epsilon reference."""

    def __init__(self, coin_bits: int, message_bits: int | None = None,
                 num_seeds: int = 4, seed: int = 0, ell: int = 1):
        message_bits = coin_bits if message_bits is None else message_bits
        super().__init__(ell, coin_bits, message_bits, range(num_seeds))
        self.name = f"opaque[k={coin_bits}]"
        rng = np.random.default_rng(seed)
        self._tables = {
            s: tuple(int(v) for v in rng.integers(0, 2**message_bits, size=2**coin_bits))
            for s in self.receiver_seeds
        }

    def first_message(self, seed):
        return self._tables[seed]

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[coins]


class ClearTextCommitment(TwoMessageCommitment):
    """Sends (plaintext, coins) in the clear: epsilon = 1, the other
    extreme."""

    def __init__(self, coin_bits: int, ell: int = 1):
        super().__init__(ell, coin_bits, ell + coin_bits, (0,))
        self.name = f"clear-text[k={coin_bits}]"

    def first_message(self, seed):
        return "open-channel"

    def commit_value(self, first_msg, plaintext, coins):
        return (plaintext << self.coin_bits) | coins


# --------------------------------------------------------------------- hiding

def _plaintext_counts(h: HashFunction, coin_bits: int) -> dict[int, list[int]]:
    """The joint count of (plaintext b, commit message y) over uniform
    (b, r), coins in the low ``coin_bits`` of x: {y: [n_b(y) for each b]},
    row y of the table read off column x >> coin_bits in one pass.  The
    rows are h's fibers, each split by plaintext."""
    size = 2**coin_bits
    slices = [h.table[i:i + size] for i in range(0, len(h.table), size)]
    counts: dict[int, list[int]] = {}
    for b, values in enumerate(slices):
        for y in values:
            row = counts.get(y)
            if row is None:
                row = counts[y] = [0] * len(slices)
            row[b] += 1
    return counts


@lru_cache(maxsize=None)
def hiding_distance(h: HashFunction, coin_bits: int) -> Fraction:
    """Exact epsilon of the commitment (plaintext || coins) -> h(x), coins in
    the low ``coin_bits``: the largest TV between two plaintexts' commit
    laws, max over b < b' of sum_y |n_b(y) - n_b'(y)| / (2 * 2^coin_bits)
    on the plaintext-by-commitment counts.  Shared by the reduction's keys
    and the promise problem's instances (coin_bits = n - 1, the table's
    two halves)."""
    rows = list(_plaintext_counts(h, coin_bits).values())
    plaintexts = range(len(rows[0]))
    return Fraction(max((sum(abs(row[b0] - row[b1]) for row in rows)
                         for b0, b1 in itertools.combinations(plaintexts, 2)),
                        default=0),
                    2 * 2**coin_bits)


# ----------------------------------------------------- reduction to hash family

def scheme_to_hash_family(scheme: TwoMessageCommitment) -> HashFamily:
    """h(x) = commit message on x = (plaintext || coins); the key is the
    receiver's first message, sampled over the scheme's seed list."""
    n = scheme.ell + scheme.coin_bits
    k = scheme.coin_bits
    openings = [(x >> k, x & (2**k - 1)) for x in range(2**n)]  # shared by every key
    fns = []
    for seed in scheme.receiver_seeds:
        first = scheme.first_message(seed)
        table = tuple(scheme.commit_value(first, b, r) for b, r in openings)
        fns.append(HashFunction(n=n, m=scheme.message_bits, table=table, key=seed))
    return HashFamily(f"from[{scheme.name}]", fns)


@dataclass
class EquivocationReport:
    """Pr over Col(h) that the two preimages open to distinct plaintexts."""

    rate: float
    epsilon: float
    lower_bound: float


def col_equivocation_rate(scheme: TwoMessageCommitment, h: HashFunction) -> EquivocationReport:
    """Exact Pr_{(x,x') <- Col(h)}[plaintext(x) != plaintext(x')].

    Col(h) puts mass 1 / (2^n |F|) on every ordered pair of a fiber F:
    count L/|F| over 2^n * L with L = ``h.fiber_lcm`` (``hashfam.col_distribution``
    holds it as one uniform product block per fiber).  The fiber of
    commitment y has |F_y| = sum_b n_b(y) inputs, n_b(y) of plaintext b
    (the plaintext-by-commitment counts), and |F_y|^2 - sum_b n_b(y)^2 of
    its pairs split, so the rate is
    sum_y (L/|F_y|) (|F_y|^2 - sum_b n_b(y)^2) / (2^n * L), counted on
    integers without building the pair law.

    Both halves of every collision must open validly under the canonical
    verifier.  Verification replays the commit computation, so that holds
    for every pair of F iff the commit value is constant on F, i.e. iff
    every input of F opens the commitment of F's first input: one commit
    per fiber and one verify per input.  The hiding bound
    rate >= 1/2 - 2 sqrt(eps) is asserted for bit plaintexts.
    """
    first = scheme.first_message(h.key)
    eps = float(hiding_distance(h, scheme.coin_bits))
    k = scheme.coin_bits
    mask = 2**k - 1
    for fiber in h.fibers.values():
        com = (first, scheme.commit_value(first, fiber[0] >> k, fiber[0] & mask))
        if any(scheme.verify(com, (x >> k, x & mask)) is None for x in fiber):
            raise AssertionError("a Col-supported pair failed to re-open")
    lcm = h.fiber_lcm
    split_count = 0
    for row in _plaintext_counts(h, k).values():
        size = sum(row)
        split_count += lcm // size * (size * size - sum(c * c for c in row))
    rate = Fraction(split_count, 2**h.n * lcm)
    lower = 0.5 - 2 * math.sqrt(eps)
    if scheme.ell == 1 and float(rate) < lower - TOL:
        raise AssertionError(f"equivocation rate {float(rate)} below 1/2 - 2 sqrt(eps) = {lower}")
    return EquivocationReport(rate=float(rate), epsilon=eps, lower_bound=lower)


@dataclass
class MarkovStepReport:
    """The averaging step: commitments whose posterior plaintext law strays
    from uniform by sqrt(eps) or more carry at most sqrt(eps) mass."""

    heavy_fraction: float
    ok: bool


def markov_step_check(scheme: TwoMessageCommitment, h: HashFunction) -> MarkovStepReport:
    """Exact check of Pr_{c <- C}[ TV(B_c, B) >= sqrt(eps) ] <= sqrt(eps).

    B is the uniform plaintext, C the commit message on uniform (b, r),
    B_c the posterior of b given c: commitment y has mass |F_y| = sum_b
    n_b(y) and posterior n_b(y) / |F_y| on the plaintext-by-commitment
    counts.  When eps is exactly zero the posterior must equal the prior
    for every commitment.
    """
    eps = float(hiding_distance(h, scheme.coin_bits))
    root_eps = math.sqrt(eps)
    n_plain = 2**scheme.ell
    heavy_mass = 0
    all_uniform = True
    for row in _plaintext_counts(h, scheme.coin_bits).values():
        mass = sum(row)
        # TV(B_c, B) = 1/2 sum_b |n_b / N - 2^-ell|, on integers.
        num = sum(abs(c * n_plain - mass) for c in row)
        if num != 0:
            all_uniform = False
        if eps > 0 and num / (2 * mass * n_plain) >= root_eps:
            heavy_mass += mass
    heavy = Fraction(heavy_mass, 2**h.n)
    ok = all_uniform if eps == 0 else float(heavy) <= root_eps + TOL
    return MarkovStepReport(heavy_fraction=float(heavy), ok=ok)


@dataclass
class StringRateReport:
    """Pr over Col(h) that the two preimages carry the same plaintext."""

    collision_rate: float
    epsilon: float
    upper_bound: float


def string_variant_rate(scheme: TwoMessageCommitment, h: HashFunction) -> StringRateReport:
    """For ell-bit plaintexts: Pr[b = b'] <= 2^-ell + 2 sqrt(eps)."""
    rep = col_equivocation_rate(scheme, h)
    same = 1.0 - rep.rate
    upper = 2.0**-scheme.ell + 2 * math.sqrt(rep.epsilon)
    if same > upper + TOL:
        raise AssertionError(f"same-plaintext rate {same} above 2^-ell + 2 sqrt(eps) = {upper}")
    return StringRateReport(collision_rate=same, epsilon=rep.epsilon, upper_bound=upper)
