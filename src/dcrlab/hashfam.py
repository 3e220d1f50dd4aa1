"""Enumerable hash-function families and the random-collision game.

Inputs and outputs are bit strings represented as ints: an n-bit input is
an integer in [0, 2^n).  Every function is stored as a full truth table so
preimage sets, the ideal collision finder Col, and adversary output
distributions are all exact objects.

Col(h) samples x1 uniformly, then x2 uniformly from the preimage set
h^-1(h(x1)) (x1 = x2 is allowed).  Its exact law is held as product
blocks (``probkit.BlockLaw``): one block per fiber, uniform over the fiber
and of weight |fiber| / 2^n, so a constant function's law costs 2^n
outcomes, not its 4^n pairs, and is not pair-capped.  The game value
against A is E_h TV(A(h), Col(h)), an exact average over the family's
enumerated key space.  A(h) is the adversary's own exact law when it
supplies one, and otherwise the count of its outputs over every tape.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from dcrlab.probkit import BlockLaw, Dist, EnumerationCap, JointDist, _shared_counts, stat_distance

ENUM_CAP_DEFAULT = 14   # largest n enumerated without protest
ENUM_CAP_HARD = 20      # absolute ceiling on 2^n enumeration
TAPE_CAP_BITS = 24      # largest adversary tape space enumerated exactly


def _check_cap(n: int, cap: int = ENUM_CAP_DEFAULT) -> None:
    if n > min(cap, ENUM_CAP_HARD):
        raise EnumerationCap(f"n={n} exceeds enumeration cap {min(cap, ENUM_CAP_HARD)}")


@dataclass(frozen=True)
class HashFunction:
    """A total function {0,1}^n -> {0,1}^m given by its truth table."""

    n: int
    m: int
    table: tuple[int, ...]
    key: object = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        _check_cap(self.n, ENUM_CAP_HARD)
        if len(self.table) != 2**self.n:
            raise ValueError("truth table has wrong length")
        bound = 2**self.m
        if not all(0 <= y < bound for y in self.table):  # not min/max: NaN compares False
            raise ValueError("table entry outside output range")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, taken once per object rather
        than over the whole table on every cache lookup."""
        return hash((self.n, self.m, self.table, self.key))

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        """All fibers of h: output -> sorted tuple of inputs mapping to it."""
        fibers: dict[int, list[int]] = {}
        for x, y in enumerate(self.table):
            fibers.setdefault(y, []).append(x)
        return {y: tuple(xs) for y, xs in fibers.items()}

    @cached_property
    def fiber_laws(self) -> dict[int, Dist]:
        """output -> the uniform law on its fiber, the one such law that Col,
        the ideal generator and the second-block divergence all read."""
        return {y: Dist.uniform(fiber) for y, fiber in self.fibers.items()}

    @cached_property
    def fiber_lcm(self) -> int:
        """lcm of the fiber sizes: the slot count that makes every fiber an
        exact uniform index range."""
        return math.lcm(*(len(f) for f in self.fibers.values()))


class HashFamily:
    """A finite, explicitly enumerated key space of hash functions.

    Families built from a seed sample their key list once at construction;
    the declared key space is that list and all game expectations average
    over it uniformly.
    """

    def __init__(self, name: str, functions: Sequence[HashFunction]):
        if not functions:
            raise ValueError("family needs at least one function")
        n, m = functions[0].n, functions[0].m
        if any(h.n != n or h.m != m for h in functions):
            raise ValueError("mixed parameters inside one family")
        self.name = name
        self.n = n
        self.m = m
        self.functions = tuple(functions)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)

    def __repr__(self):
        return f"HashFamily({self.name!r}, n={self.n}, m={self.m}, keys={len(self.functions)})"


# ------------------------------------------------------------- built-in families

def identity_family(n: int) -> HashFamily:
    _check_cap(n)
    h = HashFunction(n=n, m=n, table=tuple(range(2**n)), key="id")
    return HashFamily(f"identity[n={n}]", [h])


def _key_rng(n: int, num_keys: int, seed: int) -> np.random.Generator:
    """The rng of a seeded family's keys, once n and num_keys are checked."""
    _check_cap(n)
    if num_keys < 1:
        raise ValueError(f"num_keys must be at least 1, got {num_keys}")
    return np.random.default_rng(seed)


def constant_family(n: int, m: int, num_keys: int = 4, seed: int = 0) -> HashFamily:
    rng = _key_rng(n, num_keys, seed)
    count = min(num_keys, 2**m)
    values = rng.choice(2**m, size=count, replace=False)
    fns = [HashFunction(n=n, m=m, table=(int(v),) * 2**n, key=int(v)) for v in values]
    return HashFamily(f"constant[n={n},m={m}]", fns)


def affine_family(n: int, m: int, num_keys: int = 4, seed: int = 0) -> HashFamily:
    """x -> Ax + b over GF(2), with (A, b) sampled per key."""
    return _gf2_family("affine", n, m, num_keys, seed, quadratic=False)


def uniform_random_family(n: int, m: int, num_keys: int = 4, seed: int = 0) -> HashFamily:
    """Each key is an independent uniformly random truth table."""
    rng = _key_rng(n, num_keys, seed)
    fns = []
    for k in range(num_keys):
        table = rng.integers(0, 2**m, size=2**n)
        fns.append(HashFunction(n=n, m=m, table=tuple(int(y) for y in table), key=k))
    return HashFamily(f"uniform_random[n={n},m={m}]", fns)


def degree2_family(n: int, m: int, num_keys: int = 4, seed: int = 0) -> HashFamily:
    """Random quadratic maps over GF(2): each output bit is a degree-2
    polynomial in the input bits.  Provided as a generic test subject; no
    hardness is claimed for it."""
    return _gf2_family("degree2", n, m, num_keys, seed, quadratic=True)


def _gf2_family(kind: str, n: int, m: int, num_keys: int, seed: int,
                quadratic: bool) -> HashFamily:
    """Per key, draw the linear, the quadratic (none unless ``quadratic``)
    and the constant terms; an empty draw uses no rng state."""
    rng = _key_rng(n, num_keys, seed)
    xs = np.arange(2**n, dtype=np.uint64)
    bits = ((xs[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.uint8)
    i, j = np.triu_indices(n, 1) if quadratic else ([], [])
    pair_terms = bits[:, i] & bits[:, j]  # x_i x_j for i < j, in row-major order
    fns = []
    for k in range(num_keys):
        lin = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        quad = rng.integers(0, 2, size=(m, len(i)), dtype=np.uint8)
        const = rng.integers(0, 2, size=m, dtype=np.uint8)
        out_bits = (bits @ lin.T + pair_terms @ quad.T + const) % 2
        table = (out_bits.astype(np.uint64) << np.arange(m, dtype=np.uint64)).sum(axis=1)
        fns.append(HashFunction(n=n, m=m, table=tuple(int(y) for y in table), key=k))
    return HashFamily(f"{kind}[n={n},m={m}]", fns)


def builtin_families(n: int, num_keys: int = 4, seed: int = 0) -> list[HashFamily]:
    """The five stock families at one input length, spanning injective,
    constant, regular, and generic behavior."""
    m = max(1, n - 1)
    return [
        identity_family(n),
        constant_family(n, n, num_keys=num_keys, seed=seed),
        affine_family(n, m, num_keys=num_keys, seed=seed + 1),
        uniform_random_family(n, m, num_keys=num_keys, seed=seed + 2),
        degree2_family(n, m, num_keys=num_keys, seed=seed + 3),
    ]


# -------------------------------------------------------------- collision finder

def _check_pair_range(law: JointDist, n: int) -> JointDist:
    """``law`` itself, once every outcome is checked to be a pair in ({0,1}^n)^2."""
    side = range(2**n)
    for x1, x2 in law.support():
        if x1 not in side or x2 not in side:
            raise ValueError(f"output pair {(x1, x2)!r} outside ({{0,1}}^{n})^2")
    return law


def preimage_set(h: HashFunction, y: int) -> tuple[int, ...]:
    """{x : h(x) = y}, sorted; empty tuple when y misses the image."""
    return h.fibers.get(y, ())


@lru_cache(maxsize=512)
def col_distribution(h: HashFunction) -> BlockLaw:
    """Exact law of Col(h): P(x1, x2) = 2^-n / |h^-1(h(x1))| on collisions,
    as one product block per fiber, uniform over it, of weight |fiber|."""
    return BlockLaw([(len(fiber), h.fiber_laws[y]) for y, fiber in h.fibers.items()],
                    denominator=2**h.n)


def col_sample(h: HashFunction, rng: np.random.Generator) -> tuple[int, int]:
    """One draw from Col(h): uniform x1, then uniform preimage of h(x1)."""
    x1 = int(rng.integers(2**h.n))
    fiber = preimage_set(h, h(x1))
    x2 = fiber[int(rng.integers(len(fiber)))]
    return x1, x2


# ------------------------------------------------------------------- adversaries

class Adversary:
    """A deterministic collision-search strategy driven by a finite tape.

    ``tape_space(h)`` is the size of the uniform tape space (it may depend
    on h so strategies like the Col sampler can index fibers exactly), and
    ``run`` maps (h, tape index) to an output pair.  ``run_tapes`` runs
    many tapes at once; a strategy may override it with array arithmetic,
    as long as it gives ``run``'s pair on every tape.  A strategy that
    knows its own output law returns it from ``exact_distribution``; the
    exact game then reads that law instead of counting tapes.
    """

    name = "adversary"

    def tape_space(self, h: HashFunction) -> int:
        raise NotImplementedError

    def run(self, h: HashFunction, tape: int) -> tuple[int, int]:
        raise NotImplementedError

    def run_tapes(self, h: HashFunction, tapes: range | np.ndarray) -> Iterable[tuple[int, int]]:
        """``run``'s pair on each of ``tapes``, a range or a 1-D int64
        array, in order: by default one ``run`` call per tape."""
        return map(self.run, repeat(h), _ints(tapes))

    def exact_distribution(self, h: HashFunction) -> JointDist | BlockLaw | None:
        return None


class ColAdversary(Adversary):
    """Plays the ideal finder exactly: the tape enumerates (x1, fiber slot)
    over a space whose size is a common multiple of all fiber sizes."""

    name = "ideal-col"

    def tape_space(self, h: HashFunction) -> int:
        return 2**h.n * h.fiber_lcm

    def run(self, h, tape):
        x1, slot = divmod(tape, h.fiber_lcm)
        fiber = preimage_set(h, h(x1))
        return x1, fiber[slot % len(fiber)]

    def run_tapes(self, h, tapes):
        """``run`` on an array of tapes: ``h.fibers`` laid end to end, each
        in sorted order, so slot s of x1's fiber is the input s mod |fiber|
        places after that fiber's start.  The fibers are read as inputs,
        never as output values, which need not fit a numpy integer."""
        fibers = h.fibers.values()
        order = np.fromiter(chain.from_iterable(fibers), dtype=np.int64, count=2**h.n)
        size = np.fromiter(map(len, fibers), dtype=np.int64, count=len(fibers))
        start = np.cumsum(size) - size
        fiber_of = np.empty_like(order)
        fiber_of[order] = np.repeat(np.arange(len(size)), size)
        x1, slot = np.divmod(np.asarray(tapes), h.fiber_lcm)
        y = fiber_of[x1]
        x2 = order[start[y] + slot % size[y]]
        return zip(x1.tolist(), x2.tolist())

    def exact_distribution(self, h):
        return col_distribution(h)


class FixedPairAdversary(Adversary):
    """Ignores both the tape and the function; outputs one fixed pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        self.name = f"fixed{pair}"

    def tape_space(self, h):
        return 1

    def run(self, h, tape):
        return self.pair


class DiagonalAdversary(Adversary):
    """Uniform x1 with x2 := x1 (always a trivial collision)."""

    name = "diagonal"

    def tape_space(self, h):
        return 2**h.n

    def run(self, h, tape):
        return tape, tape

    def run_tapes(self, h, tapes):
        tapes = _ints(tapes)
        return zip(tapes, tapes)


def _ints(tapes: range | np.ndarray) -> range | list[int]:
    """Tape indices as Python ints, as ``run`` takes them."""
    return tapes.tolist() if isinstance(tapes, np.ndarray) else tapes


def adversary_distribution(
    a: Adversary,
    h: HashFunction,
    mode: str = "exact",
    samples: int = 0,
    rng: np.random.Generator | None = None,
) -> JointDist | BlockLaw:
    """The adversary's output law on h.

    Exact mode returns ``a.exact_distribution(h)`` when the adversary
    supplies one, at any tape space and pair count: a ``BlockLaw`` for Col
    or a rewound law of disjoint blocks, else a ``JointDist``.  The test
    suite checks each such law against one ``run`` per tape.  Otherwise it
    counts the pairs of ``a.run_tapes`` over every tape, up to
    2^TAPE_CAP_BITS tapes, into a ``JointDist``.  Monte-Carlo mode returns
    the empirical distribution of ``samples`` <= 2^TAPE_CAP_BITS tapes.
    Tape spaces up to 2^63 draw all tapes in one ``rng.integers`` call and
    hand the distinct tapes, in order of first draw, to one ``a.run_tapes``
    call, each pair weighted by its tape's multiplicity; larger spaces draw
    one tape at a time and ``run`` it.  Either way the tapes, the rng's
    state afterwards and the law (its pair order included) are those of
    drawing and running one tape per sample.  Counted and sampled output
    pairs outside ({0,1}^n)^2 raise ``ValueError``.
    """
    if mode == "exact":
        law = a.exact_distribution(h)
        if law is not None:
            return law
        space = a.tape_space(h)
        if space > 2**TAPE_CAP_BITS:
            raise EnumerationCap(f"tape space {space} exceeds 2^{TAPE_CAP_BITS} and no analytic law given")
        counts: dict[tuple[int, int], int] = {}
        for out in a.run_tapes(h, range(space)):
            counts[out] = counts.get(out, 0) + 1
        return _check_pair_range(JointDist(counts, denominator=space), h.n)
    if mode == "monte-carlo":
        if rng is None or samples <= 0:
            raise ValueError("monte-carlo mode needs rng and samples")
        if samples > 2**TAPE_CAP_BITS:
            raise EnumerationCap(f"{samples} samples exceed 2^{TAPE_CAP_BITS}")
        space = a.tape_space(h)
        if space <= 2**63:
            tapes, first, reps = np.unique(rng.integers(space, size=samples),
                                           return_index=True, return_counts=True)
            order = np.argsort(first)
            drawn = zip(a.run_tapes(h, tapes[order]), reps[order].tolist())
        else:
            drawn = ((a.run(h, rng_bigint(rng, space)), 1) for _ in range(samples))
        counts = {}
        for out, c in drawn:
            counts[out] = counts.get(out, 0) + c
        return _check_pair_range(JointDist({pair: c / samples for pair, c in counts.items()}),
                                 h.n)
    raise ValueError(f"unknown mode {mode!r}")


def rng_bigint(rng: np.random.Generator, space: int) -> int:
    """Uniform draw from range(space) for spaces beyond int64."""
    nbits = space.bit_length() + 16
    while True:
        val = int.from_bytes(rng.bytes((nbits + 7) // 8), "big") % (1 << nbits)
        if val < (1 << nbits) // space * space:
            return val % space


# ------------------------------------------------------------------ game report

@dataclass
class GameReport:
    """Result of the distributional-collision game for one (family, adversary)."""

    distance: float
    mode: str = "exact"
    samples: int = 0
    ci_half_width: float = 0.0


def mc_ci_half_width(samples: int, support_size: int) -> float:
    """99% half-width for the empirical-TV estimate.

    McDiarmid controls deviation of the estimator from its mean
    (sqrt(ln(2/d)/2N)); the empirical-measure bias is bounded by
    (1/2) sqrt(k/N) for a law on k outcomes.  ``support_size`` is the k the
    caller observed (A(h)'s empirical support plus Col(h)'s support), not
    the true one, so the test suite checks the interval's coverage against
    exact game values.
    """
    delta = 1 - 0.99  # one minus the confidence, not 0.01: the floats differ
    return math.sqrt(math.log(2 / delta) / (2 * samples)) + 0.5 * math.sqrt(support_size / samples)


def dcrh_distance(
    family: HashFamily,
    a: Adversary,
    mode: str = "exact",
    samples: int = 0,
    rng: np.random.Generator | None = None,
) -> GameReport:
    """E_h TV(A(h), Col(h)) over the family's enumerated key space.

    In exact mode the value is re-derived from the joint law over (key,
    pair) — TV((h, A(h)), (h, Col(h))) — and the two routes must agree.
    The joint value is 1 - sum min(P, Q) over the shared outcomes, as
    integers over the lcm of all the per-key law denominators
    (``_joint_distance``), without building the joint laws.
    """
    laws = []
    distance = 0  # added key by key, left to right, on every Python version
    for h in family:
        adv = adversary_distribution(a, h, mode=mode, samples=samples, rng=rng)
        col = col_distribution(h)
        laws.append((adv, col))
        distance += stat_distance(adv, col)
    distance /= len(family)
    if mode == "exact":
        # Second route: TV between the joint laws of (key, pair), which the
        # conditional-expectation identity says equals the per-key average.
        joint = _joint_distance(laws)
        gap = abs(float(joint) - float(distance))
        if gap > 1e-12:
            raise AssertionError(f"joint and per-key game values disagree by {gap}")
        return GameReport(float(distance), "exact")
    support_size = max(len(adv.support()) + col.support_size() for adv, col in laws)
    return GameReport(float(distance), "monte-carlo",
                      samples=samples, ci_half_width=mc_ci_half_width(samples, support_size))


def _joint_distance(laws: Sequence[tuple]) -> Fraction:
    """TV((i, P_i), (i, Q_i)) for a uniform key index i over the exact law
    pairs ``laws[i] = (P_i, Q_i)``, each P_i a ``Dist`` or a ``BlockLaw``
    and each Q_i a ``BlockLaw`` (Col), as
    1 - sum_(i, x) min(P_i(x), Q_i(x)) / k.  With D the lcm of all 2k
    denominators, the joint law gives (i, x) the count p_ix * D / dP_i
    over k * D, so the sum of minima is one integer over k * D."""
    den = math.lcm(*(d.denominator for pair in laws for d in pair))
    common = 0
    for p, q in laws:
        sp, sq = den // p.denominator, den // q.denominator
        for m, a, b in _shared_counts(p, q):
            common += m * min(a * sp, b * sq)
    total = len(laws) * den
    return Fraction(total - common, total)
