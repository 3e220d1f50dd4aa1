"""Exact arithmetic over finite probability distributions.

An exact law stores one positive integer count per outcome over a single
integer denominator, reduced to lowest terms: outcome x has mass
``counts[x] / denominator``.  Every law in the lab is a count over a
finite uniform tape, so producers hand their counts and the tape size to
the constructor, validation is one integer sum, and distances and
mixtures of exact laws are integer sums over a common denominator.
``prob`` and ``items`` still give ``fractions.Fraction`` values, so exact
comparisons keep true equality.  64-bit float masses are accepted for
large sweeps and are validated to a 1e-9 tolerance instead.  Every float
law goes through one validating constructor: one sum, with the per-value
checks (tiny negatives clipped, NaNs and larger negatives rejected) only
when some mass is not positive or the sum is NaN.  ``Dist`` converts
caller masses to Python floats first; the marginals, conditionals and
mixtures derived from float laws already hold floats and skip only that
conversion, never the checks.  A joint law's rows are split once, giving
its first marginal and its conditionals together.  When either law of a
pair is float, the total variation distance and the divergence run over
plain floats: the exact side becomes one dict of ``count / denominator``
floats, and the mass dicts are read directly.  Float totals are added
left to right in explicit loops rather than by ``sum()``, which
compensates its rounding from Python 3.12 on, so a report holds the same
floats on every supported interpreter.

A law over pairs that is a mixture of products law (x) law with pairwise
disjoint supports, as Col(h) and every stock generator's rewound law are,
is held as those product blocks (``BlockLaw``): its first marginal, its
conditionals, its entropy and its distance to another exact law are read
off the blocks without the pairs, which are built only for a distance to
a float law.  Blocks may not share an outcome: a rewound law whose blocks
overlap is a ``JointDist``.  A law hashes once and keeps its hash.

A law's outcomes are its support: there is no separately declared
outcome set, so the total variation distance runs over the union of the
two supports and the divergence over the first law's support.

All logarithms are base 2; entropies are in bits.  The conventions
``0*log(0) = 0`` and ``D(p||q) = +inf`` whenever ``supp(p)`` is not
contained in ``supp(q)`` are applied throughout.
"""

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

Outcome = Hashable
Number = Fraction | float

LN2 = math.log(2.0)
FLOAT_TOL = 1e-9


class SupportError(ValueError):
    """An outcome outside the support was used where mass is required."""


def _log2_reduced(n: int, d: int) -> float:
    if n == 1 and d & (d - 1) == 0:
        return -float(d.bit_length() - 1)
    if d == 1 and n > 0 and n & (n - 1) == 0:
        return float(n.bit_length() - 1)
    return math.log2(n) - math.log2(d)


@lru_cache(maxsize=4096)
def _log2_ratio(n: int, d: int) -> float:
    """log2(n / d) for positive ints, taken on the reduced fraction, so a
    ratio that reduces to a power of two gives an exact integer.  Entropy
    sums call it millions of times on a few hundred distinct arguments, so
    each argument's log is memoized; a zero n raises and is not cached."""
    g = math.gcd(n, d)
    return _log2_reduced(n // g, d // g)


def _is_exact(values: Iterable[Number]) -> bool:
    return all(map(isinstance, values, repeat((Fraction, int))))


def _common_denominator(mass: Mapping[Outcome, Number]) -> tuple[dict, int]:
    """Rational masses as integer counts over the lcm of their denominators."""
    den = math.lcm(*(p.denominator for p in mass.values()))
    return {x: p.numerator * (den // p.denominator) for x, p in mass.items()}, den


class Dist:
    """An immutable probability distribution over a finite support.

    ``mass`` maps outcomes to probabilities; outcomes missing from the
    mapping have probability zero, and the outcomes of positive mass are
    the law's whole outcome set.  With ``denominator`` given, ``mass``
    holds non-negative integer counts and outcome x has probability
    ``mass[x] / denominator``; this is how every exact law in the lab is
    built.
    """

    __slots__ = ("_mass", "_den", "_hash")

    def __init__(self, mass: Mapping[Outcome, Number], denominator: int | None = None):
        if denominator is None and not _is_exact(mass.values()):
            clean = _checked_floats(dict(zip(mass, map(float, mass.values()))))
        else:
            if denominator is None:
                mass, denominator = _common_denominator(mass)
            clean, denominator = _reduced_counts(mass, denominator)
        self._mass = clean
        self._den = denominator
        self._hash = None

    @classmethod
    def uniform(cls, outcomes: Iterable[Outcome]) -> "Dist":
        items = tuple(outcomes)
        counts = {x: 1 for x in items}
        if len(counts) != len(items):
            seen = set()
            repeated = next(x for x in items if x in seen or seen.add(x))
            raise ValueError(f"outcome {repeated!r} is repeated in a uniform law")
        return cls(counts, denominator=len(items))

    @classmethod
    def point(cls, x: Outcome) -> "Dist":
        return cls({x: 1}, denominator=1)

    @property
    def exact(self) -> bool:
        return self._den is not None

    @property
    def denominator(self) -> int | None:
        """The common denominator of an exact law's counts (None for floats)."""
        return self._den

    @property
    def counts(self) -> Mapping[Outcome, int]:
        """Read-only view of an exact law's integer counts, in insertion order."""
        if self._den is None:
            raise TypeError("a float law has no integer counts")
        return MappingProxyType(self._mass)

    def prob(self, x: Outcome) -> Number:
        if self._den is None:
            return self._mass.get(x, 0.0)
        return Fraction(self._mass.get(x, 0), self._den)

    def support(self) -> tuple:
        return tuple(self._mass)

    def items(self):
        """(outcome, mass) pairs in insertion order; masses of an exact law
        are ``Fraction``s made on the fly."""
        if self._den is None:
            return self._mass.items()
        den = self._den
        return ((x, Fraction(c, den)) for x, c in self._mass.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        if self._den is not None and other._den is not None:
            return self._den == other._den and self._mass == other._mass
        return dict(self.items()) == dict(other.items())

    def __hash__(self):
        """Taken on first use and kept: grouping coins by the law they
        induce hashes one shared law once, not once per coin."""
        if self._hash is None:
            self._hash = self._mass_hash()
        return self._hash

    def _mass_hash(self) -> int:
        if self._den is None:
            return hash(frozenset(self._mass.items()))
        # Fraction(c, d) hashes to c * d^-1 modulo the numeric-hash prime, so
        # one inverse of the denominator yields every outcome's Fraction hash:
        # an exact law hashes as its Fraction-valued mapping (and as an equal
        # float law) would.
        modulus = sys.hash_info.modulus
        try:
            inverse = pow(self._den, -1, modulus)
        except ValueError:
            return hash(frozenset(self.items()))
        return hash(frozenset((x, c * inverse % modulus) for x, c in self._mass.items()))

    def __repr__(self):
        kind = "float" if self._den is None else "exact"
        return f"Dist({len(self._mass)} outcomes, {kind})"


def _checked_floats(mass: dict) -> dict:
    """Validate a dict of Python float masses: one sum, and the per-value
    checks only when some mass is not positive or the sum is NaN."""
    total = sum(mass.values())
    if total != total or min(mass.values()) <= 0:
        mass = _positive_floats(mass)
        total = sum(mass.values())
    if abs(total - 1.0) > FLOAT_TOL:
        raise ValueError(f"masses sum to {total}, not 1 within {FLOAT_TOL}")
    return mass


def _float_law(mass: dict) -> Dist:
    """A float Dist over ``mass``, whose values are already Python floats:
    validated as ``Dist(mass)`` would be, without its type scan and copy."""
    law = Dist.__new__(Dist)
    law._mass = _checked_floats(mass)
    law._den = None
    law._hash = None
    return law


def _positive_floats(mass: dict) -> dict:
    """Float masses without their zeros; tiny negatives are clipped to zero,
    and NaNs and larger negatives are rejected."""
    clean = {}
    for x, p in mass.items():
        if p != p:
            raise ValueError(f"NaN mass at {x!r}")
        if p < 0:
            if p < -FLOAT_TOL:
                raise ValueError(f"negative mass {p} at {x!r}")
            p = 0.0
        if p > 0:
            clean[x] = p
    return clean


def _reduced_counts(counts: Mapping[Outcome, int], den: int) -> tuple[dict, int]:
    """Validate integer counts over ``den`` and reduce them to lowest terms."""
    clean = dict(counts)
    values = clean.values()
    if clean and min(values) <= 0:
        if min(values) < 0:
            bad = next(x for x, c in clean.items() if c < 0)
            raise ValueError(f"negative mass {Fraction(clean[bad], den)} at {bad!r}")
        clean = {x: c for x, c in clean.items() if c}
        values = clean.values()
    total = sum(values)
    if den <= 0 or total != den:
        raise ValueError(f"masses sum to {total}/{den}, not 1")
    g = math.gcd(den, *values)
    if g > 1:
        clean = {x: c // g for x, c in clean.items()}
        den //= g
    return clean, den


class JointDist(Dist):
    """A Dist over ordered pairs, with marginal and conditional accessors."""

    def __init__(self, mass: Mapping[tuple, Number], denominator: int | None = None):
        if not (all(map(isinstance, mass, repeat(tuple))) and {*map(len, mass)} <= {2}):
            raise ValueError("JointDist outcomes must be pairs")
        super().__init__(mass, denominator=denominator)

    def marginal(self, coord: int) -> Dist:
        out: dict[Outcome, Number] = {}
        for xy, p in self._mass.items():
            out[xy[coord]] = out.get(xy[coord], 0) + p
        if self._den is None:
            return _float_law(out)
        return Dist(out, denominator=self._den)

    def marginal_and_conditionals(self) -> tuple[Dist, dict[Outcome, Dist]]:
        """``marginal(0)`` and {x: law of the second coordinate given the
        first == x} for every x of positive mass, in first-occurrence order,
        from one pass that splits the joint law into its rows.  Each row
        total is added in the joint's insertion order starting from 0, as
        ``marginal(0)`` adds it, so the first law is ``marginal(0)`` bit for
        bit."""
        rows: dict[Outcome, dict] = {}
        for (x, y), p in self._mass.items():
            rows.setdefault(x, {})[y] = p
        den = self._den
        totals = {}
        laws = {}
        for x, row in rows.items():
            total = 0
            for p in row.values():
                total += p
            totals[x] = total
            if den is None:
                laws[x] = _float_law({y: p / total for y, p in row.items()})
            else:
                laws[x] = Dist(row, denominator=total)
        first = _float_law(totals) if den is None else Dist(totals, denominator=den)
        return first, laws


class BlockLaw:
    """An exact law over pairs held as product blocks.

    Block g is a weight w_g (an int; the weights sum to ``denominator``)
    and an exact law L_g.  It carries mass w_g / denominator spread as
    L_g (x) L_g over supp(L_g)^2, so (x1, x2) gets w_g L_g(x1) L_g(x2) /
    denominator from it.  The supports are pairwise disjoint (blocks that
    share an outcome are refused), so x1 lies in one block and its
    conditional law is that block's law, and the law is read in
    O(sum |supp L_g|) without its sum |supp L_g|^2 pairs.

    Rows, masses and pairs keep the order of the materialized law: blocks
    in order, each block's outcomes in its law's order.  So the first
    marginal and the conditionals are, in value and in insertion order,
    those of ``joint().marginal_and_conditionals()``.
    """

    __slots__ = ("_blocks", "_den", "_rows", "_marginal", "_joint")

    exact = True

    def __init__(self, blocks: Iterable[tuple[int, Dist]], denominator: int):
        self._blocks, self._den = _scaled_blocks(blocks, denominator)
        # x1 -> (pair count of the row x1, conditional law of x2 given x1).
        self._rows = {x1: (s * c * law._den, law)
                      for s, law in self._blocks for x1, c in law._mass.items()}
        if len(self._rows) < sum(len(law._mass) for _, law in self._blocks):
            raise ValueError("blocks share an outcome")
        self._marginal = self._joint = None

    @property
    def denominator(self) -> int:
        """The common denominator of the pair counts (not in lowest terms)."""
        return self._den

    def marginal_and_conditionals(self) -> tuple[Dist, dict[Outcome, Dist]]:
        """The law of x1, and {x1: law of x2 given x1}; the x1 of one
        product block share its law object."""
        if self._marginal is None:
            self._marginal = Dist({x1: t for x1, (t, _) in self._rows.items()},
                                  denominator=self._den)
        return self._marginal, {x1: law for x1, (_, law) in self._rows.items()}

    def support_size(self) -> int:
        """The number of pairs of positive mass."""
        return sum(len(law._mass) for _, law in self._rows.values())

    def joint(self) -> JointDist:
        """The law as one dict of pairs, built once and kept."""
        if self._joint is None:
            self._joint = JointDist(_pair_counts(self._blocks), denominator=self._den)
        return self._joint

    def __eq__(self, other) -> bool:
        if isinstance(other, BlockLaw):
            other = other.joint()
        if not isinstance(other, Dist):
            return NotImplemented
        return self.joint() == other


def _scaled_blocks(blocks: Iterable[tuple[int, Dist]], denominator: int) -> tuple[list, int]:
    """Validated blocks (w_g, L_g) as (s_g, L_g): pair counts s_g c(x1) c(x2)
    over denominator * lcm(d_g^2), with the scales' common factor divided out."""
    blocks = list(blocks)
    if not blocks or not all(isinstance(w, int) and w > 0 and law.exact for w, law in blocks):
        raise ValueError("a block law needs blocks of positive int weights and exact laws")
    if sum(w for w, _ in blocks) != denominator:
        raise ValueError(f"block weights do not sum to {denominator}")
    lcm = math.lcm(*(law._den**2 for _, law in blocks))
    scales = [w * (lcm // law._den**2) for w, law in blocks]
    g = math.gcd(denominator * lcm, *scales)
    return [(s // g, law) for s, (_, law) in zip(scales, blocks)], denominator * lcm // g


def _pair_counts(blocks: Iterable[tuple[int, Dist]]) -> dict:
    """{(x1, x2): sum of s c(x1) c(x2)} over scaled blocks (s, law), in
    block order: the one place the pairs of blocks are materialized."""
    mass: dict[tuple, int] = {}
    for s, law in blocks:
        counts = law._mass.items()
        for x1, c1 in counts:
            w1 = s * c1
            for x2, c2 in counts:
                key = (x1, x2)
                mass[key] = mass.get(key, 0) + w1 * c2
    return mass


def _shared_counts(p, q: BlockLaw):
    """(m, a, b) over the outcomes in both supports of an exact law ``p``,
    a ``Dist`` or a ``BlockLaw``, and a ``BlockLaw`` ``q``: m outcomes of
    count a over p's denominator and count b over q's.  Two block laws are
    read row by row: the x1 whose rows hold the same two conditional law
    objects at the same scales are taken together, and the x2 of each such
    pair of laws are bucketed by their two counts, so the cost is the
    number of rows plus, per pair of laws, their supports."""
    rows = q._rows
    if not isinstance(p, BlockLaw):
        for (x1, x2), a in p._mass.items():
            row = rows.get(x1)
            if row is not None:
                t, law = row
                c = law._mass.get(x2)
                if c:
                    yield 1, a, t // law._den * c
        return
    groups: dict[tuple, list] = {}
    for x1, (tp, lp) in p._rows.items():
        row = rows.get(x1)
        if row is not None:
            tq, lq = row
            key = (id(lp), id(lq), tp // lp._den, tq // lq._den)
            group = groups.get(key)
            if group is None:
                groups[key] = [1, lp, lq]
            else:
                group[0] += 1
    buckets: dict[tuple, list] = {}
    for (ip, iq, kp, kq), (count, lp, lq) in groups.items():
        shared = buckets.get((ip, iq))
        if shared is None:
            qm = lq._mass
            found: dict[tuple, int] = {}
            for x2, u in lp._mass.items():
                v = qm.get(x2)
                if v:
                    found[u, v] = found.get((u, v), 0) + 1
            shared = buckets[ip, iq] = list(found.items())
        for (u, v), m in shared:
            yield count * m, kp * u, kq * v


def _block_distance(p, q) -> Fraction:
    """Total variation of two exact laws at least one of which is a
    ``BlockLaw``: the integer L1 of the shared outcomes, plus each law's
    mass outside them, over 2 * dp * dq."""
    if not isinstance(q, BlockLaw):
        p, q = q, p
    dp, dq = p.denominator, q.denominator
    l1 = in_p = in_q = 0
    for m, a, b in _shared_counts(p, q):
        l1 += m * abs(a * dq - b * dp)
        in_p += m * a
        in_q += m * b
    return Fraction(l1 + (dp - in_p) * dq + (dq - in_q) * dp, 2 * dp * dq)


def _block_entropy(p: BlockLaw) -> float:
    """H(X1, X2) = H(w) + 2 sum_g w_g H(L_g) over the product blocks."""
    den = p._den
    total = 0.0
    for s, law in p._blocks:
        mass = s * law._den**2
        total += mass / den * -_log2_ratio(mass, den)
        total += 2 * (mass / den) * shannon_entropy(law)
    return total


def _float_masses(d: Dist) -> dict:
    """The law's masses as a dict of floats; ``c / den`` on ints is the
    correctly rounded float of the Fraction ``c/den``."""
    if d._den is None:
        return d._mass
    den = d._den
    return {x: c / den for x, c in d._mass.items()}


def stat_distance(p: Dist | BlockLaw, q: Dist | BlockLaw) -> Number:
    """Total variation distance (1/2) * sum_x |p(x) - q(x)| over the union
    of the two supports.  A ``BlockLaw`` is read by its blocks, against an
    exact law, and by its pairs against a float one."""
    if isinstance(p, BlockLaw) or isinstance(q, BlockLaw):
        if p.exact and q.exact:
            return _block_distance(p, q)
        p = p.joint() if isinstance(p, BlockLaw) else p
        q = q.joint() if isinstance(q, BlockLaw) else q
    if p.exact and q.exact:
        # (1/2) sum |a/dp - b/dq| = sum |a*dq - b*dp| / (2*dp*dq); outcomes
        # of q outside supp(p) contribute dp * (dq - mass of q on supp(p)).
        pm, qm, dp, dq = p._mass, q._mass, p._den, q._den
        l1 = 0
        shared = 0
        for x, a in pm.items():
            b = qm.get(x, 0)
            shared += b
            l1 += abs(a * dq - b * dp)
        return Fraction(l1 + (dq - shared) * dp, 2 * dp * dq)
    pm, qm = _float_masses(p), _float_masses(q)
    total = 0.0
    for x in set(p.support()) | set(q.support()):
        total += abs(pm.get(x, 0.0) - qm.get(x, 0.0))
    return total / 2


def shannon_entropy(p: Dist | BlockLaw) -> float:
    """H(p) = -sum p(x) log2 p(x) in bits, with 0*log(0) = 0."""
    if isinstance(p, BlockLaw):
        return _block_entropy(p)
    total = 0.0
    if p.exact:
        den = p._den
        for c in p._mass.values():
            total += c / den * -_log2_ratio(c, den)
        return total
    for px in p._mass.values():
        total += px * -math.log2(px)
    return total


def cond_entropy(j: JointDist) -> float:
    """H(X | Y) = H(X, Y) - H(Y) for a joint law over (x, y) pairs."""
    return shannon_entropy(j) - shannon_entropy(j.marginal(1))


def _context_entropy(laws: list[Dist]) -> float:
    """H(Y | C) for a context C uniform over the positions of ``laws`` and Y
    drawn from laws[C]: bit for bit ``cond_entropy`` of the joint law of
    (y, C), whose count at (y, C) is c * lcm / d, streamed in that law's
    order without building it.  Its counts share the factor g = gcd of
    the lcm / d, and each context's reduced mass is 1 / len(laws).  The
    terms of one law are found once and added once per context using it."""
    contexts = len(laws)
    lcm = math.lcm(*(law._den for law in laws))
    g = math.gcd(*(lcm // law._den for law in laws))
    den = contexts * (lcm // g)
    terms: dict[int, list[float]] = {}  # by law object
    joint = 0.0
    for law in laws:
        row = terms.get(id(law))
        if row is None:
            scale = lcm // law._den // g
            row = terms[id(law)] = [c * scale / den * -_log2_ratio(c * scale, den)
                                for c in law._mass.values()]
        for term in row:
            joint += term
    term = 1 / contexts * -_log2_ratio(1, contexts)
    context = 0.0
    for _ in range(contexts):
        context += term
    return joint - context


def kl_divergence(p: Dist, q: Dist) -> float:
    """D(p || q) in bits; +inf when supp(p) is not inside supp(q)."""
    total = 0.0
    if p.exact and q.exact:
        qm, dp, dq = q._mass, p._den, q._den
        for x, a in p._mass.items():
            b = qm.get(x)
            if not b:
                return math.inf
            total += a / dp * _log2_ratio(a * dq, b * dp)
        return total
    qm, log2 = _float_masses(q), math.log2
    for x, px in _float_masses(p).items():
        qx = qm.get(x)
        if qx is None:
            return math.inf
        total += px * log2(px / qx)
    return total


def kl_chain_rule_check(pj: JointDist, qj: JointDist) -> tuple[float, float]:
    """Both sides of D(pj||qj) = D(p1||q1) + E_{x<-p1} D(p2|x || q2|x).

    The left side sums over pairs directly; the right side decomposes into
    marginal and conditional divergences, so the two are independent
    computations of the same quantity.
    """
    lhs = kl_divergence(pj, qj)
    if math.isinf(lhs):
        return math.inf, math.inf
    p1, p_given = pj.marginal_and_conditionals()
    q1, q_given = qj.marginal_and_conditionals()
    rhs = kl_divergence(p1, q1)
    for x, px in p1.items():
        rhs += float(px) * kl_divergence(p_given[x], q_given[x])
    return lhs, rhs


def pinsker_check(p: Dist, q: Dist) -> tuple[float, float]:
    """(tv, bound) with bound = sqrt((ln 2 / 2) * D(p||q)), D in bits.

    The ln 2 factor converts the divergence to nats so the classical
    inequality tv <= sqrt(D_nats / 2) is reproduced verbatim.
    """
    tv = float(stat_distance(p, q))
    kl = kl_divergence(p, q)
    bound = math.inf if math.isinf(kl) else math.sqrt(LN2 / 2 * kl)
    return tv, bound


def jensen_log2_check(values: Iterable[float]) -> tuple[float, float]:
    """(E[log2 X], log2 E[X]) for positive samples, uniformly weighted;
    concavity gives <=.  An empty input, and any sample that is not > 0
    (NaN included), is rejected."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    if not all(v > 0 for v in vals):
        raise ValueError("samples must be positive")
    w = 1.0 / len(vals)
    e_log = mean = 0.0
    for v in vals:
        e_log += w * math.log2(v)
        mean += w * v
    return e_log, math.log2(mean)


def mixture(components: Iterable[tuple[Number, Dist]]) -> Dist:
    """Convex combination of distributions; weights must be non-negative
    and sum to 1.  Weights that are all ints or Fractions over exact laws
    give an exact law; any other mixture is a float law."""
    components = list(components)
    for w, _ in components:
        if w < 0:
            raise ValueError(f"negative mixture weight {w}")
    mass: dict[Outcome, Number] = {}
    if all(isinstance(w, (int, Fraction)) and d.exact for w, d in components):
        # Rational weights over exact laws: integer counts over the lcm of
        # the products weight denominator * law denominator.
        den = math.lcm(*(w.denominator * d._den for w, d in components))
        for w, d in components:
            scale = w.numerator * (den // (w.denominator * d._den))
            for x, c in d._mass.items():
                mass[x] = mass.get(x, 0) + scale * c
        return Dist(mass, denominator=den)
    for w, d in components:
        for x, p in d.items():
            mass[x] = mass.get(x, 0) + w * p
    return _float_law(dict(zip(mass, map(float, mass.values()))))
