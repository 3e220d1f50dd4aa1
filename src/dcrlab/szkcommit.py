"""A constant-round hiding commitment built from a hard promise problem,
with its hiding and binding arguments checked by exhaustive enumeration.

Ingredients (all desk-scale):

* a promise problem over function tables: YES instances are lossy tables
  (every occupied output has a fiber of size >= 2 containing both
  plaintext bits, with a measured plaintext imbalance), NO instances are
  injective tables; the sampler derives an instance deterministically from
  an n-bit coin string;
* an instance-dependent commitment: commit(b; r) = g_x(b || r), perfectly
  binding on NO instances, hiding to a measured epsilon on YES instances;
* an ideal statement-verdict proof for the preamble consistency claim, and
  an ideal ledger for the receiver's coin shares, so the binding hybrids
  bridge their stages with zero slack.

Protocol for one message bit m: the receiver commits to 2n coin shares
rho_{i,b}, the sender returns sigma_{i,b}, instances are sampled from
r = rho xor sigma, the receiver proves one column consistent, and the
sender XOR-shares m across 2n instance-dependent commitments.

The hiding analysis factors over slots.  A deterministic receiver's
message in slot s depends on the sender's coins only through sigma_s
(r_s = rho_s xor sigma_s feeds the sampler, and a substitution sees only
the slot and the honest instance), so every per-slot fact a preamble
needs -- the sent instance, its label, its epsilon, whether it matches
the sampler -- takes one of 2^n values.  ``hiding_experiment`` computes
those 2n rows once, keeps each as {(label, epsilon, match): multiplicity}
over the 2^n share values, and walks the product of the rows; the
verdict, admissibility and view distance of a preamble are the same
functions of its per-slot facts that a full session applies, so each
distinct combination of facts stands for all the preambles it weighs.

The binding analysis factors over slots too.  Given the cheating sender's
tape, slot j's sent instance depends only on that slot's coins (rho_j,
and the fresh share where a hybrid or the decider plants an instance),
and the sender's second opening re-opens at most the one slot it names.
A slot therefore enters only through the pair (its instance matches the
sampler, its commitment opens to the other bit), and the event "the
proof verdict holds and the named slot re-opens validly" is a function
of those pairs.  ``hybrid_experiment``, ``break_probability`` and
``decider_advantage`` count each slot's pairs over its coins and weight
every combination of pairs by the product of their counts, which equals
running one session per coin tuple.  Both analyses walk their rows
through ``_fact_combinations``.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from dcrlab.probkit import Dist, stat_distance

YES, NO, OUTSIDE = "yes", "no", "outside"

TOL = 1e-9


class ProtocolError(RuntimeError):
    """A session was driven outside its phase contract."""


# ------------------------------------------------------------- promise problem

@dataclass(frozen=True)
class Instance:
    """A total function g : {0,1}^(1+k) -> {0,1}^out_bits as a table."""

    k: int
    out_bits: int
    table: tuple[int, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The table is hashed once per object, not on every cache lookup."""
        return hash((self.k, self.out_bits, self.table))

    def commit(self, bit: int, coins: int) -> int:
        return self.table[(bit << self.k) | coins]

    def fibers(self) -> dict[int, list[tuple[int, int]]]:
        """output value -> list of (bit, coins) preimages."""
        out: dict[int, list[tuple[int, int]]] = {}
        for idx, value in enumerate(self.table):
            out.setdefault(value, []).append((idx >> self.k, idx & (2**self.k - 1)))
        return out


@lru_cache(maxsize=None)
def idc_epsilon(inst: Instance) -> Fraction:
    """Exact hiding distance of the instance-dependent commitment:
    TV between g(0 || uniform) and g(1 || uniform)."""
    zero = Dist.from_counts(_count_values(inst, 0), domain=range(2**inst.out_bits))
    one = Dist.from_counts(_count_values(inst, 1), domain=range(2**inst.out_bits))
    return stat_distance(zero, one)


def _count_values(inst: Instance, bit: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for r in range(2**inst.k):
        v = inst.commit(bit, r)
        counts[v] = counts.get(v, 0) + 1
    return counts


def idc_verify(inst: Instance, commit_value: int, bit: int, coins: int) -> bool:
    """Canonical verification: replay the commit computation."""
    if not (0 <= bit <= 1 and 0 <= coins < 2**inst.k):
        return False
    return inst.commit(bit, coins) == commit_value


def idc_equivocation(inst: Instance, commit_value: int, bit: int) -> int | None:
    """Coins opening ``commit_value`` to ``bit``, or None when impossible."""
    for r in range(2**inst.k):
        if inst.commit(bit, r) == commit_value:
            return r
    return None


class TablePromiseProblem:
    """(Pi_Y, Pi_N) over function tables, with a deterministic sampler.

    The sampler reads an n-bit coin string: the low ``yes_bits`` choose the
    class (YES iff they fall below ``yes_num``, so the YES rate is exactly
    yes_num / 2^yes_bits), the rest seed the table construction.  YES
    tables are built by pairing fibers across the two plaintext halves and
    then applying a bounded number of imbalance moves, so every fiber keeps
    at least one preimage of each bit and the measured epsilon stays at or
    below ``balance_tol``.  NO tables are injective.
    """

    def __init__(self, k: int = 4, out_bits_choices: Sequence[int] = (2, 3, 4, 5, 6),
                 yes_num: int = 1, yes_bits: int = 1,
                 balance_tol: Fraction | None = None, salt: int = 0):
        self.k = k
        self.out_bits_choices = tuple(out_bits_choices)
        self.no_choices = tuple(m for m in self.out_bits_choices if 2**m >= 2 ** (1 + k))
        if not self.no_choices:
            raise ValueError("no injective-capable output width in the choices")
        if not 0 < yes_num <= 2**yes_bits:
            raise ValueError("yes rate must be in (0, 1]")
        self.yes_num = yes_num
        self.yes_bits = yes_bits
        self.balance_tol = Fraction(1, 4) if balance_tol is None else Fraction(balance_tol)
        self.salt = salt
        self._cache: dict[tuple[int, int], Instance] = {}
        self._labels: dict[Instance, str] = {}

    @property
    def yes_rate(self) -> Fraction:
        return Fraction(self.yes_num, 2**self.yes_bits)

    # -- classification ----------------------------------------------------

    def classify(self, inst: Instance) -> str:
        if inst in self._labels:
            return self._labels[inst]
        fibers = inst.fibers()
        if all(len(members) == 1 for members in fibers.values()):
            label = NO
        else:
            lossy = all(len(members) >= 2 for members in fibers.values())
            both_bits = all(
                {b for b, _ in members} == {0, 1} for members in fibers.values()
            )
            if lossy and both_bits and idc_epsilon(inst) <= self.balance_tol:
                label = YES
            else:
                label = OUTSIDE
        self._labels[inst] = label
        return label

    # -- sampling ----------------------------------------------------------

    def sample(self, coins: int, coin_bits: int) -> Instance:
        """Deterministic instance for one coin string."""
        if coin_bits < self.yes_bits:
            raise ValueError("coin string shorter than the class selector")
        if not 0 <= coins < 2**coin_bits:
            raise ValueError("coins outside the declared space")
        key = (coins, coin_bits)
        if key in self._cache:
            return self._cache[key]
        want_yes = (coins & (2**self.yes_bits - 1)) < self.yes_num
        rng = np.random.default_rng((self.salt, coin_bits, coins))
        inst = self._build_yes(rng) if want_yes else self._build_no(rng)
        label = self.classify(inst)
        expected = YES if want_yes else NO
        if label != expected:
            raise AssertionError(f"constructed a {label} table while aiming for {expected}")
        self._cache[key] = inst
        return inst

    def _build_no(self, rng) -> Instance:
        out_bits = int(rng.choice(self.no_choices))
        table = rng.choice(2**out_bits, size=2 ** (1 + self.k), replace=False)
        return Instance(self.k, out_bits, tuple(int(v) for v in table))

    def _build_yes(self, rng) -> Instance:
        out_bits = int(rng.choice(self.out_bits_choices))
        half = 2**self.k
        groups = int(rng.integers(1, min(2**out_bits, half) + 1))
        part0 = _random_partition(rng, half, groups)
        part1 = [list(part) for part in part0]
        # Each move changes the imbalance by at most 1/2^k, so a budget of
        # balance_tol * 2^k moves keeps the measured epsilon within tolerance.
        max_moves = int(self.balance_tol * half)
        if groups > 1 and max_moves > 0:
            for _ in range(int(rng.integers(0, max_moves + 1))):
                src, dst = (int(v) for v in rng.choice(groups, size=2, replace=False))
                if len(part1[src]) > 1:
                    part1[dst].append(part1[src].pop())
        outputs = rng.permutation(2**out_bits)[:groups]
        table = [0] * (2 * half)
        for g in range(groups):
            for r in part0[g]:
                table[r] = int(outputs[g])
            for r in part1[g]:
                table[half + r] = int(outputs[g])
        return Instance(self.k, out_bits, tuple(table))


def _random_partition(rng, total: int, groups: int) -> list[list[int]]:
    """Split range(total) into ``groups`` nonempty lists."""
    order = [int(v) for v in rng.permutation(total)]
    if groups == 1:
        return [order]
    cuts = sorted(int(c) + 1 for c in rng.choice(total - 1, size=groups - 1, replace=False))
    parts = []
    prev = 0
    for cut in cuts + [total]:
        parts.append(order[prev:cut])
        prev = cut
    return parts


# ------------------------------------------------------------ ideal WI verdict

def sampler_matches(ledger: dict, sigma: dict, sent: dict, problem: TablePromiseProblem,
                    n: int) -> list[bool]:
    """Per slot, in ``slot_list`` order: does the sent instance match the
    sampler on the committed-and-revealed coins?"""
    return [sent[slot] == problem.sample(ledger[slot] ^ sigma[slot], n) for slot in slot_list(n)]


def wi_statement_true(matches: Sequence[bool]) -> bool:
    """The statement the ideal proof evaluates and whose verdict alone it
    reveals: there is a column b whose every sent instance matches the
    sampler.  ``matches`` is in ``slot_list`` order, so slot (i, b) sits
    at index 2i + b and column b is ``matches[b::2]``."""
    return all(matches[0::2]) or all(matches[1::2])


# ------------------------------------------------------------ protocol session

def slot_list(n: int) -> list[tuple[int, int]]:
    """The 2n slots (i, b) in message order."""
    return [(i, b) for i in range(n) for b in (0, 1)]


class ProtocolSession:
    """One execution of the commitment protocol, phase by phase.

    The session is a single-owner state machine; experiments drive it with
    explicit coin values so whole coin spaces can be enumerated.  Messages
    are recorded as (phase, index, payload) triples.
    """

    def __init__(self, n: int, problem: TablePromiseProblem):
        self.n = n
        self.problem = problem
        self.slots = slot_list(n)
        self.phase = "coin-toss"
        self.ledger: dict = {}
        self.sigma: dict = {}
        self.r: dict = {}
        self.instances: dict = {}
        self.wi_verdict: bool | None = None
        self.shares: dict | None = None
        self.idc_coins: dict | None = None
        self.commits: dict = {}
        self.transcript: list[tuple[str, int, object]] = []

    def _record(self, phase: str, index: int, payload) -> None:
        self.transcript.append((phase, index, payload))

    def _need_phase(self, expected: str) -> None:
        if self.phase != expected:
            raise ProtocolError(f"expected phase {expected}, session is in {self.phase}")

    def coin_toss_phase(self, rho: dict, sigma: dict) -> "ProtocolSession":
        """Receiver commits its coin shares on the ideal ledger, sender
        reveals its own; the receiver-side joint coins r = rho xor sigma are
        fixed here."""
        self._need_phase("coin-toss")
        self.sigma = dict(sigma)
        for idx, slot in enumerate(self.slots):
            self.ledger[slot] = rho[slot]
            self._record("coin-toss", idx, ("sbc", slot))
        for idx, slot in enumerate(self.slots):
            self._record("coin-toss", len(self.slots) + idx, sigma[slot])
            self.r[slot] = rho[slot] ^ sigma[slot]
        self.phase = "instance-gen"
        return self

    def instance_gen_phase(self, substitutions: dict | None = None) -> "ProtocolSession":
        """Receiver sends the sampled instances (with optional adversarial
        or experiment-driven substitutions) and proves one column
        consistent; the verdict-only proof reveals nothing else."""
        self._need_phase("instance-gen")
        substitutions = substitutions or {}
        for idx, slot in enumerate(self.slots):
            honest = self.problem.sample(self.r[slot], self.n)
            self.instances[slot] = substitutions.get(slot, honest)
            self._record("instance-gen", idx, self.instances[slot])
        self.wi_verdict = wi_statement_true(sampler_matches(
            self.ledger, self.sigma, self.instances, self.problem, self.n))
        self._record("instance-gen", len(self.slots), self.wi_verdict)
        self.phase = "commit" if self.wi_verdict else "done"
        return self

    def commit_phase(self, m: int | None = None, share_seed: int = 0,
                     shares: dict | None = None,
                     idc_coins: dict | None = None) -> "ProtocolSession":
        """Sender XOR-shares the plaintext over the 2n instance-dependent
        commitments.  Honest use passes m and a share seed; adversarial
        senders pass explicit shares."""
        self._need_phase("commit")
        if shares is None:
            if m is None:
                raise ProtocolError("either m or explicit shares are required")
            shares = derive_shares(m, share_seed, self.slots)
        self.shares = dict(shares)
        if m is not None and xor_all(self.shares.values()) != m:
            raise ProtocolError("shares do not reconstruct the plaintext")
        self.idc_coins = idc_coins or {slot: 0 for slot in self.slots}
        for idx, slot in enumerate(self.slots):
            value = self.instances[slot].commit(self.shares[slot], self.idc_coins[slot])
            self.commits[slot] = value
            self._record("commit", idx, value)
        self.phase = "open"
        return self

    def open_phase(self, opening: dict | None = None) -> dict:
        """Reveal (share, coins) per slot; defaults to the honest opening."""
        self._need_phase("open")
        if opening is None:
            opening = {slot: (self.shares[slot], self.idc_coins[slot]) for slot in self.slots}
        for idx, slot in enumerate(self.slots):
            self._record("open", idx, opening[slot])
        self.phase = "done"
        return opening

    def verify_opening(self, opening: dict) -> int | None:
        """Canonical verification: every instance-dependent commitment is
        recomputed and the shares are XOR-combined; any failure is a
        rejection."""
        bits = []
        for slot in self.slots:
            bit, coins = opening[slot]
            if not idc_verify(self.instances[slot], self.commits[slot], bit, coins):
                return None
            bits.append(bit)
        return xor_all(bits)


def xor_all(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


def derive_shares(m: int, share_seed: int, slots: Sequence) -> dict:
    """2n bits with prescribed XOR: the seed supplies the first 2n-1."""
    shares = {}
    for j, slot in enumerate(slots[:-1]):
        shares[slot] = (share_seed >> j) & 1
    shares[slots[-1]] = m ^ xor_all(shares.values())
    return shares


# ------------------------------------------------------------------ admissible

def is_admissible(wi_verdict: bool, labels: Iterable[str]) -> bool:
    """Some sent instance is YES, or the consistency proof was rejected."""
    return not wi_verdict or YES in labels


# ------------------------------------------------------------ hiding analysis

@dataclass
class ReceiverSpec:
    """A deterministic receiver: fixed coin shares plus an optional
    instance substitution map applied to what it sends."""

    rho: dict
    substitute: Callable[[tuple, Instance], Instance] | None = None

    def substitutions(self, session: ProtocolSession) -> dict:
        if self.substitute is None:
            return {}
        subs = {}
        for slot in session.slots:
            honest = session.problem.sample(session.r[slot], session.n)
            replaced = self.substitute(slot, honest)
            if replaced != honest:
                subs[slot] = replaced
        return subs


def honest_receiver(n: int, rho_seed: int = 0) -> ReceiverSpec:
    """Coin shares read off a seed integer, n bits per slot."""
    rho = {}
    for j, slot in enumerate(slot_list(n)):
        rho[slot] = (rho_seed >> (n * j)) & (2**n - 1)
    return ReceiverSpec(rho=rho)


def view_distance_product(terms: Iterable[int]) -> int:
    """The product form of the conditional view distance, on integers.

    With XOR shares, writing S_j and D_j for the sum and difference of the
    two per-slot commit laws, the constrained share mixture collapses to
    (tensor S +/- tensor D) / 2^(2n), so the distance is the product of the
    per-slot hiding distances:  TV = prod_j eps_j.  Applied to the
    numerators and to the denominators of the eps_j, it gives the two
    halves of that product.
    """
    return math.prod(terms)


@dataclass
class HidingOutcome:
    """Everything measured by one hiding experiment."""

    inadmissible_prob: Fraction
    epsilon_given_admissible: float
    union_bound: float


def _fact_combinations(rows: Sequence[Counter]) -> Iterable[tuple[tuple, int]]:
    """Every choice of one fact per row, as (facts, weight): the weight is
    the product of the chosen facts' multiplicities, the number of coin
    tuples that give exactly these facts."""
    for entries in itertools.product(*(row.items() for row in rows)):
        facts, weights = zip(*entries)
        yield facts, math.prod(weights)


def hiding_experiment(r_spec: ReceiverSpec, n: int, problem: TablePromiseProblem,
                      keep_records: bool = True) -> HidingOutcome:
    """Enumerates every sender coin-share vector, classifies each preamble,
    and computes the exact conditional view distance for the admissible
    ones.

    Asserts the two claims the hiding proof composes: the inadmissible
    probability is at most 2 (1 - yes_rate)^n, and conditioned on any
    admissible preamble the view distance is at most the largest epsilon
    among the YES instances it sent (zero when the proof was rejected).

    The enumeration is exact without a session per preamble: the receiver
    is deterministic and what it sends in slot s depends only on sigma_s.
    One session per constant share vector sigma = (v, ..., v) therefore
    yields, for every slot, its facts at share value v.  Each slot's row
    keeps {(label, eps numerator over L, match): multiplicity}, L the lcm
    of the row epsilons' denominators, and the product of the rows is
    walked once per distinct combination of facts: the inadmissible
    preambles are counted by weight, and the worst admissible view
    distance and the YES-epsilon check are evaluated on the integer
    numerators over L^(2n), as they would be for each preamble the
    combination stands for.

    ``keep_records`` is accepted and ignored: there are no per-preamble
    records, and the parameter stays only because ``bench/workloads.py``
    still passes it.
    """
    facts = [Counter() for _ in slot_list(n)]  # (label, eps, match): multiplicity
    for v in range(2**n):
        session = ProtocolSession(n, problem)
        session.coin_toss_phase(r_spec.rho, {slot: v for slot in session.slots})
        session.instance_gen_phase(substitutions=r_spec.substitutions(session))
        matches = sampler_matches(session.ledger, session.sigma, session.instances, problem, n)
        for row, slot, match in zip(facts, session.slots, matches):
            inst = session.instances[slot]
            row[problem.classify(inst), idc_epsilon(inst), match] += 1
    lcm = math.lcm(*(eps.denominator for row in facts for _, eps, _ in row))
    rows = [Counter({(label, eps.numerator * (lcm // eps.denominator), match): count
                     for (label, eps, match), count in row.items()}) for row in facts]
    scale = lcm ** len(rows)
    inadmissible = 0
    worst = 0
    for entries, weight in _fact_combinations(rows):
        labels, eps, matches = zip(*entries)
        wi_verdict = wi_statement_true(matches)
        if not is_admissible(wi_verdict, labels):
            inadmissible += weight
        elif wi_verdict:
            dist = view_distance_product(eps)
            worst = max(worst, dist)
            yes_eps = max(e for label, e in zip(labels, eps) if label == YES)
            if dist / scale > yes_eps / lcm + TOL:
                raise AssertionError("conditional view distance beats the YES epsilon bound")
    inadmissible_prob = Fraction(inadmissible, (2**n) ** len(rows))
    union = 2 * float((1 - problem.yes_rate)) ** n
    if float(inadmissible_prob) > union + TOL:
        raise AssertionError(
            f"inadmissible probability {float(inadmissible_prob)} above union bound {union}")
    return HidingOutcome(
        inadmissible_prob=inadmissible_prob,
        epsilon_given_admissible=worst / scale,
        union_bound=union,
    )


# ---------------------------------------------------------- binding reduction

class SenderAttack:
    """A deterministic cheating sender driven by a finite tape.

    Its second opening is the honest one with at most one slot re-opened
    to the opposite bit; ``equivocated_slot`` names that slot (an index in
    ``slot_list`` order) given which slots admit such an opening.
    """

    tape_space = 1
    name = "attack"

    def choose_sigma(self, tape: int, n: int, slots) -> dict:
        return {slot: 0 for slot in slots}

    def choose_commitments(self, tape: int, slots) -> tuple[dict, dict]:
        """Returns (shares, idc coins)."""
        return {slot: 0 for slot in slots}, {slot: 0 for slot in slots}

    def equivocated_slot(self, tape: int, flippable: Sequence[bool]) -> int | None:
        """The slot the second opening re-opens, or None to open honestly
        twice.  ``flippable[j]``: slot j's commitment opens to the other bit."""
        return None


class HonestSenderAttack(SenderAttack):
    """Commits to a fixed bit and opens it twice; never equivocates."""

    name = "honest"

    def __init__(self, m: int = 0):
        self.m = m

    def choose_commitments(self, tape, slots):
        return derive_shares(self.m, 0, slots), {slot: 0 for slot in slots}


class EquivocatingSenderAttack(SenderAttack):
    """Commits shares of 0, then re-opens the first slot whose instance
    admits a second preimage with the opposite bit (every YES instance
    does, by construction of the promise problem)."""

    name = "equivocator"

    def equivocated_slot(self, tape, flippable):
        return next((j for j, flip in enumerate(flippable) if flip), None)


def _tape_facts(s_star: SenderAttack, tape: int, n: int, problem: TablePromiseProblem):
    """One tape's per-slot facts.

    Returns sigma (in ``slot_list`` order), ``fact(j, inst, bound)`` -- the
    pair (the sent instance ``inst`` matches the sampler on the bound share,
    it admits an opposite-bit opening of slot j's commitment) -- and the
    honest rows: per slot, {fact: number of rho_s values giving it}.
    """
    slots = slot_list(n)
    sigma = s_star.choose_sigma(tape, n, slots)
    shares, coins = s_star.choose_commitments(tape, slots)
    sigma, shares, coins = ([d[slot] for slot in slots] for d in (sigma, shares, coins))

    def fact(j: int, inst: Instance, bound: int) -> tuple[bool, bool]:
        commit_value = inst.commit(shares[j], coins[j])
        return (inst == problem.sample(bound ^ sigma[j], n),
                idc_equivocation(inst, commit_value, 1 - shares[j]) is not None)

    rows = [Counter(fact(j, problem.sample(rho ^ s, n), rho) for rho in range(2**n))
            for j, s in enumerate(sigma)]
    return sigma, fact, rows


def _equivocations(s_star: SenderAttack, tape: int, rows: Sequence[Counter]) -> Counter:
    """Weight, by re-opened slot, of the fact vectors in which the proof
    verdict holds and the attack's second opening is valid, over
    ``_fact_combinations`` of the rows."""
    out = Counter()
    for facts, weight in _fact_combinations(rows):
        matches, flippable = zip(*facts)
        if not wi_statement_true(matches):
            continue
        j = s_star.equivocated_slot(tape, flippable)
        if j is not None and flippable[j]:
            out[j] += weight
    return out


def break_probability(s_star: SenderAttack, n: int, problem: TablePromiseProblem) -> Fraction:
    """epsilon*: probability of a full equivocation in a standard run."""
    wins = 0
    for tape in range(s_star.tape_space):
        _, _, rows = _tape_facts(s_star, tape, n, problem)
        wins += _equivocations(s_star, tape, rows).total()
    return Fraction(wins, (2**n) ** (2 * n) * s_star.tape_space)


@dataclass
class HybridReport:
    """Exact Pr[E] per hybrid stage plus the slack budget between stages."""

    pr_e: dict
    eps_star: Fraction
    sbc_slack: float
    wi_slack: float
    n: int

    def check(self, tol: float = TOL) -> None:
        if self.pr_e[0] != self.pr_e[1]:
            raise AssertionError("stage 0 and 1 must agree exactly")
        if self.pr_e[3] != self.pr_e[4]:
            raise AssertionError("stage 3 and 4 must agree exactly")
        if abs(float(self.pr_e[1] - self.pr_e[2])) > self.sbc_slack + tol:
            raise AssertionError("stage 1 vs 2 exceeds the share-commitment slack")
        if abs(float(self.pr_e[2] - self.pr_e[3])) > self.wi_slack + tol:
            raise AssertionError("stage 2 vs 3 exceeds the proof slack")
        if self.pr_e[4] < self.eps_star / (2 * self.n):
            raise AssertionError("final stage below eps*/(2n)")


def hybrid_experiment(s_star: SenderAttack, n: int, problem: TablePromiseProblem,
                      stage: int) -> Fraction:
    """Pr[E] in one hybrid stage, by exhaustive enumeration.

    E is the event that the two openings differ validly at the uniformly
    chosen slot (i*, b*).  Stages: 0 plants a fresh sampler instance and
    proves with the untouched column; 1 re-derives the plant from the
    sender's own share; 2 additionally rebinds the coin-share commitment
    to the fresh share; 3 switches the proof witness back to column 0;
    4 is the standard execution.

    The count factors over slots.  Given the tape, slot j's sent instance
    depends only on its own coins (rho_j, plus the fresh share at the
    plant), the verdict is ``wi_statement_true`` over the per-slot sampler
    matches, and E at star is: the verdict holds, the attack names star,
    and star's commitment opens to the other bit -- the validity check
    that ``verify_opening`` applies to the second opening.  So each slot
    is reduced to {(match, flippable): multiplicity} over its coins, the
    star slot's row is replaced by the stage's plant, and the product of
    the rows is counted.  The proof witness is never revealed, so stages
    2 and 3 coincide, and no attack reads a share-commitment handle, so
    the commitment's coins cancel from the probability.
    """
    if stage not in range(5):
        raise ValueError("stage must be 0..4")
    space = 2**n

    def plant(s: int, rho: int, extra: int) -> tuple[Instance, int]:
        """(sent instance, bound share) at the star slot."""
        if stage == 4:
            return problem.sample(rho ^ s, n), rho
        inst = problem.sample(extra if stage == 0 else s ^ extra, n)
        return inst, extra if stage in (2, 3) else rho

    hits = 0
    for tape in range(s_star.tape_space):
        sigma, fact, rows = _tape_facts(s_star, tape, n, problem)
        for star, s in enumerate(sigma):
            planted = Counter(fact(star, *plant(s, rho, extra))
                              for rho in range(space) for extra in range(space))
            hits += _equivocations(s_star, tape, rows[:star] + [planted] + rows[star + 1:])[star]
    runs = 2 * n * space ** (2 * n + 1) * s_star.tape_space
    return Fraction(hits, runs)


def hybrid_sweep(s_star: SenderAttack, n: int, problem: TablePromiseProblem) -> HybridReport:
    """Runs all five hybrid stages and checks the bridging guarantees; the
    ideal ledger and proof leave no slack between stages."""
    pr_e = {stage: hybrid_experiment(s_star, n, problem, stage) for stage in range(5)}
    report = HybridReport(
        pr_e=pr_e,
        eps_star=break_probability(s_star, n, problem),
        sbc_slack=0.0,
        wi_slack=0.0,
        n=n,
    )
    report.check()
    return report


# ------------------------------------------------------------------ the decider

@dataclass
class DeciderReport:
    """Exact accounting of the decider built from a binding adversary."""

    pr_correct: Fraction
    pr_e: Fraction
    pr_e_and_no: Fraction

    def check(self) -> None:
        if self.pr_e_and_no != 0:
            raise AssertionError("equivocation on a planted NO instance")
        if self.pr_correct < (1 + self.pr_e) / 2:
            raise AssertionError("decider advantage below (1 + Pr[E])/2")


def decider_advantage(s_star: SenderAttack, n: int, problem: TablePromiseProblem) -> DeciderReport:
    """Pr[x in Pi_{D(x)}] for the decider that plants its input instance at
    a random slot, runs the binding adversary, declares YES on slot
    equivocation and guesses otherwise.  All coins enumerated, counted over
    per-slot facts as in ``hybrid_experiment``."""
    space = 2**n
    per_plant = space ** (2 * n)  # rho vectors behind one (x, star, tape)
    events = yes_events = no_events = 0
    for tape in range(s_star.tape_space):
        sigma, fact, rows = _tape_facts(s_star, tape, n, problem)
        for coins in range(space):
            x = problem.sample(coins, n)
            label = problem.classify(x)
            for star in range(len(sigma)):
                planted = Counter(fact(star, x, rho) for rho in range(space))
                event = _equivocations(s_star, tape, rows[:star] + [planted] + rows[star + 1:])[star]
                events += event
                yes_events += event if label == YES else 0
                no_events += event if label == NO else 0
    runs = space * 2 * n * per_plant * s_star.tape_space
    # Correct on a YES event, and half the time without an event.
    report = DeciderReport(pr_correct=Fraction(2 * yes_events + runs - events, 2 * runs),
                           pr_e=Fraction(events, runs),
                           pr_e_and_no=Fraction(no_events, runs))
    report.check()
    return report
