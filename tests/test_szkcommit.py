"""Promise problem, instance-dependent commitments, and both protocol
security arguments, all by enumeration."""

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import pytest

from dcrlab import szkcommit
from dcrlab.commitments import hiding_distance
from dcrlab.hashfam import EnumerationCap, HashFunction
from dcrlab.probkit import Dist, stat_distance
from dcrlab.szkcommit import (
    NO,
    OUTSIDE,
    YES,
    DeciderReport,
    EquivocatingSenderAttack,
    HidingOutcome,
    HybridReport,
    ProtocolError,
    ProtocolSession,
    ReceiverSpec,
    SenderAttack,
    TablePromiseProblem,
    break_probability,
    decider_advantage,
    derive_shares,
    hiding_experiment,
    honest_receiver,
    hybrid_sweep,
    idc_commit,
    idc_equivocation,
    idc_verify,
    is_admissible,
    slot_list,
    xor_all,
)

PROBLEM = TablePromiseProblem(k=4, salt=7)
SMALL = TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=3)


def coin_space(n):
    """Every map from the 2n slots to n-bit coin values, in product order."""
    slots = slot_list(n)
    for values in itertools.product(range(2**n), repeat=len(slots)):
        yield dict(zip(slots, values))


def measured_yes_rate(problem, coin_bits):
    """Fraction of the sampler's coin values that land on a YES instance."""
    hits = sum(problem.classify(problem.sample(c, coin_bits)) == YES
               for c in range(2**coin_bits))
    return Fraction(hits, 2**coin_bits)


class HonestSenderAttack(SenderAttack):
    """Commits to a fixed bit and opens it twice; never equivocates."""

    name = "honest"

    def __init__(self, m: int = 0):
        self.m = m

    def choose_commitments(self, tape, slots):
        return derive_shares(self.m, 0, slots), {slot: 0 for slot in slots}


class SubstitutingSession(ProtocolSession):
    """A session whose receiver may send other instances than the sampled
    ones: instance generation with substitutions, which the WI-verdict
    tests and the session-path references drive."""

    def instance_gen_phase(self, substitutions: dict | None = None) -> "SubstitutingSession":
        self._need_phase("instance-gen")
        substitutions = substitutions or {}
        matches = []
        for idx, slot in enumerate(self.slots):
            honest = self.problem.sample(self.r[slot], self.n)
            self.instances[slot] = substitutions.get(slot, honest)
            matches.append(self.instances[slot] == honest)
            self._record("instance-gen", idx, self.instances[slot])
        self.wi_verdict = szkcommit.wi_statement_true(matches)
        self._record("instance-gen", len(self.slots), self.wi_verdict)
        self.phase = "commit" if self.wi_verdict else "done"
        return self


def receiver_substitutions(r_spec, session):
    """The slots where the receiver ``r_spec`` sends something other than
    the sampled instance, with what it sends there."""
    if r_spec.substitute is None:
        return {}
    subs = {}
    for slot in session.slots:
        honest = session.problem.sample(session.r[slot], session.n)
        replaced = r_spec.substitute(slot, honest)
        if replaced != honest:
            subs[slot] = replaced
    return subs


def sampler_matches(session, rho, sigma):
    """Per slot, in ``slot_list`` order: does the sent instance match the
    sampler on the committed-and-revealed coins rho xor sigma?"""
    return [session.instances[slot] == session.problem.sample(rho[slot] ^ sigma[slot], session.n)
            for slot in session.slots]


def admissible_preamble(session):
    """``is_admissible`` on a completed session's preamble."""
    if session.wi_verdict is None:
        raise ProtocolError("preamble not complete")
    return is_admissible(session.wi_verdict,
                         (session.problem.classify(x) for x in session.instances.values()))


def conditional_view_distance(instances):
    """Exact TV between the commit-phase views under m = 0 and m = 1,
    conditioned on a fixed preamble that sent these instances: with XOR
    shares it is the product of the per-slot hiding distances."""
    eps = [hiding_distance(inst, inst.n - 1) for inst in instances]
    return Fraction(math.prod(e.numerator for e in eps),
                    math.prod(e.denominator for e in eps))


# -------------------------------------------------------------- promise problem

def test_instance_width_capped_before_tables():
    with pytest.raises(EnumerationCap, match="n=21 exceeds enumeration cap 20"):
        TablePromiseProblem(k=20, out_bits_choices=(21,))


def test_sampler_support_inside_promise():
    for n in (1, 2, 3):
        for coins in range(2**n):
            label = PROBLEM.classify(PROBLEM.sample(coins, n))
            assert label in (YES, NO)


def test_sampler_respects_class_selector():
    for coins in range(8):
        inst = PROBLEM.sample(coins, 3)
        expected = YES if coins & 1 == 0 else NO
        assert PROBLEM.classify(inst) == expected


def test_measured_yes_rate_matches_declared():
    assert PROBLEM.yes_rate == Fraction(1, 2)
    for n in (1, 2, 3):
        assert measured_yes_rate(PROBLEM, n) == Fraction(1, 2)


def test_yes_instances_are_lossy_balanced():
    for coins in range(0, 8, 2):
        inst = PROBLEM.sample(coins, 3)
        for members in inst.fibers.values():
            assert len(members) >= 2
            assert {x >> PROBLEM.k for x in members} == {0, 1}
        assert hiding_distance(inst, inst.n - 1) <= PROBLEM.balance_tol


def test_no_instances_are_injective_and_clear():
    for coins in range(1, 8, 2):
        inst = PROBLEM.sample(coins, 3)
        assert len(set(inst.table)) == len(inst.table)
        assert hiding_distance(inst, inst.n - 1) == 1


def test_outside_tables_exist_and_are_rejected():
    # Lossy but single-bit fiber: both inputs of bit 0 collide, bit 1 is
    # injective elsewhere -> neither YES nor NO.
    inst = HashFunction(n=2, m=2, table=(0, 0, 1, 2))
    assert PROBLEM.classify(inst) == OUTSIDE


# ------------------------------------------------------------------ IDC basics

def _epsilon_by_coins(inst):
    """Reference for an instance's epsilon: the TV between the commitment
    laws of the two bits, from one ``idc_commit`` per coin value."""
    coins = range(2 ** (inst.n - 1))
    return stat_distance(*(Dist(Counter(idc_commit(inst, b, r) for r in coins),
                                denominator=len(coins))
                           for b in (0, 1)))


@pytest.mark.parametrize("problem", [PROBLEM, SMALL], ids=["k4", "k2"])
def test_instance_epsilon_matches_per_coin_commits(problem):
    for n in (1, 2, 3):
        for coins in range(2**n):
            inst = problem.sample(coins, n)
            assert hiding_distance(inst, inst.n - 1) == _epsilon_by_coins(inst)


def test_idc_verify_and_equivocation():
    yes = PROBLEM.sample(0, 2)
    for r in range(16):
        for b in (0, 1):
            assert idc_verify(yes, idc_commit(yes, b, r), b, r)
    # Every YES commitment re-opens to the other bit somewhere.
    for r in range(16):
        c = idc_commit(yes, 0, r)
        assert idc_equivocation(yes, c, 1) is not None

    no = PROBLEM.sample(1, 2)
    for r in range(16):
        assert idc_equivocation(no, idc_commit(no, 0, r), 1) is None


def test_idc_perfect_binding_on_no_exhaustive():
    # Every injective instance the sampler can emit at n <= 3: no
    # commitment value admits a second opening.
    for n in (1, 2, 3):
        for coins in range(2**n):
            inst = PROBLEM.sample(coins, n)
            if PROBLEM.classify(inst) != NO:
                continue
            for r0 in range(2**PROBLEM.k):
                c = idc_commit(inst, 0, r0)
                for b in (0, 1):
                    valid = [r for r in range(2**PROBLEM.k) if idc_verify(inst, c, b, r)]
                    assert valid == ([r0] if b == 0 else [])


def _equivocation_by_scan(inst, k, commit_value, bit):
    """Reference for ``idc_equivocation``: the first of the 2^k coin values
    whose commitment to ``bit`` is ``commit_value``."""
    for r in range(2**k):
        if idc_commit(inst, bit, r) == commit_value:
            return r
    return None


@pytest.mark.parametrize("problem", [PROBLEM, SMALL], ids=["k4", "k2"])
def test_idc_equivocation_matches_coin_scan(problem):
    # Every instance the sampler emits at n <= 3, both bits, every value
    # in the output range (values off the image have no opening).
    for n in (1, 2, 3):
        for coins in range(2**n):
            inst = problem.sample(coins, n)
            for value in range(2**inst.m):
                for bit in (0, 1):
                    assert (idc_equivocation(inst, value, bit)
                            == _equivocation_by_scan(inst, problem.k, value, bit))


# -------------------------------------------------------------- session phases

def test_coin_toss_bookkeeping():
    n = 2
    sess = ProtocolSession(n, PROBLEM)
    rho = {slot: 1 for slot in slot_list(n)}
    sigma = {slot: 2 for slot in slot_list(n)}
    sess.coin_toss_phase(rho, sigma)
    assert all(sess.r[slot] == 3 for slot in slot_list(n))
    assert len([e for e in sess.transcript if e[0] == "coin-toss"]) == 8


def test_zero_sigma_keeps_rho():
    n = 2
    sess = ProtocolSession(n, PROBLEM)
    rho = {slot: j for j, slot in enumerate(slot_list(n))}
    sess.coin_toss_phase(rho, {slot: 0 for slot in slot_list(n)})
    assert sess.r == rho


def test_fixed_rho_enumerated_sigma_gives_uniform_r():
    n = 1
    counts = {}
    for s0 in range(2):
        for s1 in range(2):
            sess = ProtocolSession(n, PROBLEM)
            sess.coin_toss_phase({(0, 0): 1, (0, 1): 0}, {(0, 0): s0, (0, 1): s1})
            counts[(sess.r[(0, 0)], sess.r[(0, 1)])] = counts.get(
                (sess.r[(0, 0)], sess.r[(0, 1)]), 0) + 1
    assert all(c == 1 for c in counts.values()) and len(counts) == 4


def test_wi_verdict_honest_and_substituted():
    n = 2
    rho = {slot: 0 for slot in slot_list(n)}
    sigma = {slot: 1 for slot in slot_list(n)}
    wrong = PROBLEM.sample(2, n)

    honest = ProtocolSession(n, PROBLEM).coin_toss_phase(rho, sigma)
    honest.instance_gen_phase()
    assert honest.wi_verdict is True

    # Substituting a single column leaves the OR over columns true.
    one_col = SubstitutingSession(n, PROBLEM).coin_toss_phase(rho, sigma)
    one_col.instance_gen_phase(substitutions={(i, 1): wrong for i in range(n)})
    assert one_col.wi_verdict is True

    # Substituting both columns falsifies the statement.
    sub = {}
    for i in range(n):
        for b in (0, 1):
            if PROBLEM.sample(rho[(i, b)] ^ sigma[(i, b)], n) != wrong:
                sub[(i, b)] = wrong
    both = SubstitutingSession(n, PROBLEM).coin_toss_phase(rho, sigma)
    both.instance_gen_phase(substitutions=sub)
    assert both.wi_verdict is False


def test_honest_session_transcript_pinned():
    sess = ProtocolSession(1, SMALL)
    sess.coin_toss_phase({(0, 0): 1, (0, 1): 0}, {(0, 0): 1, (0, 1): 1})
    sess.instance_gen_phase()
    sess.commit_phase(m=1, share_seed=1, idc_coins={(0, 0): 2, (0, 1): 3})
    opening = sess.open_phase()
    assert sess.verify_opening(opening) == 1
    assert sess.transcript == [
        ("coin-toss", 0, ("sbc", (0, 0))),
        ("coin-toss", 1, ("sbc", (0, 1))),
        ("coin-toss", 2, 1),
        ("coin-toss", 3, 1),
        ("instance-gen", 0, HashFunction(n=3, m=3, table=(3, 6, 3, 3, 3, 6, 3, 3))),
        ("instance-gen", 1, HashFunction(n=3, m=3, table=(6, 3, 7, 2, 1, 5, 4, 0))),
        ("instance-gen", 2, True),
        ("commit", 0, 3),
        ("commit", 1, 2),
        ("open", 0, (1, 2)),
        ("open", 1, (0, 3)),
    ]


def test_phase_order_enforced():
    sess = ProtocolSession(1, PROBLEM)
    with pytest.raises(ProtocolError):
        sess.instance_gen_phase()


# --------------------------------------------------------------- completeness

def test_completeness_full_joint_n1():
    # Every coin assignment of a complete n=1 session, exhaustively.
    problem = SMALL
    n, k = 1, problem.k
    for rho_seed in range(4):
        for sigma_seed in range(4):
            for share_seed in range(2):
                for idc_seed in range(2 ** (2 * k)):
                    for m in (0, 1):
                        sess = ProtocolSession(n, problem)
                        slots = slot_list(n)
                        rho = {s: (rho_seed >> j) & 1 for j, s in enumerate(slots)}
                        sigma = {s: (sigma_seed >> j) & 1 for j, s in enumerate(slots)}
                        coins = {s: (idc_seed >> (k * j)) & (2**k - 1)
                                 for j, s in enumerate(slots)}
                        sess.coin_toss_phase(rho, sigma)
                        sess.instance_gen_phase()
                        sess.commit_phase(m=m, share_seed=share_seed, idc_coins=coins)
                        opening = sess.open_phase()
                        assert sess.verify_opening(opening) == m


def test_completeness_factored_n2_k4():
    """The n=2, k=4 joint coin space factors: per-slot validity depends on
    disjoint coins, so exhausting each factor covers every session."""
    problem = PROBLEM
    n = 2
    # Factor 1: every (instance, bit, coins) commitment re-verifies.
    for coins_val in range(2**n):
        inst = problem.sample(coins_val, n)
        for b in (0, 1):
            for r in range(2**problem.k):
                assert idc_verify(inst, idc_commit(inst, b, r), b, r)
    # Factor 2: coin-toss bookkeeping over every (rho, sigma) slot pair.
    for rho_v in range(2**n):
        for sigma_v in range(2**n):
            assert (rho_v ^ sigma_v) ^ sigma_v == rho_v
    # Factor 3: share derivation over every seed reconstructs the message.
    for m in (0, 1):
        for seed in range(2 ** (2 * n - 1)):
            shares = derive_shares(m, seed, slot_list(n))
            assert xor_all(shares.values()) == m


def test_tamper_single_share_flip_rejects_on_no_instances():
    problem = PROBLEM
    n = 2
    no_coins = [c for c in range(2**n) if problem.classify(problem.sample(c, n)) == NO]
    rho = {slot: no_coins[0] for slot in slot_list(n)}
    sigma = {slot: 0 for slot in slot_list(n)}
    for m in (0, 1):
        for idc_seed in range(0, 2**8, 37):
            sess = ProtocolSession(n, problem)
            sess.coin_toss_phase(rho, sigma)
            sess.instance_gen_phase()
            coins = {s: (idc_seed >> (4 * j)) & 15 for j, s in enumerate(slot_list(n))}
            sess.commit_phase(m=m, share_seed=idc_seed & 7, idc_coins=coins)
            opening = sess.open_phase()
            assert sess.verify_opening(opening) == m
            for slot in slot_list(n):
                tampered = dict(opening)
                bit, c = tampered[slot]
                tampered[slot] = (1 - bit, c)
                assert sess.verify_opening(tampered) is None


# --------------------------------------------------------------- admissibility

def test_admissible_probability_honest_closed_form():
    n = 2
    out = hiding_experiment(honest_receiver(n, rho_seed=0b01100011), n, PROBLEM)
    assert out.inadmissible_prob == (1 - PROBLEM.yes_rate) ** (2 * n)


def test_all_no_preamble_not_admissible():
    n = 1
    no_coins = next(c for c in range(2)
                    if PROBLEM.classify(PROBLEM.sample(c, n)) == NO)
    sess = ProtocolSession(n, PROBLEM)
    rho = {slot: no_coins for slot in slot_list(n)}
    sess.coin_toss_phase(rho, {slot: 0 for slot in slot_list(n)})
    sess.instance_gen_phase()
    assert sess.wi_verdict
    assert not admissible_preamble(sess)


def test_wi_rejection_is_admissible():
    n = 1
    wrong = PROBLEM.sample(0, n)
    sess = SubstitutingSession(n, PROBLEM)
    sess.coin_toss_phase({s: 0 for s in slot_list(n)}, {s: 1 for s in slot_list(n)})
    subs = {}
    for slot in slot_list(n):
        honest = PROBLEM.sample(sess.r[slot], n)
        if honest != wrong:
            subs[slot] = wrong
        else:
            subs[slot] = PROBLEM.sample(1, n)
    sess.instance_gen_phase(substitutions=subs)
    assert sess.wi_verdict is False
    assert admissible_preamble(sess)


# --------------------------------------------------------------------- hiding

def test_conditional_view_distance_matches_enumeration():
    """Product form against the brute-force view law, slot supports fully
    expanded."""
    problem = SMALL
    n = 1
    insts = [problem.sample(0, n), problem.sample(1, n)]
    k = problem.k

    def law(inst, bit):
        out = {}
        for r in range(2**k):
            v = idc_commit(inst, bit, r)
            out[v] = out.get(v, 0) + Fraction(1, 2**k)
        return out

    def view(m):
        total = {}
        share_vectors = [s for s in itertools.product((0, 1), repeat=2) if s[0] ^ s[1] == m]
        for shares in share_vectors:
            w = Fraction(1, len(share_vectors))
            laws = [law(inst, s) for inst, s in zip(insts, shares)]
            for c0, p0 in laws[0].items():
                for c1, p1 in laws[1].items():
                    key = (c0, c1)
                    total[key] = total.get(key, 0) + w * p0 * p1
        return total

    v0, v1 = view(0), view(1)
    support = set(v0) | set(v1)
    brute = sum(abs(v0.get(c, 0) - v1.get(c, 0)) for c in support) / 2
    assert conditional_view_distance(insts) == brute


def test_hiding_experiment_honest_receiver():
    n = 2
    out = hiding_experiment(honest_receiver(n, rho_seed=0b10010110), n, PROBLEM)
    # Internal assertions already enforce the per-preamble bound; check the
    # headline numbers here.
    assert out.inadmissible_prob <= Fraction(1, 16)
    assert 0 <= out.epsilon_given_admissible <= float(PROBLEM.balance_tol)
    assert out.union_bound == 2 * 0.5**n


def test_hiding_rejected_wi_gives_zero_distance():
    n = 1
    wrong_yes = PROBLEM.sample(0, n)

    def substitute(slot, honest):
        return wrong_yes if honest != wrong_yes else PROBLEM.sample(2 % 2, n)

    spec = ReceiverSpec(rho={s: 0 for s in slot_list(n)}, substitute=substitute)
    reference, records = _hiding_by_sessions(spec, n, PROBLEM)
    assert hiding_experiment(spec, n, PROBLEM) == reference
    rejected = [rec for rec in records if not rec.wi_accepted]
    assert rejected
    assert all(rec.view_distance == 0 for rec in rejected)


def test_yes_rate_one_sampler_never_inadmissible():
    always_yes = TablePromiseProblem(k=2, out_bits_choices=(2, 3), yes_num=2,
                                     yes_bits=1, salt=9)
    out = hiding_experiment(honest_receiver(1, rho_seed=1), 1, always_yes)
    assert out.inadmissible_prob == 0


class Preamble(NamedTuple):
    """One preamble of the session-per-preamble reference."""

    wi_accepted: bool
    view_distance: Fraction


def _hiding_by_sessions(r_spec, n, problem):
    """The session-per-preamble hiding loop, kept as the reference for the
    per-slot enumeration: one ProtocolSession per sender share vector.
    Returns the outcome and the list of per-preamble records."""
    records = []
    inadmissible = Fraction(0)
    worst = Fraction(0)
    total = Fraction(1, (2**n) ** (2 * n))
    for sigma in coin_space(n):
        session = SubstitutingSession(n, problem)
        session.coin_toss_phase(r_spec.rho, sigma)
        session.instance_gen_phase(substitutions=receiver_substitutions(r_spec, session))
        sent = list(session.instances.values())
        labels = tuple(problem.classify(x) for x in sent)
        dist = conditional_view_distance(sent) if session.wi_verdict else Fraction(0)
        admissible = admissible_preamble(session)
        if admissible:
            worst = max(worst, dist)
            if session.wi_verdict:
                yes_eps = max(hiding_distance(x, x.n - 1) for x, label in zip(sent, labels) if label == YES)
                if dist > yes_eps:
                    raise AssertionError("conditional view distance beats the YES epsilon bound")
        else:
            inadmissible += total
        records.append(Preamble(session.wi_verdict, dist))
    union = 2 * float((1 - problem.yes_rate)) ** n
    if inadmissible > 2 * (1 - problem.yes_rate) ** n:
        raise AssertionError(
            f"inadmissible probability {float(inadmissible)} above union bound {union}")
    return HidingOutcome(inadmissible, float(worst), union), records


def _hiding_per_preamble(r_spec, n, problem):
    """The per-preamble loop over the uncompressed rows: one entry per
    share value in each of the 2n rows, every preamble of the product
    visited on its own, view distances as integer numerators over L^(2n)."""
    facts = [[] for _ in slot_list(n)]  # (label, eps, match), one per share value
    for v in range(2**n):
        session = SubstitutingSession(n, problem)
        sigma = {slot: v for slot in session.slots}
        session.coin_toss_phase(r_spec.rho, sigma)
        session.instance_gen_phase(substitutions=receiver_substitutions(r_spec, session))
        matches = sampler_matches(session, r_spec.rho, sigma)
        for row, slot, match in zip(facts, session.slots, matches):
            inst = session.instances[slot]
            row.append((problem.classify(inst), hiding_distance(inst, inst.n - 1), match))
    lcm = math.lcm(*(eps.denominator for row in facts for _, eps, _ in row))
    # Entry: (label, eps numerator over lcm, match, YES eps numerator or -1).
    rows = [[(label, eps.numerator * (lcm // eps.denominator), match,
              eps.numerator * (lcm // eps.denominator) if label == YES else -1)
             for label, eps, match in row] for row in facts]
    scale = lcm ** len(rows)
    inadmissible = 0
    worst = 0
    for entries in itertools.product(*rows):
        labels, eps, matches, yes_eps = zip(*entries)
        wi_verdict = szkcommit.wi_statement_true(matches)
        dist = math.prod(eps) if wi_verdict else 0
        if is_admissible(wi_verdict, labels):
            worst = max(worst, dist)
            if wi_verdict and dist * lcm > max(yes_eps) * scale:
                raise AssertionError("conditional view distance beats the YES epsilon bound")
        else:
            inadmissible += 1
    inadmissible_prob = Fraction(inadmissible, (2**n) ** len(rows))
    union = 2 * float((1 - problem.yes_rate)) ** n
    if inadmissible_prob > 2 * (1 - problem.yes_rate) ** n:
        raise AssertionError(
            f"inadmissible probability {float(inadmissible_prob)} above union bound {union}")
    return HidingOutcome(inadmissible_prob, worst / scale, union)


# YES instances with epsilon 1/16 at n = 1 and 1/8 at n = 2, so admissible
# preambles carry nonzero view distances.
LEAKY = TablePromiseProblem(k=4, salt=2)


def _rejecting_receiver(n, problem):
    """The substituting receiver of test_hiding_rejected_wi_gives_zero_distance."""
    wrong_yes = problem.sample(0, n)

    def substitute(slot, honest):
        return wrong_yes if honest != wrong_yes else problem.sample(0, n)

    return ReceiverSpec(rho={s: 0 for s in slot_list(n)}, substitute=substitute)


@pytest.mark.parametrize("n", [1, 2])
def test_hiding_experiment_matches_session_path(n):
    cases = [(honest_receiver(n, rho_seed=seed), problem)
             for problem in (LEAKY, SMALL) for seed in (0, 5, 0b10010110)]
    cases += [(_rejecting_receiver(n, PROBLEM), PROBLEM), (_rejecting_receiver(n, LEAKY), LEAKY)]
    verdicts = set()
    for spec, problem in cases:
        reference, records = _hiding_by_sessions(spec, n, problem)
        assert hiding_experiment(spec, n, problem) == reference
        verdicts |= {rec.wi_accepted for rec in records}
    assert verdicts == {True, False}
    assert hiding_experiment(honest_receiver(n, 5), n, LEAKY).epsilon_given_admissible > 0


def _criterion_8_inputs(seed, n):
    """The receiver and problem criterion 8 of the acceptance battery uses."""
    problem = TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=seed + 61)
    return honest_receiver(n, rho_seed=seed * 7 + 5), problem


@pytest.mark.parametrize("seed", [0, 7])
def test_hiding_experiment_matches_per_preamble_loop_at_n3(seed):
    n = 3
    spec, problem = _criterion_8_inputs(seed, n)
    assert hiding_experiment(spec, n, problem) == _hiding_per_preamble(spec, n, problem)


def test_hiding_walks_distinct_fact_combinations(monkeypatch):
    """At n = 3 the rows of criterion 8's seed-7 inputs hold 3 distinct facts
    each, so the walk takes at most 3^6 = 729 steps, where the
    per-preamble loop evaluates the verdict (2^3)^6 = 262,144 times."""
    n = 3
    spec, problem = _criterion_8_inputs(7, n)
    calls = 0
    verdict = szkcommit.wi_statement_true

    def counting_verdict(matches):
        nonlocal calls
        calls += 1
        return verdict(matches)

    monkeypatch.setattr(szkcommit, "wi_statement_true", counting_verdict)
    hiding_experiment(spec, n, problem)
    assert calls < 1000


def test_hiding_walk_capped_before_the_first_combination():
    # At n = 6 the 12 rows hold 244,140,625 fact combinations, above
    # 2^TAPE_CAP_BITS: the walk is refused before any is evaluated.
    start = time.perf_counter()
    with pytest.raises(EnumerationCap, match="244140625 fact combinations exceed 2"):
        hiding_experiment(honest_receiver(6, rho_seed=5), 6, TablePromiseProblem(k=4, salt=58))
    assert time.perf_counter() - start < 1.0


def test_hiding_builds_no_session(monkeypatch):
    n = 2
    problem = TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=11)
    counts = {"sessions": 0, "classify": 0}
    init, classify = ProtocolSession.__init__, TablePromiseProblem.classify

    def counting_init(self, *args, **kwargs):
        counts["sessions"] += 1
        init(self, *args, **kwargs)

    def counting_classify(self, inst):
        counts["classify"] += 1
        return classify(self, inst)

    monkeypatch.setattr(ProtocolSession, "__init__", counting_init)
    monkeypatch.setattr(TablePromiseProblem, "classify", counting_classify)
    hiding_experiment(honest_receiver(n, 3), n, problem)
    assert counts["sessions"] == 0
    # One label per row entry, plus one per sampler cache miss.
    assert counts["classify"] <= 2 * n * 2**n + 2**n


def test_hiding_yes_epsilon_bound_fires(monkeypatch):
    # A NO epsilon of 16 makes a preamble of one YES slot (epsilon 1/16)
    # and one NO slot reach distance 1 > 1/16.
    problem = TablePromiseProblem(k=4, salt=2)
    real = hiding_distance

    def inflated(inst, coin_bits):
        return Fraction(16) if len(set(inst.table)) == len(inst.table) else real(inst, coin_bits)

    monkeypatch.setattr(szkcommit, "hiding_distance", inflated)
    with pytest.raises(AssertionError, match="YES epsilon bound"):
        hiding_experiment(honest_receiver(1, rho_seed=0), 1, problem)


def test_hiding_union_bound_fires():
    class ClaimsAllYes(TablePromiseProblem):
        yes_rate = Fraction(1)

    problem = ClaimsAllYes(k=2, out_bits_choices=(2, 3), salt=3)
    assert measured_yes_rate(problem, 1) == Fraction(1, 2)
    with pytest.raises(AssertionError, match="above union bound"):
        hiding_experiment(honest_receiver(1, rho_seed=0), 1, problem)


def test_hiding_union_bound_is_exact():
    # Both slots are NO with probability 1/4 at the true yes rate of 1/2; a
    # claimed rate whose union bound 2 (1 - yes_rate) sits 10^-12 below 1/4
    # is caught, where a float tolerance of 1e-9 let it pass.
    class ClaimsSlightlyMore(TablePromiseProblem):
        yes_rate = Fraction(7, 8) + Fraction(1, 2 * 10**12)

    problem = ClaimsSlightlyMore(k=2, out_bits_choices=(2, 3), salt=3)
    assert measured_yes_rate(problem, 1) == Fraction(1, 2)
    with pytest.raises(AssertionError, match="above union bound"):
        hiding_experiment(honest_receiver(1, rho_seed=0), 1, problem)


# -------------------------------------------------------------------- binding

def test_honest_sender_never_equivocates():
    n = 1
    assert break_probability(HonestSenderAttack(), n, SMALL) == 0
    report = hybrid_sweep(HonestSenderAttack(), n, SMALL)
    assert all(v == 0 for v in report.pr_e.values())


def test_equivocator_breaks_with_yes_probability():
    n = 1
    eps_star = break_probability(EquivocatingSenderAttack(), n, SMALL)
    # A break needs at least one YES among the 2n sent instances.
    yr = SMALL.yes_rate
    assert eps_star == 1 - (1 - yr) ** (2 * n)


def test_hybrid_sweep_equivocator_ideal_components():
    n = 2
    report = hybrid_sweep(EquivocatingSenderAttack(), n, PROBLEM)
    values = list(report.pr_e.values())
    assert all(v == values[0] for v in values)  # ideal SBC and proof: no drift
    assert report.pr_e[4] >= report.eps_star / (2 * n)
    assert report.eps_star > 0


def test_hybrid_sweep_equivocator_values():
    report = hybrid_sweep(EquivocatingSenderAttack(), 1, SMALL)
    assert report.pr_e == {stage: Fraction(3, 8) for stage in range(5)}
    assert report.eps_star == Fraction(3, 4)


def test_decider_advantage_exact():
    n = 2
    rep = decider_advantage(EquivocatingSenderAttack(), n, PROBLEM)
    assert rep.pr_e_and_no == 0
    assert rep.pr_correct == (1 + rep.pr_e) / 2
    assert rep.pr_e > 0


def test_decider_honest_sender_is_coin_flip():
    rep = decider_advantage(HonestSenderAttack(), 1, SMALL)
    assert rep.pr_e == 0
    assert rep.pr_correct == Fraction(1, 2)


@dataclass
class BindingRun:
    """Outcome of one complete execution against the binding game."""

    session: ProtocolSession
    opening_a: dict
    opening_b: dict
    full_break: bool
    equivocal_slots: frozenset


def run_binding_session(s_star, tape, n, problem, rho, plant_slot=None,
                        planted_instance=None) -> BindingRun:
    """One full execution of (S*, R), the plant sent through a substitution.

    The second opening flips the slot the attack names, with coins from
    ``idc_equivocation`` when there are any and the honest coins otherwise;
    ``verify_opening`` and ``idc_verify`` judge both openings."""
    session = SubstitutingSession(n, problem)
    slots = session.slots
    session.coin_toss_phase(rho, s_star.choose_sigma(tape, n, slots))
    substitutions = {} if plant_slot is None else {plant_slot: planted_instance}
    session.instance_gen_phase(substitutions=substitutions)
    if not session.wi_verdict:
        return BindingRun(session, {}, {}, False, frozenset())
    shares, coins = s_star.choose_commitments(tape, slots)
    session.commit_phase(shares=shares, idc_coins=coins)
    opening_a = {slot: (session.shares[slot], session.idc_coins[slot]) for slot in slots}
    flips = [idc_equivocation(session.instances[slot], session.commits[slot],
                              1 - session.shares[slot]) for slot in slots]
    j = s_star.equivocated_slot(tape, [c is not None for c in flips])
    opening_b = dict(opening_a)
    if j is not None:
        bit, honest_coins = opening_a[slots[j]]
        opening_b[slots[j]] = (1 - bit, honest_coins if flips[j] is None else flips[j])
    session.open_phase(opening_a)
    m_a = session.verify_opening(opening_a)
    m_b = session.verify_opening(opening_b)
    full_break = m_a is not None and m_b is not None and m_a != m_b
    equivocal = frozenset(
        slot for slot in slots
        if idc_verify(session.instances[slot], session.commits[slot], *opening_a[slot])
        and idc_verify(session.instances[slot], session.commits[slot], *opening_b[slot])
        and opening_a[slot][0] != opening_b[slot][0]
    )
    return BindingRun(session, opening_a, opening_b, full_break, equivocal)


def _session_path_break(s_star, n, problem):
    runs = [run_binding_session(s_star, tape, n, problem, rho)
            for rho in coin_space(n) for tape in range(s_star.tape_space)]
    return Fraction(sum(run.full_break for run in runs), len(runs))


def _session_path_hybrid(s_star, n, problem, stage):
    """The session-per-tuple hybrid loop.  Stages 2 and 3 bind the fresh
    share by committing rho with rho[star] = extra: the plant replaces
    that slot's instance, so only the ledger sees the change."""
    hits = runs = 0
    for star in slot_list(n):
        for rho in coin_space(n):
            for extra in range(2**n):
                for tape in range(s_star.tape_space):
                    runs += 1
                    if stage == 4:
                        run = run_binding_session(s_star, tape, n, problem, rho)
                    else:
                        s = s_star.choose_sigma(tape, n, slot_list(n))[star]
                        planted = problem.sample(extra if stage == 0 else s ^ extra, n)
                        bound = {**rho, star: extra} if stage in (2, 3) else rho
                        run = run_binding_session(s_star, tape, n, problem, bound,
                                                  plant_slot=star, planted_instance=planted)
                    hits += star in run.equivocal_slots
    return Fraction(hits, runs)


def _session_path_decider(s_star, n, problem):
    correct = pr_e = pr_e_and_no = Fraction(0)
    runs = 0
    for coins in range(2**n):
        x = problem.sample(coins, n)
        label = problem.classify(x)
        for star in slot_list(n):
            for rho in coin_space(n):
                for tape in range(s_star.tape_space):
                    runs += 1
                    run = run_binding_session(s_star, tape, n, problem, rho,
                                              plant_slot=star, planted_instance=x)
                    if star in run.equivocal_slots:
                        pr_e += 1
                        correct += label == YES
                        pr_e_and_no += label == NO
                    else:
                        correct += Fraction(1, 2)
    return DeciderReport(correct / runs, pr_e / runs, pr_e_and_no / runs)


class ShiftingAttack(SenderAttack):
    """Three tapes with tape-dependent shares, coins and sigma.  Tape 1
    re-opens the last flippable slot; tape 2 always names the last slot,
    flippable or not, so its second opening can be invalid."""

    tape_space = 3
    name = "shifting"

    def choose_sigma(self, tape, n, slots):
        return {slot: (tape * (j + 1)) % 2**n for j, slot in enumerate(slots)}

    def choose_commitments(self, tape, slots):
        return ({slot: (tape + j) & 1 for j, slot in enumerate(slots)},
                {slot: (tape * 5 + j) % 4 for j, slot in enumerate(slots)})

    def equivocated_slot(self, tape, flippable):
        named = [j for j, flip in enumerate(flippable) if flip]
        if tape == 2:
            return len(flippable) - 1
        if not named:
            return None
        return named[-1] if tape == 1 else named[0]


ALWAYS_YES = TablePromiseProblem(k=2, out_bits_choices=(2, 3), yes_num=2, yes_bits=1, salt=9)
THREE_QUARTERS = TablePromiseProblem(k=2, out_bits_choices=(2, 3), yes_num=3, yes_bits=2, salt=5)


BINDING_CASES = [(n, problem, attack)
                 for n, problem in [(1, SMALL), (1, ALWAYS_YES), (1, PROBLEM), (2, PROBLEM),
                                    (2, THREE_QUARTERS)]
                 for attack in (HonestSenderAttack(1), EquivocatingSenderAttack())]
BINDING_CASES += [(1, SMALL, ShiftingAttack()), (2, THREE_QUARTERS, ShiftingAttack())]


@pytest.mark.parametrize("n,problem,attack", BINDING_CASES)
def test_binding_counts_match_session_path(n, problem, attack):
    for stage in range(5):
        assert (szkcommit.hybrid_experiment(attack, n, problem, stage)
                == _session_path_hybrid(attack, n, problem, stage))
    assert break_probability(attack, n, problem) == _session_path_break(attack, n, problem)
    counted = decider_advantage(attack, n, problem)
    reference = _session_path_decider(attack, n, problem)
    assert (counted.pr_correct, counted.pr_e, counted.pr_e_and_no) == (
        reference.pr_correct, reference.pr_e, reference.pr_e_and_no)


def test_planted_no_instance_never_equivocates_at_plant():
    for n in (1, 2):
        no_xs = [PROBLEM.sample(c, n) for c in range(2**n)
                 if PROBLEM.classify(PROBLEM.sample(c, n)) == NO]
        for x in no_xs:
            for star in slot_list(n):
                for rho in coin_space(n):
                    run = run_binding_session(EquivocatingSenderAttack(), 0, n, PROBLEM, rho,
                                              plant_slot=star, planted_instance=x)
                    assert run.session.wi_verdict
                    assert star not in run.equivocal_slots


@pytest.mark.parametrize("n,yes_num,yes_bits", [(1, 1, 1), (2, 1, 2), (2, 1, 1), (2, 3, 2),
                                                (3, 1, 2), (3, 1, 1), (3, 3, 2),
                                                (4, 1, 2), (4, 1, 1), (4, 3, 2)])
def test_binding_closed_form(n, yes_num, yes_bits):
    """The equivocator commits zeros and re-opens the first flippable slot,
    so with y the share of sampler coins whose instance can be re-opened,
    a break has probability 1 - (1 - y)^(2n) and E at a uniform slot that
    probability over 2n.  The honest receiver's preamble is inadmissible
    iff all 2n instances are NO, with probability (1 - yes_rate)^(2n)."""
    problem = TablePromiseProblem(k=2, out_bits_choices=(2, 3), yes_num=yes_num,
                                  yes_bits=yes_bits, salt=13 * n + yes_num)
    insts = [problem.sample(c, n) for c in range(2**n)]
    y = Fraction(sum(idc_equivocation(x, idc_commit(x, 0, 0), 1) is not None for x in insts),
                 2**n)
    eps_star = 1 - (1 - y) ** (2 * n)
    report = hybrid_sweep(EquivocatingSenderAttack(), n, problem)
    assert report.eps_star == eps_star
    assert report.pr_e == {stage: eps_star / (2 * n) for stage in range(5)}
    decider = decider_advantage(EquivocatingSenderAttack(), n, problem)
    assert decider.pr_e == eps_star / (2 * n)
    assert decider.pr_correct == (1 + decider.pr_e) / 2
    assert decider.pr_e_and_no == 0
    assert y == problem.yes_rate
    hiding = hiding_experiment(honest_receiver(n, rho_seed=5), n, problem)
    assert hiding.inadmissible_prob == (1 - problem.yes_rate) ** (2 * n)


def test_binding_analysis_builds_no_session(monkeypatch):
    def no_session(self, *args, **kwargs):
        raise AssertionError("binding analysis constructed a ProtocolSession")

    monkeypatch.setattr(ProtocolSession, "__init__", no_session)
    hybrid_sweep(EquivocatingSenderAttack(), 2, PROBLEM)
    decider_advantage(EquivocatingSenderAttack(), 2, PROBLEM)


HYBRID_OK = dict(pr_e={stage: Fraction(1, 8) for stage in range(5)},
                 eps_star=Fraction(1, 2), n=2)
SLIVER = Fraction(1, 8) + Fraction(1, 10**12)


@pytest.mark.parametrize("change,message", [
    ({0: Fraction(1, 4)}, "stage 0 and 1 must agree exactly"),
    ({4: Fraction(1, 4)}, "stage 3 and 4 must agree exactly"),
    ({0: Fraction(1, 4), 1: Fraction(1, 4)}, "stage 1 vs 2 exceeds the share-commitment slack"),
    ({3: Fraction(1, 4), 4: Fraction(1, 4)}, "stage 2 vs 3 exceeds the proof slack"),
    ({stage: Fraction(1, 16) for stage in range(5)}, r"final stage below eps\*/\(2n\)"),
    # The checks are exact: a gap far below any float tolerance still fires.
    ({2: SLIVER}, "stage 1 vs 2 exceeds the share-commitment slack"),
    ({3: SLIVER, 4: SLIVER}, "stage 2 vs 3 exceeds the proof slack"),
])
def test_hybrid_report_checks_fire(change, message):
    HybridReport(**HYBRID_OK).check()
    report = HybridReport(**{**HYBRID_OK, "pr_e": {**HYBRID_OK["pr_e"], **change}})
    with pytest.raises(AssertionError, match=message):
        report.check()


@pytest.mark.parametrize("report,message", [
    (DeciderReport(Fraction(5, 8), Fraction(1, 4), Fraction(1, 16)),
     "equivocation on a planted NO instance"),
    (DeciderReport(Fraction(9, 16), Fraction(1, 4), Fraction(0)),
     "decider advantage below"),
])
def test_decider_report_checks_fire(report, message):
    DeciderReport(Fraction(5, 8), Fraction(1, 4), Fraction(0)).check()
    with pytest.raises(AssertionError, match=message):
        report.check()
