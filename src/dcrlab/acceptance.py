"""The full verification battery, shared by the test suite and the CLI.

Each criterion function measures the quantities it is about, checks them
at the pinned tolerance, and returns a CriterionResult; nothing here is
sampled where enumeration is possible.  Every tolerance is a constant,
here or in the module whose chain it checks, and none is configured.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from dcrlab import commitments as cm
from dcrlab import entropy_gap as eg
from dcrlab import hashfam as hf
from dcrlab import probkit as pk
from dcrlab import szkcommit as szk
from dcrlab.generators import real_entropy
from dcrlab.reporting import csv_line


@dataclass
class CriterionResult:
    number: int | None  # None for a report outside the numbered battery
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    rows: list = field(default_factory=list)
    header: str | None = None
    artifact: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.number is None:
            return f"{self.name} [{status}]: {self.detail}"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail}"


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result
    return wrapper


# ---------------------------------------------------------------- criterion 1

@_timed
def criterion_real_entropy(seed: int = 0) -> CriterionResult:
    """Real entropy of the (hash, seed-reveal) generator equals n exactly
    for all five stock families at n = 2..10.

    With rational masses every conditional law here is dyadic, so the
    float entropy sums are exact and the equality is checked with zero
    tolerance."""
    worst = 0.0
    cases = 0
    for n in range(2, 11):
        for fam in hf.builtin_families(n, num_keys=2, seed=seed + n):
            value = real_entropy(eg.build_two_block_generator(fam))
            worst = max(worst, abs(value - n))
            cases += 1
    return CriterionResult(
        1, "real entropy equals n",
        worst == 0.0,
        f"{cases} family/n cases, worst deviation {worst:.3g} (exact)")


# ------------------------------------------------------------ criteria 2 and 3

@_timed
def criterion_gap_sweep(seed: int = 0, ns: range = range(2, 9),
                        num_keys: int = 4) -> CriterionResult:
    """Every consistent generator x family at each n in ``ns`` satisfies
    distance <= sqrt(kl1) + sqrt(kl2) <= 2 sqrt(gap) with per-term bounds
    kl1, kl2 <= gap (tolerance 1e-6).  Its rows are ``gap_sweep.csv``."""
    rows = []
    failures = []
    count = 0
    for n in ns:
        for fam in hf.builtin_families(n, num_keys=num_keys, seed=seed + 100 + n):
            for gt in eg.consistent_suite(fam):
                count += 1
                try:
                    rep = eg.gap_bound_report(gt, fam, tol=eg.SWEEP_TOL)
                except AssertionError as exc:
                    failures.append(str(exc))
                    continue
                rows.append(rep.csv_row())
                if not rep.headline_ok:
                    failures.append(f"{fam.name}/{gt.name}: headline bound fails")
    return CriterionResult(
        2, "gap-bound sweep",
        not failures,
        f"{count} (family, generator, n) cells checked"
        + (f"; failures: {failures[:3]}" if failures else ""),
        rows=sorted(rows), header=eg.GAP_CSV_HEADER, artifact="gap_sweep.csv")


@_timed
def criterion_ideal_tightness(seed: int = 0, max_n: int = 8) -> CriterionResult:
    """The brute-force reference generator sits at gap = 0 and distance = 0
    on every family (1e-9)."""
    worst_gap = 0.0
    worst_dist = 0.0
    for n in range(2, max_n + 1):
        for fam in hf.builtin_families(n, num_keys=2, seed=seed + 200 + n):
            rep = eg.gap_bound_report(eg.ideal_online(fam), fam)
            worst_gap = max(worst_gap, rep.gap)
            worst_dist = max(worst_dist, rep.distance)
    ok = worst_gap <= 1e-9 and worst_dist <= 1e-9
    return CriterionResult(
        3, "ideal generator tightness", ok,
        f"worst gap {worst_gap:.3g}, worst distance {worst_dist:.3g}")


# ---------------------------------------------------------------- criterion 4

def _flat_dirichlet(rng: np.random.Generator, size: int) -> list[float]:
    """``rng.dirichlet(np.ones(size)).tolist()``, float for float and with
    the same rng state after: at alpha = 1 numpy draws one standard
    exponential per outcome, adds them left to right and scales each by
    the inverse of the total.  This skips the argument checks numpy makes
    on every Dirichlet call."""
    draws = rng.standard_exponential(size).tolist()
    total = 0.0  # a plain loop: ``sum`` compensates from Python 3.12 on
    for v in draws:
        total += v
    scale = 1 / total
    return [v * scale for v in draws]


@_timed
def criterion_probkit_identities(seed: int = 0, trials: int = 10_000) -> CriterionResult:
    """Chain rule (1e-9), Pinsker, Jensen, KL >= 0, and the TV metric
    axioms on seeded random distribution pairs/triples."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed + 11)

    def rand_dist(size):
        return pk.Dist(dict(enumerate(_flat_dirichlet(rng, size))))

    def rand_joint(size):
        masses = _flat_dirichlet(rng, size * size)
        return pk.JointDist({divmod(k, size): v for k, v in enumerate(masses)})

    # Each trial draws from the shared rng and returns its violation, so
    # the checks run in this order with the draws they always had.
    def chain_rule():
        size = int(rng.integers(2, 6))
        lhs, rhs = pk.kl_chain_rule_check(rand_joint(size), rand_joint(size))
        return abs(lhs - rhs)

    def pinsker():
        size = int(rng.integers(2, 17))
        tv, bound = pk.pinsker_check(rand_dist(size), rand_dist(size))
        return tv - bound

    def jensen():
        vals = rng.uniform(0.01, 100.0, size=int(rng.integers(2, 10)))
        e_log, log_e = pk.jensen_log2_check(vals)
        return e_log - log_e

    def kl_nonnegative():
        size = int(rng.integers(2, 17))
        return -pk.kl_divergence(rand_dist(size), rand_dist(size))

    def tv_metric():
        size = int(rng.integers(2, 9))
        p, q, r = rand_dist(size), rand_dist(size), rand_dist(size)
        d_pq = float(pk.stat_distance(p, q))
        return max(-d_pq,
                   abs(d_pq - float(pk.stat_distance(q, p))),
                   d_pq - float(pk.stat_distance(p, r)) - float(pk.stat_distance(r, q)))

    rows = []
    ok = True
    for name, trial, tolerance in [("chain-rule", chain_rule, 1e-9),
                                   ("pinsker", pinsker, 1e-12),
                                   ("jensen", jensen, 1e-12),
                                   ("kl-nonnegative", kl_nonnegative, 1e-9),
                                   ("tv-metric", tv_metric, 1e-12)]:
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, trial())
        rows.append(csv_line([name, trials, worst, worst <= tolerance]))
        ok &= worst <= tolerance

    return CriterionResult(
        4, "distribution-toolkit identities", bool(ok),
        f"5 identity families x {trials} seeded trials",
        rows=rows, header="check,trials,worst_violation,pass",
        artifact="entropy_identities.csv")


# ---------------------------------------------------------------- criterion 5

@_timed
def criterion_commit_reduction(seed: int = 0, num_seeds: int = 100,
                               k: int = 6, m: int = 3) -> CriterionResult:
    """Random-function bit commitments with k coin bits and m-bit messages
    over ``num_seeds`` keys: equivocation rate >= 1/2 - 2 sqrt(eps)
    (1e-9) and the exact averaging step; plus the ell=3 string variant
    bound at k=4, m=3.  Its rows, in key order, are ``commit_reduce.csv``."""
    scheme = cm.RandomFunctionCommitment(k, m, num_seeds=num_seeds, seed=seed + 31)
    fam = cm.scheme_to_hash_family(scheme)
    rows = []
    failures = []
    for idx, h in enumerate(fam):
        try:
            rep = cm.col_equivocation_rate(scheme, h)
        except AssertionError as exc:
            failures.append(str(exc))
            continue
        rows.append(csv_line([scheme.name, idx, rep.epsilon, rep.rate, rep.lower_bound]))
        markov = cm.markov_step_check(scheme, h)
        if not markov.ok:
            failures.append(f"averaging step fails at key {idx}")

    string_scheme = cm.RandomFunctionCommitment(4, 3, num_seeds=num_seeds,
                                                seed=seed + 32, ell=3)
    for idx, h in enumerate(cm.scheme_to_hash_family(string_scheme)):
        try:
            cm.string_variant_rate(string_scheme, h)
        except AssertionError as exc:
            failures.append(f"string variant at key {idx}: {exc}")
    return CriterionResult(
        5, "two-message commitment reduction",
        not failures,
        f"{num_seeds} bit keys + {num_seeds} string keys"
        + (f"; failures: {failures[:3]}" if failures else ""),
        rows=rows, header="scheme,h_index,epsilon,rate,bound", artifact="commit_reduce.csv")


# ---------------------------------------------------------------- criterion 6

@_timed
def criterion_protocol_completeness(seed: int = 0) -> CriterionResult:
    """Completeness at n=2, k=4 over exhaustive coins (the joint space
    factors into per-slot commitment validity, coin-toss bookkeeping, and
    share reconstruction, each exhausted; the full joint is additionally
    enumerated at n=1), plus the tamper sweep on NO instances."""
    problem = szk.TablePromiseProblem(k=4, salt=seed + 41)
    n = 2
    slots = szk.slot_list(n)
    failures = []

    # Per-slot commitment validity, every instance x bit x coin value.
    for coins_val in range(2**n):
        inst = problem.sample(coins_val, n)
        for b in (0, 1):
            for r in range(2**problem.k):
                if not szk.idc_verify(inst, szk.idc_commit(inst, b, r), b, r):
                    failures.append(f"idc replay fails on coins {coins_val}")
    # Coin-toss and share-reconstruction factors; at every per-slot (rho, sigma)
    # (slot j holds rho + j) a session must fix r and its instances from rho xor sigma.
    for rho_v in range(2**n):
        for sigma_v in range(2**n):
            rho = {s: (rho_v + j) % 2**n for j, s in enumerate(slots)}
            sess = szk.ProtocolSession(n, problem).coin_toss_phase(
                rho, {s: sigma_v for s in slots}).instance_gen_phase()
            if any(sess.r[s] != rho[s] ^ sigma_v
                   or sess.instances[s] != problem.sample(rho[s] ^ sigma_v, n) for s in slots):
                failures.append("coin-toss xor bookkeeping broken")
    for m in (0, 1):
        for s in range(2 ** (2 * n - 1)):
            if szk.xor_all(szk.derive_shares(m, s, slots).values()) != m:
                failures.append("share reconstruction broken")

    # Full joint at n=1 with a k=2 problem (4*4*2*16*2 = 1024 complete sessions).
    small = szk.TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=seed + 42)
    ok_runs = 0
    for rho_seed in range(4):
        for sigma_seed in range(4):
            for share_seed in range(2):
                for idc_seed in range(2**4):
                    for m in (0, 1):
                        sess = szk.ProtocolSession(1, small)
                        sl = [(0, 0), (0, 1)]
                        sess.coin_toss_phase(
                            {s: (rho_seed >> j) & 1 for j, s in enumerate(sl)},
                            {s: (sigma_seed >> j) & 1 for j, s in enumerate(sl)})
                        sess.instance_gen_phase()
                        sess.commit_phase(m=m, share_seed=share_seed, idc_coins={
                            s: (idc_seed >> (2 * j)) & 3 for j, s in enumerate(sl)})
                        if sess.verify_opening(sess.open_phase()) != m:
                            failures.append("full-joint session failed to verify")
                        else:
                            ok_runs += 1

    # Tamper sweep: single-share flips on all-NO sessions always reject.
    no_coins = [c for c in range(2**n)
                if problem.classify(problem.sample(c, n)) == szk.NO]
    for rho_val in no_coins:
        for idc_seed in range(2**8):
            sess = szk.ProtocolSession(n, problem)
            sess.coin_toss_phase({s: rho_val for s in slots}, {s: 0 for s in slots})
            sess.instance_gen_phase()
            sess.commit_phase(m=idc_seed & 1, share_seed=(idc_seed >> 1) & 7,
                              idc_coins={s: (idc_seed >> (4 * j)) & 15
                                         for j, s in enumerate(slots)})
            opening = sess.open_phase()
            for slot in slots:
                tampered = dict(opening)
                bit, c = tampered[slot]
                tampered[slot] = (1 - bit, c)
                if sess.verify_opening(tampered) is not None:
                    failures.append("tampered share accepted on a NO instance")
    return CriterionResult(
        6, "protocol completeness and tampering",
        not failures,
        f"factored n=2 sweep + {ok_runs} full-joint n=1 sessions + NO-instance tamper sweep"
        + (f"; failures: {failures[:3]}" if failures else ""))


# ---------------------------------------------------------------- criterion 7

@_timed
def criterion_binding_reduction(seed: int = 0) -> CriterionResult:
    """Hybrid stages agree under ideal components, the final stage clears
    eps*/(2n), and the decider's success is exactly (1 + Pr[E]) / 2."""
    problem = szk.TablePromiseProblem(k=4, salt=seed + 51)
    n = 2
    attack = szk.EquivocatingSenderAttack()
    failures = []
    rows = []
    try:
        hybrids = szk.hybrid_sweep(attack, n, problem)
        for stage, value in sorted(hybrids.pr_e.items()):
            rows.append(csv_line([f"hybrid_{stage}_pr_event", value]))
        rows.append(csv_line(["break_probability", hybrids.eps_star]))
    except AssertionError as exc:
        failures.append(f"hybrids: {exc}")
    try:
        decider = szk.decider_advantage(attack, n, problem)
        rows.append(csv_line(["decider_correct", decider.pr_correct]))
        rows.append(csv_line(["decider_pr_event", decider.pr_e]))
        if decider.pr_e == 0:
            failures.append("equivocator never triggered the event")
    except AssertionError as exc:
        failures.append(f"decider: {exc}")
    detail = "hybrid stages, eps*/(2n), and exact decider accounting at n=2, k=4"
    return CriterionResult(
        7, "binding-to-decider reduction",
        not failures,
        detail + (f"; failures: {failures[:3]}" if failures else ""),
        rows=rows, header="metric,value", artifact="szk_binding.csv")


# ---------------------------------------------------------------- criterion 8

@_timed
def criterion_hiding_analysis(seed: int = 0) -> CriterionResult:
    """Inadmissible-preamble probability at most 2 (1 - yes_rate)^n at
    n = 1, 2, 3 (exactly), and conditional view distance at most the best
    sent-YES epsilon (asserted inside the experiment, 1e-9)."""
    failures = []
    rows = []
    for n in (1, 2, 3):
        problem = szk.TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=seed + 61)
        spec = szk.honest_receiver(n, rho_seed=seed * 7 + 5)
        try:
            out = szk.hiding_experiment(spec, n, problem)
        except AssertionError as exc:
            failures.append(f"n={n}: {exc}")
            continue
        rows.append(csv_line([n, str(out.inadmissible_prob), out.union_bound,
                              out.epsilon_given_admissible]))
        expected = (1 - problem.yes_rate) ** (2 * n)
        if out.inadmissible_prob != expected:
            failures.append(f"n={n}: inadmissible {out.inadmissible_prob} != {expected}")
    return CriterionResult(
        8, "hiding analysis", not failures,
        "honest receiver, n in {1,2,3}, exhaustive sender coins"
        + (f"; failures: {failures[:3]}" if failures else ""),
        rows=rows, header="n,inadmissible_prob,union_bound,epsilon_given_admissible",
        artifact="szk_hiding.csv")


# --------------------------------------------------------- the collision game

@_timed
def collision_game_table(seed: int, ns: range, num_keys: int, mode: str,
                         samples: int) -> CriterionResult:
    """E_h TV(A(h), Col(h)) of each stock family at each n in ``ns`` for Col,
    the diagonal and the rewound ``consistent_suite`` adversaries, outside
    the numbered battery.  Monte-Carlo games draw from one rng per n."""
    rows = []
    failures = []
    for n in ns:
        rng = np.random.default_rng(seed + n)
        for fam in hf.builtin_families(n, num_keys=num_keys, seed=seed + n):
            adversaries = [hf.ColAdversary(), hf.DiagonalAdversary()]
            adversaries += [eg.RewindingAdversary(gt, fam) for gt in eg.consistent_suite(fam)]
            for adv in adversaries:
                try:
                    rep = hf.dcrh_distance(fam, adv, mode=mode, samples=samples, rng=rng)
                except AssertionError as exc:
                    failures.append(f"{fam.name}/{adv.name}: {exc}")
                    continue
                rows.append(csv_line([fam.name, n, adv.name, rep.mode, rep.samples,
                                      rep.distance, rep.ci_half_width]))
    return CriterionResult(
        None, "collision-game table", not failures,
        f"{len(rows) + len(failures)} (family, adversary, n) games, {mode}"
        + (f"; failures: {failures[:3]}" if failures else ""),
        rows=sorted(rows), header="family,n,adversary,mode,samples,distance,ci_half_width",
        artifact="dcrh_game.csv")


# ------------------------------------------------------------- fault injection

@_timed
def fault_control(seed: int = 0) -> CriterionResult:
    """Negative control: an inconsistent generator is forced through the
    rewinding reduction with its consistency check bypassed; the
    always-collide invariant must then fail, which must surface as a
    failing line and a nonzero exit."""
    fam = hf.identity_family(3)
    adv = eg.RewindingAdversary(eg.mismatched_online(fam), fam, _checked=True)
    rate = eg.collision_rate(adv)
    return CriterionResult(
        0, "injected-fault control", rate == 1,
        f"collision rate {rate} (a consistent generator would give 1)")


# ---------------------------------------------------------------- criterion 9

@_timed
def criterion_determinism(seed: int = 0) -> CriterionResult:
    """The gap sweep at n = 2..4 renders the same rows twice in one
    process; byte identity across processes is a test, which runs the CLI
    twice and compares bytes."""
    once = criterion_gap_sweep(seed, ns=range(2, 5), num_keys=2)
    again = criterion_gap_sweep(seed, ns=range(2, 5), num_keys=2)
    same = once.rows == again.rows
    return CriterionResult(
        9, "deterministic reports", same,
        f"gap-sweep n=2..4 rendered twice in one process {'matches' if same else 'differs'}; "
        "the test suite checks byte identity across processes")


# ----------------------------------------------------------------------- runner

def run_all(seed: int = 0, inject_fault: bool = False, fast: bool = False) -> list[CriterionResult]:
    """Criteria 1-8, then the fault control when it is injected, then
    criterion 9."""
    max_n = 5 if fast else 8
    results = [
        criterion_real_entropy(seed),
        criterion_gap_sweep(seed, ns=range(2, max_n + 1)),
        criterion_ideal_tightness(seed, max_n=max_n),
        criterion_probkit_identities(seed, trials=2_000 if fast else 10_000),
        criterion_commit_reduction(seed, num_seeds=20 if fast else 100),
        criterion_protocol_completeness(seed),
        criterion_binding_reduction(seed),
        criterion_hiding_analysis(seed),
    ]
    if inject_fault:
        results.append(fault_control(seed))
    results.append(criterion_determinism(seed))
    return results
