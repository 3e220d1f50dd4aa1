"""The benchmark's workloads: inputs built from a seed, operations, checks.

Each workload's ``build(seed)`` returns a list of operations.  An operation
is one call chain into dcrlab (``run``, the only code timed) and a check of
its result (``check``), which returns a list of failure messages.  The
checks recompute each number apart from the program, with numpy over the
generated truth tables and arrays, or test a property the method must
have.  No check compares against stored output.

Building inputs (families, commitment schemes, promise problems, random
arrays) is set-up; everything that derives a law, a distance or an
entropy from them is an operation.
"""

import copy
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from dcrlab import commitments as cm
from dcrlab import entropy_gap as eg
from dcrlab import hashfam as hf
from dcrlab import probkit as pk
from dcrlab import szkcommit as szk


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    group: str | None = None  # hash-family kind, for per-family cell time


def _late(module, name: str, *args, **kwargs):
    """Call ``module.name`` looked up at run time, so that traced mode's
    wrapper, installed after the inputs are built, sees the call."""
    return getattr(module, name)(*args, **kwargs)


def _close(name, got, want, tol) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, reference {want!r} (tol {tol})"]


def _at_most(name, got, bound, tol) -> list:
    if got <= bound + tol:
        return []
    return [f"{name} = {got!r} above {bound!r} (tol {tol})"]


# ------------------------------------------------------------------- gap-grid

# At n = 7 one round would take about 20 s (9 s in the constant/ideal cell
# alone), leaving room for one round in a 30 s run.
GAP_NS = range(2, 7)
GAP_KEYS = 4
GAP_REF_TOL = 1e-9


def _fiber_sizes(table: np.ndarray) -> np.ndarray:
    """Size of the fiber of h(x), for every input x."""
    return np.bincount(table)[table]


def _diagonal_law(generator: str, table: np.ndarray) -> np.ndarray:
    """Law of the rewound pair's common value x (x1 = x2) for generators
    whose second block has a single coin: honest, lazy and skewed1."""
    size = len(table)
    if generator == "honest":
        return np.full(size, 1.0 / size)
    if generator == "lazy":
        law = np.zeros(size)
        law[0] = 1.0  # min(h^-1(h(0))) is 0
        return law
    if generator == "skewed1":
        law = np.zeros(size)
        law[: size // 2] = 2.0 / size  # top seed bit forced to 0
        return law
    raise ValueError(generator)


def gap_reference(family: hf.HashFamily, generator: str) -> dict:
    """gap, kl1, kl2 and distance, averaged over keys, from the tables."""
    if generator == "ideal":
        return {"gap": 0.0, "kl1": 0.0, "kl2": 0.0, "distance": 0.0}
    n = family.n
    totals = {"gap": 0.0, "kl1": 0.0, "kl2": 0.0, "distance": 0.0}
    for h in family:
        table = np.asarray(h.table)
        sizes = _fiber_sizes(table)
        law = _diagonal_law(generator, table)
        col_diag = 1.0 / (2**n * sizes)  # Col(h) mass on (x, x)
        off_diag = 1.0 - col_diag.sum()
        support = law > 0
        image_law = np.bincount(table, weights=law)
        image_law = image_law[image_law > 0]
        per_key = {
            "gap": n + float((image_law * np.log2(image_law)).sum()),
            "kl1": float((law[support] * np.log2(law[support] * 2**n)).sum()),
            "kl2": float((law * np.log2(sizes)).sum()),
            "distance": 0.5 * (float(np.abs(law - col_diag).sum()) + off_diag),
        }
        for key, value in per_key.items():
            totals[key] += value / len(family)
    return totals


def check_gap(family: hf.HashFamily, generator: str, rep: eg.GapReport) -> list:
    tol = eg.SWEEP_TOL
    bad = []
    if rep.real != family.n:
        bad.append(f"real entropy {rep.real!r} != n = {family.n}")
    bad += _at_most("distance", rep.distance, rep.bound, tol)
    bad += _at_most("sqrt(kl1) + sqrt(kl2)", rep.bound, 2 * math.sqrt(rep.gap), tol)
    bad += _at_most("kl1", rep.kl1, rep.gap, tol)
    bad += _at_most("kl2", rep.kl2, rep.gap, tol)
    for key, want in gap_reference(family, generator).items():
        bad += _close(key, getattr(rep, key), want, GAP_REF_TOL)
    return bad


def build_gap_grid(seed: int) -> list[Op]:
    ops = []
    for n in GAP_NS:
        for family in hf.builtin_families(n, num_keys=GAP_KEYS, seed=1000 * seed + n):
            kind = family.name.split("[")[0]
            for gt in eg.consistent_suite(family):
                ops.append(Op(
                    f"{kind}/{gt.name}/n={n}",
                    partial(_late, eg, "gap_bound_report", gt, family, tol=eg.SWEEP_TOL),
                    partial(check_gap, family, gt.name),
                    group=kind,
                ))
    return ops


def perturb_gap(rep: eg.GapReport) -> eg.GapReport:
    out = copy.copy(rep)
    out.distance += 1e-6
    return out


# ------------------------------------------------------------ commit-protocol

# 300 keys of each scheme make the reduction (about 13 s) comparable with
# the protocol analysis (about 16 s, most of it hiding at n = 3).
BIT_K, BIT_M, BIT_KEYS = 6, 3, 300
STRING_ELL, STRING_K, STRING_M, STRING_KEYS = 3, 4, 3, 300
HIDING_NS = (1, 2, 3)
BINDING_N = 2


def _commit_counts(table, ell: int, k: int, m: int) -> np.ndarray:
    """counts[b, c]: coin values r with commit(b, r) = c."""
    rows = np.asarray(table).reshape(2**ell, 2**k)
    return np.stack([np.bincount(row, minlength=2**m) for row in rows])


def check_bit_key(table, result) -> list:
    rep, markov = result
    counts = _commit_counts(table, 1, BIT_K, BIT_M)
    n0, n1 = counts
    total = n0 + n1
    used = total > 0
    rate = float((2 * n0[used] * n1[used] / (2 ** (BIT_K + 1) * total[used])).sum())
    eps = 0.5 * float(np.abs(n0 - n1).sum()) / 2**BIT_K
    bad = _close("rate", rep.rate, rate, 1e-12) + _close("epsilon", rep.epsilon, eps, 1e-12)
    if rep.rate < 0.5 - 2 * math.sqrt(eps) - 1e-9:
        bad.append(f"rate {rep.rate!r} below 1/2 - 2 sqrt(eps)")
    # The averaging step: commit values whose posterior on b is at least
    # sqrt(eps) from uniform carry at most sqrt(eps) of the mass.
    posterior_tv = np.abs(n0[used] - n1[used]) / (2 * total[used])
    heavy = 0.0
    if eps > 0:
        heavy = float(total[used][posterior_tv >= math.sqrt(eps)].sum()) / 2 ** (BIT_K + 1)
    bad += _close("heavy fraction", markov.heavy_fraction, heavy, 1e-12)
    if not markov.ok or heavy > math.sqrt(eps) + 1e-9:
        bad.append("averaging step fails")
    return bad


def check_string_key(table, rep) -> list:
    counts = _commit_counts(table, STRING_ELL, STRING_K, STRING_M)
    total = counts.sum(axis=0)
    used = total > 0
    same = float(((counts[:, used] ** 2).sum(axis=0) / total[used]).sum()) / 2 ** (STRING_ELL + STRING_K)
    eps = max(0.5 * float(np.abs(counts[b0] - counts[b1]).sum()) / 2**STRING_K
              for b0 in range(2**STRING_ELL) for b1 in range(b0 + 1, 2**STRING_ELL))
    bad = _close("Pr[b = b']", rep.collision_rate, same, 1e-12)
    bad += _close("epsilon", rep.epsilon, eps, 1e-12)
    bad += _at_most("Pr[b = b']", rep.collision_rate,
                    2.0**-STRING_ELL + 2 * math.sqrt(eps), 1e-9)
    return bad


def check_hiding(n: int, problem: szk.TablePromiseProblem, out: szk.HidingOutcome) -> list:
    expected = (1 - problem.yes_rate) ** (2 * n)
    bad = []
    if out.inadmissible_prob != expected:
        bad.append(f"n={n}: inadmissible {out.inadmissible_prob} != {expected}")
    bad += _at_most("inadmissible probability", float(out.inadmissible_prob),
                    2 * float(1 - problem.yes_rate) ** n, 1e-9)
    return bad


def check_hybrid(report: szk.HybridReport) -> list:
    bad = []
    if report.pr_e[0] != report.pr_e[1]:
        bad.append(f"hybrid stages 0 and 1 differ: {report.pr_e[0]} vs {report.pr_e[1]}")
    if report.pr_e[3] != report.pr_e[4]:
        bad.append(f"hybrid stages 3 and 4 differ: {report.pr_e[3]} vs {report.pr_e[4]}")
    if report.pr_e[4] < report.eps_star / (2 * report.n):
        bad.append(f"final stage {report.pr_e[4]} below eps*/(2n)")
    return bad


def check_decider(report: szk.DeciderReport) -> list:
    bad = []
    if report.pr_correct != (1 + report.pr_e) / 2:
        bad.append(f"decider {report.pr_correct} != (1 + {report.pr_e}) / 2")
    if report.pr_e_and_no != 0:
        bad.append(f"equivocation on a NO instance: {report.pr_e_and_no}")
    if not report.pr_e > 0:
        bad.append("the attack never equivocated")
    return bad


def build_commit_protocol(seed: int) -> list[Op]:
    bit = cm.RandomFunctionCommitment(BIT_K, BIT_M, num_seeds=BIT_KEYS, seed=10 * seed + 1)
    string = cm.RandomFunctionCommitment(STRING_K, STRING_M, num_seeds=STRING_KEYS,
                                         seed=10 * seed + 2, ell=STRING_ELL)
    hiding_problem = szk.TablePromiseProblem(k=2, out_bits_choices=(2, 3), salt=10 * seed + 3)
    binding_problem = szk.TablePromiseProblem(k=4, salt=10 * seed + 4)
    attack = szk.EquivocatingSenderAttack()
    families = {}  # filled by the scheme_to_hash_family operations

    def reduce(scheme):
        families[scheme.name] = cm.scheme_to_hash_family(scheme)
        return families[scheme.name]

    def bit_key(idx):
        h = families[bit.name].functions[idx]
        return cm.col_equivocation_rate(bit, h), cm.markov_step_check(bit, h)

    def string_key(idx):
        return cm.string_variant_rate(string, families[string.name].functions[idx])

    ops = []
    for scheme, per_key, check, keys in ((bit, bit_key, check_bit_key, BIT_KEYS),
                                         (string, string_key, check_string_key, STRING_KEYS)):
        ops.append(Op(f"reduce/{scheme.name}", partial(reduce, scheme),
                      partial(_check_family, scheme)))
        for idx in range(keys):
            # The receiver's first message is the commit table f(b || r).
            table = scheme.first_message(scheme.receiver_seeds[idx])
            ops.append(Op(f"key/{scheme.name}/{idx}", partial(per_key, idx),
                          partial(check, table)))
    for n in HIDING_NS:
        spec = szk.honest_receiver(n, rho_seed=7 * seed + 5)
        ops.append(Op(f"hiding/n={n}",
                      partial(_late, szk, "hiding_experiment", spec, n, hiding_problem,
                              keep_records=n <= 2),
                      partial(check_hiding, n, hiding_problem)))
    ops.append(Op(f"hybrid/n={BINDING_N}",
                  partial(_late, szk, "hybrid_sweep", attack, BINDING_N, binding_problem),
                  check_hybrid))
    ops.append(Op(f"decider/n={BINDING_N}",
                  partial(_late, szk, "decider_advantage", attack, BINDING_N, binding_problem),
                  check_decider))
    return ops


def _check_family(scheme, family: hf.HashFamily) -> list:
    bad = []
    if len(family) != len(scheme.receiver_seeds):
        bad.append(f"{len(family)} keys for {len(scheme.receiver_seeds)} receiver seeds")
    for seed, h in zip(scheme.receiver_seeds, family):
        if h.table != scheme.first_message(seed):
            bad.append(f"key {seed}: h(b || r) differs from the commit table")
            break
    return bad


def perturb_commit(result):
    """The rate moves by one Col tape's mass, 2^-(k+1)."""
    rep, markov = result
    rep = copy.copy(rep)
    rep.rate += 2.0 ** -(BIT_K + 1)
    return rep, markov


# ----------------------------------------------------------------- float-laws

FLOAT_TRIALS = 8000
MC_N = 6
MC_KEYS = 4
MC_SAMPLES = 8000


def _law(values: np.ndarray) -> dict:
    return dict(enumerate(values.tolist()))


def _joint(values: np.ndarray) -> dict:
    return {(i, j): v for (i, j), v in np.ndenumerate(values)}


def _run_pair(pm, qm):
    p, q = pk.Dist(pm), pk.Dist(qm)
    return pk.stat_distance(p, q), pk.kl_divergence(p, q), pk.pinsker_check(p, q)


def check_pair(p: np.ndarray, q: np.ndarray, result) -> list:
    tv, kl, (pinsker_tv, pinsker_bound) = result
    bad = _close("tv", float(tv), 0.5 * float(np.abs(p - q).sum()), 1e-12)
    bad += _close("kl", kl, float((p * np.log2(p / q)).sum()), 1e-9)
    bad += _close("pinsker tv", pinsker_tv, float(tv), 0.0)
    bad += _at_most("pinsker tv", pinsker_tv, pinsker_bound, 1e-12)
    return bad


def _run_joint(pm, qm):
    pj, qj = pk.JointDist(pm), pk.JointDist(qm)
    return pk.kl_chain_rule_check(pj, qj), pk.cond_entropy(pj)


def _entropy(values: np.ndarray) -> float:
    return -float((values * np.log2(values)).sum())


def check_joint(p: np.ndarray, q: np.ndarray, result) -> list:
    (lhs, rhs), h_cond = result
    bad = _close("chain rule, right side", rhs, lhs, 1e-9)
    bad += _close("kl", lhs, float((p * np.log2(p / q)).sum()), 1e-9)
    bad += _close("H(X|Y)", h_cond, _entropy(p) - _entropy(p.sum(axis=0)), 1e-9)
    return bad


def _run_triple(weights, laws):
    dists = [pk.Dist(m) for m in laws]
    mixed = pk.mixture(zip(weights, dists))
    p, q, r = dists
    return mixed, pk.stat_distance(p, q), pk.stat_distance(p, r), pk.stat_distance(r, q)


def check_triple(weights: np.ndarray, laws: np.ndarray, result) -> list:
    mixed, d_pq, d_pr, d_rq = result
    want = weights @ laws
    got = np.array([mixed.prob(i) for i in range(laws.shape[1])], dtype=float)
    bad = _close("mixture mass", float(np.abs(got - want).max()), 0.0, 1e-12)
    bad += _close("tv(p, q)", float(d_pq), 0.5 * float(np.abs(laws[0] - laws[1]).sum()), 1e-12)
    bad += _at_most("tv(p, q)", float(d_pq), float(d_pr) + float(d_rq), 1e-12)
    return bad


def mc_reference(family: hf.HashFamily, adversary: hf.Adversary) -> float:
    """Exact game value: 0 for the ideal finder, and for the diagonal
    finder the mean of (2^n - |image|) / 2^n over keys."""
    if isinstance(adversary, hf.ColAdversary):
        return 0.0
    size = 2**family.n
    return sum((size - len(set(h.table))) / size for h in family) / len(family)


def check_mc(family, adversary, report: hf.GameReport) -> list:
    bad = _close("monte-carlo game value", report.distance, mc_reference(family, adversary),
                 report.ci_half_width)
    if report.mode != "monte-carlo" or report.samples != MC_SAMPLES:
        bad.append(f"report mode {report.mode} with {report.samples} samples")
    return bad


def build_float_laws(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for i in range(FLOAT_TRIALS):
        size = int(rng.integers(2, 17))
        p, q = rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))
        ops.append(Op(f"pair/{i}", partial(_run_pair, _law(p), _law(q)), partial(check_pair, p, q)))
        size = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(size * size)).reshape(size, size)
        q = rng.dirichlet(np.ones(size * size)).reshape(size, size)
        ops.append(Op(f"joint/{i}", partial(_run_joint, _joint(p), _joint(q)),
                      partial(check_joint, p, q)))
        size = int(rng.integers(2, 9))
        weights = rng.dirichlet(np.ones(3))
        laws = rng.dirichlet(np.ones(size), size=3)
        ops.append(Op(f"triple/{i}",
                      partial(_run_triple, weights.tolist(), [_law(row) for row in laws]),
                      partial(check_triple, weights, laws)))
    for family in hf.builtin_families(MC_N, num_keys=MC_KEYS, seed=1000 * seed + 17):
        for adversary in (hf.ColAdversary(), hf.DiagonalAdversary()):
            tapes = np.random.default_rng([seed, 5, len(ops)])
            ops.append(Op(f"monte-carlo/{family.name}/{adversary.name}",
                          partial(_late, hf, "dcrh_distance", family, adversary,
                                  mode="monte-carlo", samples=MC_SAMPLES, rng=tapes),
                          partial(check_mc, family, adversary)))
    return ops


def perturb_float(result):
    tv, kl, pinsker = result
    return tv + 1e-9, kl, pinsker


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list]
    # The negative control: ``perturb`` falsifies the result of the first
    # operation whose label starts with ``fault_prefix``.
    fault_prefix: str
    perturb: Callable[[object], object]


WORKLOADS = {
    "gap-grid": Workload(build_gap_grid, "identity/honest/", perturb_gap),
    "commit-protocol": Workload(build_commit_protocol, "key/", perturb_commit),
    "float-laws": Workload(build_float_laws, "pair/", perturb_float),
}
