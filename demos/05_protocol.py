#!/usr/bin/env python3
"""The constant-round commitment protocol end to end: an honest session,
the hiding ledger, and the binding-to-decider story.
"""

from dcrlab.hashfam import HashFunction
from dcrlab.szkcommit import (
    EquivocatingSenderAttack,
    ProtocolSession,
    TablePromiseProblem,
    decider_advantage,
    hiding_experiment,
    honest_receiver,
    hybrid_sweep,
)

problem = TablePromiseProblem(k=4, salt=7)
print(f"promise problem: k={problem.k}, yes rate {problem.yes_rate},"
      f" balance tolerance {problem.balance_tol}")

# One honest session, phase by phase; every message lands on the transcript.
n = 2
session = ProtocolSession(n, problem)


def unpack(seed: int, width: int) -> dict:
    """One width-bit field of the seed per slot, lowest slot first."""
    return {slot: (seed >> (width * j)) & (2**width - 1)
            for j, slot in enumerate(session.slots)}


session.coin_toss_phase(rho=unpack(0b1101, n), sigma=unpack(0b0110, n))
session.instance_gen_phase()
session.commit_phase(m=1, share_seed=5, idc_coins=unpack(0xBEEF, problem.k))
opening = session.open_phase()
print(f"\nhonest session verified plaintext: {session.verify_opening(opening)};"
      f" {len(session.transcript)} messages:")
for phase, index, payload in session.transcript:
    if isinstance(payload, HashFunction):
        payload = f"{problem.classify(payload)} table, {payload.m}-bit outputs"
    print(f"  {phase:>12s} {index:2d}  {payload}")

# Hiding: enumerate every sender coin share, condition on the preamble.
out = hiding_experiment(honest_receiver(2, rho_seed=0b10010110), 2, problem)
print(f"\nhiding: inadmissible preambles {out.inadmissible_prob}"
      f" (union bound {out.union_bound});"
      f" worst conditional view distance {out.epsilon_given_admissible}")

# Binding: hybrid walk and the decider built from an equivocating sender.
report = hybrid_sweep(EquivocatingSenderAttack(), 2, problem)
print("\nbinding hybrids Pr[event]:",
      {stage: str(v) for stage, v in sorted(report.pr_e.items())})
print(f"break probability eps* = {report.eps_star}, floor eps*/(2n) = {report.eps_star / 4}")

decider = decider_advantage(EquivocatingSenderAttack(), 2, problem)
print(f"decider: Pr[correct] = {decider.pr_correct} = (1 + Pr[E])/2 with"
      f" Pr[E] = {decider.pr_e}; Pr[E and NO planted] = {decider.pr_e_and_no}")
