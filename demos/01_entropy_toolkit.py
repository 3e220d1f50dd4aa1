#!/usr/bin/env python3
"""Tour of the exact distribution toolkit: distances, entropies, and the
three inequalities everything else leans on."""

from fractions import Fraction

import numpy as np

from dcrlab.probkit import (
    Dist,
    JointDist,
    cond_entropy,
    jensen_log2_check,
    kl_chain_rule_check,
    kl_divergence,
    pinsker_check,
    shannon_entropy,
    stat_distance,
)

# Exact distributions carry rational masses, so equalities are equalities.
p = Dist({"a": Fraction(3, 4), "b": Fraction(1, 4)})
u = Dist.uniform(["a", "b"])
print("H(3/4, 1/4)      =", shannon_entropy(p), "bits")
print("TV vs uniform    =", stat_distance(p, u), "(a Fraction)")
print("KL vs uniform    =", kl_divergence(p, u), "= 1 - H(p):", 1 - shannon_entropy(p))

# Conditional entropy via the chain rule H(X|Y) = H(X,Y) - H(Y).
two_bits = JointDist({((a, b), a): Fraction(1, 4) for a in range(2) for b in range(2)})
print("\nH(two bits | first bit) =", cond_entropy(two_bits), "bit")

# The chain rule for divergence, evaluated along two independent routes.
rng = np.random.default_rng(0)
pj = JointDist({(i, j): float(v) for (i, j), v in np.ndenumerate(
    rng.dirichlet(np.ones(16)).reshape(4, 4))})
qj = JointDist({(i, j): float(v) for (i, j), v in np.ndenumerate(
    rng.dirichlet(np.ones(16)).reshape(4, 4))})
lhs, rhs = kl_chain_rule_check(pj, qj)
print(f"\nchain rule on a random 4x4 pair: direct {lhs:.12f} vs decomposed {rhs:.12f}")

# Pinsker ties the two metrics together; Jensen caps expected logs.
tv, bound = pinsker_check(Dist.point(0), Dist.uniform([0, 1]))
print(f"pinsker: tv = {tv}, sqrt((ln 2 / 2) KL) = {bound:.6f}")
e_log, log_e = jensen_log2_check(rng.uniform(0.5, 9.5, size=6))
print(f"jensen:  E[log2 X] = {e_log:.6f} <= log2 E[X] = {log_e:.6f}")
