#!/usr/bin/env python3
"""Two-message hiding commitments as hash families.

Hashing x = (bit, coins) to the commit message turns a random collision
into a pair of valid openings; when the scheme hides the bit to within
epsilon, the two openings disagree on the bit with probability at least
1/2 - 2 sqrt(epsilon).
"""

from dcrlab.commitments import (
    ClearTextCommitment,
    OpaqueCommitment,
    RandomFunctionCommitment,
    col_equivocation_rate,
    hiding_distance,
    markov_step_check,
    scheme_to_hash_family,
    string_variant_rate,
)

scheme = RandomFunctionCommitment(6, 3, num_seeds=6, seed=11)
first = scheme.first_message(0)  # receiver seed 0
com = (first, scheme.commit_value(first, 1, 9))  # plaintext 1, coins 9
print(f"{scheme.name}: committed to 1, verifier returns", scheme.verify(com, (1, 9)))

print("\nper-key hiding and equivocation:")
print(f"{'key':>4s} {'epsilon':>9s} {'Pr[b != b2]':>12s} {'1/2 - 2 sqrt(eps)':>18s}")
for h in scheme_to_hash_family(scheme):
    rep = col_equivocation_rate(scheme, h)
    print(f"{h.key:4d} {rep.epsilon:9.4f} {rep.rate:12.4f} {rep.lower_bound:18.4f}")
    assert markov_step_check(scheme, h).ok

print("\nextremes:")
opaque = OpaqueCommitment(4, num_seeds=1, seed=3)
h = scheme_to_hash_family(opaque).functions[0]
print(f"  bit-blind scheme:  eps = {float(hiding_distance(h, opaque.coin_bits))},"
      f" rate = {col_equivocation_rate(opaque, h).rate}")
clear = ClearTextCommitment(4)
h = scheme_to_hash_family(clear).functions[0]
print(f"  clear-text scheme: eps = {float(hiding_distance(h, clear.coin_bits))},"
      f" rate = {col_equivocation_rate(clear, h).rate}")

strings = OpaqueCommitment(4, num_seeds=1, seed=5, ell=3)
h = scheme_to_hash_family(strings).functions[0]
rep = string_variant_rate(strings, h)
print(f"\n3-bit plaintexts, bit-blind: Pr[b = b2] = {rep.collision_rate}"
      f" (2^-3 = 0.125), bound {rep.upper_bound}")
