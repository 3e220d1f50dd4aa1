#!/usr/bin/env python3
"""The random-collision game: how far is a sampler from the ideal finder?

The ideal finder draws x1 uniformly and x2 uniformly among the inputs
colliding with it.  A strategy's quality is the expected total variation
from that law over a random function of the family.
"""

import numpy as np

from dcrlab.hashfam import (
    ColAdversary,
    DiagonalAdversary,
    FixedPairAdversary,
    builtin_families,
    col_distribution,
    col_sample,
    dcrh_distance,
    uniform_random_family,
)

fam = uniform_random_family(4, 3, num_keys=3, seed=1)
h = fam.functions[0]
print(f"family {fam.name} with {len(fam)} keys; first key's fibers:")
for y, fiber in sorted(h.fibers.items()):
    print(f"  y={y}: {fiber}")

print("\nCol law of that key has", col_distribution(h).support_size(), "colliding pairs")
rng = np.random.default_rng(7)
print("three samples:", [col_sample(h, rng) for _ in range(3)])

print("\ngame values (0 = indistinguishable from the ideal finder):")
for adv in (ColAdversary(), DiagonalAdversary(), FixedPairAdversary((0, 0))):
    rep = dcrh_distance(fam, adv)
    print(f"  {adv.name:12s} distance = {rep.distance:.6f}")

print("\nacross the stock families at n=3:")
for family in builtin_families(3, num_keys=2, seed=5):
    rep = dcrh_distance(family, DiagonalAdversary())
    print(f"  {family.name:28s} diagonal-sampler distance = {rep.distance:.4f}")
