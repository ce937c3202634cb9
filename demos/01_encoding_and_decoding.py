"""Nesting an Ising problem and decoding it back.

Each logical spin becomes C copies bound by ferromagnetic penalties; every
logical coupling appears C^2 times, so the aligned sector of the encoded
problem sees the logical energy landscape magnified by C^2. Majority vote
over the copies recovers the logical configuration.
"""

import numpy as np

from nqac import (
    brute_force_ground,
    decode_batch,
    encode_nested,
    lift_logical,
    nested_energy_identity_check,
)
from nqac.instances import k4_antiferromagnet

k4 = k4_antiferromagnet()
ground_energy, ground_states = brute_force_ground(k4)
print(f"K4 antiferromagnet: ground energy {ground_energy}, "
      f"{ground_states.shape[0]} ground states (the two-up-two-down set)\n")

print("energy boost of the aligned sector")
print(f"{'C':>3} {'gamma':>6} {'nested E of a ground state':>28} {'C^2*E - penalty':>18}")
for C in (1, 2, 3, 4):
    npr = encode_nested(k4, C, gamma=0.5)
    got, predicted = nested_energy_identity_check(npr, ground_states[0])
    print(f"{C:>3} {npr.gamma:>6} {got:>28.6f} {predicted:>18.6f}")

print("\nmajority-vote decoding at C = 3 with one corrupted copy per vertex")
npr = encode_nested(k4, 3, gamma=0.5)
rng = np.random.default_rng(7)
logical = ground_states[0]
physical = lift_logical(npr, logical)
for i in range(4):
    physical[npr.copies[i, rng.integers(0, 3)]] *= -1  # flip one copy
decoded, ties = decode_batch(npr, None, physical[None, :], rng)
print(f"  sent    : {logical.tolist()}")
print(f"  decoded : {decoded[0].tolist()}  (ties broken by coin: {ties})")
assert np.array_equal(decoded[0], logical)
print("  single-copy errors on every vertex are corrected")
