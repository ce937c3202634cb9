"""Simulated quantum annealing: success probability vs problem scale.

Sweeps the overall energy scale alpha of the K4 antiferromagnet at two
nesting levels and estimates the probability of decoding the logical ground
state, using the full programming-cycle protocol (fresh coupler noise, gauge
and vertex permutation per cycle). Nesting visibly rescues the success
probability at small alpha, where control noise and temperature dominate.

Runtime: about 15 seconds.
"""

import numpy as np

from nqac import brute_force_ground, estimate_success
from nqac.instances import k4_antiferromagnet
from nqac.nesting import encode_for_scale
from nqac.sqa import SqaParams, device_like_schedule, run_protocol

k4 = k4_antiferromagnet()
_, ground_states = brute_force_ground(k4)
schedule = device_like_schedule()
gamma_device = 0.3
alphas = (0.02, 0.05, 0.15, 0.5)

params = SqaParams(sweeps=800, trotter_slices=64, beta=0.1)

# one protocol call per nesting level samples every alpha, each on its own seed
cells = {}
for C in (1, 2, 3):
    points = [(encode_for_scale(k4, C, gamma_device, alpha), None, hash((C, alpha)) % 2**31)
              for alpha in alphas]
    samples = run_protocol(points, schedule, params, noise_sigma=0.05, cycles=8,
                           runs_per_cycle=100)
    for alpha, (npr, _, _), ss in zip(alphas, points, samples):
        P, se = estimate_success(ss, npr, None, ground_states)
        cells[alpha, C] = f"{P:.3f} +- {se:.3f}"

print("P(logical ground state), 8 cycles x 100 runs, sigma = 0.05 noise")
print(f"{'alpha':>7} | " + " | ".join(f"{'C=%d' % C:>14}" for C in (1, 2, 3)))
for alpha in alphas:
    print(f"{alpha:>7} | " + " | ".join(f"{cells[alpha, C]:>14}" for C in (1, 2, 3)))

print("\nhigher nesting keeps solving the problem as alpha shrinks")
