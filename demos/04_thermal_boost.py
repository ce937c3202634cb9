"""The energy boost of nesting, measured on thermal states.

Parallel tempering samples the exact Gibbs state of the nested problem (the
infinite-sweep limit of annealing). Overlaying the success curves P_C(alpha)
by rescaling alpha collapses them onto the unnested curve; the rescaling
factor mu_C approaches the ideal C^2, i.e. nesting acts as an effective
inverse-temperature boost beta -> C^2 beta.

Runtime: about three seconds.
"""

import numpy as np

from nqac import SuccessCurve, brute_force_ground, compute_boost, fit_eta, success
from nqac.instances import k4_antiferromagnet
from nqac.nesting import encode_for_scale
from nqac.pt import PtParams, geometric_ladder, thermal_boost_scan

k4 = k4_antiferromagnet()
_, ground_states = brute_force_ground(k4)

alphas = np.geomspace(0.004, 1.0, 14)
params = PtParams(betas=geometric_ladder(2.0, 12, 0.1), sweeps=10_000,
                  swap_interval=5)

# one batch samples every level; each level is a block of nested problems,
# one per alpha with the penalty fixed in device units, drawing from its own
# generator
Cs = (1, 2, 3, 4)
blocks = [([encode_for_scale(k4, C, 1.0, a) for a in alphas], 42) for C in Cs]
scans = thermal_boost_scan(blocks, params=params, ground_states=ground_states,
                           n_samples=800)
curves = []
for C, rows in zip(Cs, scans):
    # each row's ground-state hits, as (P, stderr)
    P, stderr = zip(*(success(units) for units in rows))
    curves.append(SuccessCurve(C=C, alphas=alphas, P=P, stderr=stderr))
    shown = ", ".join(f"{p:.2f}" for p in P[::3])
    print(f"C={C}: P(alpha) samples [{shown}]")

boost = compute_boost(curves)
print(f"\nboost factors (reference crossing at P0 = {boost.p0:.3f})")
for C, v in sorted(boost.mu.items()):
    mid, lo, hi = v
    print(f"  mu_{C} = {mid:6.2f}  [{lo:6.2f}, {hi:6.2f}]   (ideal C^2 = {C*C})")

eta = fit_eta(boost, fit_count=4)
print(f"\nmu_C ~ C^eta with eta = {eta:.2f} (ideal 2: a C^2 effective "
      "temperature reduction)")
