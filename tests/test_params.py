"""No sampler ignores a knob: for every field of its parameter object, and for
its seed and noise arguments, each entry point gives other records when the
value changes."""

from dataclasses import fields, replace

import numpy as np
import pytest

from nqac.instances import k4_antiferromagnet
from nqac.ising import brute_force_ground
from nqac.nesting import encode_for_scale
from nqac.pt import PtParams, run_pt, thermal_boost_scan
from nqac.sqa import SqaParams, default_schedule, run_protocol, run_sqa, run_sqa_chain

K4 = k4_antiferromagnet()
NESTED = encode_for_scale(K4, 2, 0.5, 0.3)


def _sqa(params, seed=1):
    return run_sqa(NESTED.nested, default_schedule(), params, 16, seed).configs


def _chain(params, seed=1):
    return run_sqa_chain(NESTED.nested, default_schedule(), params, 8, 4, seed, s_freeze=0.5)


def _protocol(params, seed=1, noise_sigma=0.05):
    [ss] = run_protocol([(NESTED, None, seed)], default_schedule(), params, noise_sigma, 2, 8)
    return ss.configs


def _pt(params, seed=1):
    return np.stack([ss.configs for ss in run_pt(NESTED.nested, params, 5, seed).values()])


def _scan(params, seed=1):
    # a run lengthens to 2 x n_samples swap intervals, here 80 of the 100
    return thermal_boost_scan(K4, [2], [0.5], [0.05, 0.1, 0.2, 0.4], params,
                              brute_force_ground(K4)[1], 40, [[seed]])


SQA = SqaParams(sweeps=3, trotter_slices=4, beta=0.5)
PT = PtParams(betas=(0.2, 0.5), sweeps=500, swap_interval=5)
#: a value of every field at which it takes effect
SQA_CHANGED = {"sweeps": 4, "trotter_slices": 8, "beta": 1.0}
PT_CHANGED = {"betas": (0.2, 1.0), "sweeps": 1000, "swap_interval": 3}

#: entry point -> (run, params, changed fields, changed arguments)
CASES = {
    "run_sqa": (_sqa, SQA, SQA_CHANGED, {"seed": 2}),
    "run_sqa_chain": (_chain, SQA, SQA_CHANGED, {"seed": 2}),
    "run_protocol": (_protocol, SQA, SQA_CHANGED, {"seed": 2, "noise_sigma": 0.0}),
    "run_pt": (_pt, PT, PT_CHANGED, {"seed": 2}),
    "thermal_boost_scan": (_scan, PT, PT_CHANGED, {"seed": 2}),
}


@pytest.mark.parametrize("entry", CASES)
def test_no_sampler_ignores_a_knob(entry):
    run, params, changed, arguments = CASES[entry]
    base = np.asarray(run(params))
    for f in fields(params):
        got = run(replace(params, **{f.name: changed[f.name]}))
        assert not np.array_equal(got, base), f.name
    for name, value in arguments.items():
        assert not np.array_equal(run(params, **{name: value}), base), name
