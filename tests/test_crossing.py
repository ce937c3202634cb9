"""The boost's curve crossing against SciPy: the NumPy PCHIP interpolant and
Brent root in ``nqac.analysis`` must give SciPy's floats exactly, not
approximately, so that boost.csv does not move by a bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from nqac.analysis import _crossing, _pchip


def scipy_crossing(x, y, p0):
    """The crossing as computed with SciPy's interpolant and root finder."""
    f = PchipInterpolator(x, y, extrapolate=False)

    def g(a):
        return float(f(a)) - p0

    for i in range(x.size - 1):
        ga, gb = g(x[i]), g(x[i + 1])
        if ga == 0.0:
            return float(x[i])
        if ga < 0.0 <= gb:
            return float(brentq(g, x[i], x[i + 1], xtol=1e-14))
    if g(x[-1]) == 0.0:
        return float(x[-1])
    return None


def same_float(a, b) -> bool:
    """Equal as IEEE doubles, the sign of zero included; NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_interpolant_matches(x, y, points):
    ours, theirs = _pchip(x, y), PchipInterpolator(x, y, extrapolate=False)
    for a in points:
        a = float(a)
        assert same_float(ours(a), float(theirs(a))), (x, y, a)


def probe_points(x, extra=()):
    """Data points, their neighbouring floats, midpoints and points outside."""
    return [*x, *np.nextafter(x, -np.inf), *np.nextafter(x, np.inf),
            *(0.5 * (x[1:] + x[:-1])), x[0] - 0.25, x[-1] + 0.25, *extra]


# repeated levels give flat segments; the rest give slopes of either sign
_LEVELS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


@st.composite
def curves(draw):
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):  # a decimal alpha grid, as configs give
        x = draw(st.lists(st.sampled_from(np.round(np.linspace(0.01, 1.0, 100), 2).tolist()),
                          min_size=n, max_size=n, unique=True))
    else:
        x = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n, unique=True))
    # magnitudes below 1e-12 (never a success probability) would overflow the
    # slope's harmonic mean, with the same RuntimeWarning from both sides
    value = st.one_of(st.sampled_from(_LEVELS),
                      st.floats(-0.5, 1.5).filter(lambda v: v == 0 or abs(v) >= 1e-12))
    if draw(st.booleans()):  # a success curve: rising, with noise of either sign
        y = np.sort(draw(st.lists(value, min_size=n, max_size=n)))
        y = y + np.asarray(draw(st.lists(st.sampled_from([0.0, 0.0, 0.02, -0.03]),
                                         min_size=n, max_size=n)))
    else:
        y = np.asarray(draw(st.lists(value, min_size=n, max_size=n)))
    at_data = st.sampled_from(y.tolist())
    p0 = draw(st.one_of(at_data, st.sampled_from(_LEVELS), st.floats(-1.0, 2.0)))
    probes = draw(st.lists(st.floats(-0.2, 1.2), max_size=12))
    return np.sort(np.asarray(x)), y, float(p0), probes


@settings(max_examples=400, deadline=None)
@given(curves())
def test_crossing_is_scipys_bit_for_bit(case):
    x, y, p0, probes = case
    assert_interpolant_matches(x, y, probe_points(x, probes))
    ours, theirs = _crossing(x, y, p0), scipy_crossing(x, y, p0)
    assert ours == theirs, (x, y, p0)
    if ours is not None:
        assert type(ours) is float
        assert x[0] <= ours <= x[-1]


# One case per branch of SciPy's ``PchipInterpolator._edge_case`` (the end
# slope), with the slope that branch gives at x = 0.
_EDGE_CASES = {
    "one-sided three-point slope": ([0.0, 1.0, 2.5], 0.75),
    "slope against the data zeroed": ([0.0, 0.1, 2.0], 0.0),
    "overshoot limited to 3 m0": ([0.0, 1.0, -9.0], 3.0),
}


@pytest.mark.parametrize("end", ["left", "right"])
@pytest.mark.parametrize("branch", sorted(_EDGE_CASES))
def test_edge_slope_branches(branch, end):
    y, slope = _EDGE_CASES[branch]
    x = np.array([0.0, 1.0, 2.0])
    y, at, slope = (np.array(y), 0.0, slope) if end == "left" else (np.array(y[::-1]), 2.0, -slope)
    assert PchipInterpolator(x, y).derivative()(at) == slope  # the case takes its branch
    assert_interpolant_matches(x, y, probe_points(x, np.linspace(-0.1, 2.1, 45)))
    for p0 in (*y, *np.linspace(-9.5, 2.5, 25)):
        assert _crossing(x, y, float(p0)) == scipy_crossing(x, y, float(p0))

