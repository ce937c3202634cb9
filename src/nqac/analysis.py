"""Post-processing: success probabilities, penalty optimization, energy-boost
extraction via interpolated curve crossings, exponent fits, the classical
repetition adjustment, and the results files (curves, boost and eta).

The boost mu_C compares the nesting-level-C success curve against the
unnested one: shape-preserving cubic interpolants of P(alpha) are crossed
with a reference probability P0, and mu_C is the ratio of the C=1 and
level-C crossing points. Interpolants of P +- stderr give the uncertainty
band; the band is the envelope (min/max) of the crossing-point ratios over
the shifted-curve combinations.

The interpolant is PCHIP, the shape-preserving piecewise cubic Hermite one
(Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980)), with Moler's
one-sided end slopes; the crossing is found by Brent's method (Brent,
*Algorithms for Minimization without Derivatives*, 1973). Both are written
here in NumPy and Python and reproduce SciPy's ``PchipInterpolator(...,
extrapolate=False)`` and ``brentq(..., xtol=1e-14)`` bit for bit, operation
by operation, so numpy is the package's only runtime dependency.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .nesting import NestedProblem, decode_batch, permute_nested
from .sampleset import SampleSet


@dataclass(frozen=True)
class SuccessCurve:
    """P(alpha) at one nesting level, with standard errors and the penalty
    that realized each point."""

    C: int
    alphas: np.ndarray
    P: np.ndarray
    stderr: np.ndarray
    gamma_used: dict | None = None

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        p = np.asarray(self.P, dtype=np.float64)
        se = np.asarray(self.stderr, dtype=np.float64)
        if not (np.isfinite(a).all() and np.isfinite(p).all() and np.isfinite(se).all()):
            raise DomainError("alphas, P and stderr must be finite")
        order = np.argsort(a)
        a, p, se = a[order], p[order], se[order]
        if np.any(np.diff(a) <= 0):
            raise DomainError("alphas must be distinct")
        if np.any((p < 0) | (p > 1)) or np.any(se < 0):
            raise DomainError("need 0 <= P <= 1 and stderr >= 0")
        for arr in (a, p, se):
            arr.setflags(write=False)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "stderr", se)


@dataclass(frozen=True)
class BoostResult:
    """Energy boosts per nesting level: C -> (mu_mid, mu_low, mu_high),
    or None where the reference probability was not bracketed."""

    mu: dict
    p0: float


def _spin_codes(states: np.ndarray) -> np.ndarray:
    """One integer per +-1 row, bit i set where spin i is +1 (n <= 62)."""
    bits = (np.asarray(states) > 0).astype(np.int64)
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def hit_counts(
    samples: SampleSet,
    np_prob: NestedProblem,
    emb,
    ground_states: np.ndarray,
    decode_seed: int | np.random.Generator = 0,
) -> list[tuple[int, int, int, int]]:
    """Decode every record; per cycle, in ascending order, one ``(unit, runs,
    hits, ties)``: the cycle id, its records, those that decode to a ground
    state and the ties of their votes. Each cycle is decoded with its own
    recorded nested-vertex permutation composed into the copy map. Tie coins
    come from ``decode_seed``, a seed or a generator drawn from in place."""
    if samples.n_records == 0:
        raise DomainError("empty sample set")
    rng = np.random.default_rng(decode_seed)
    targets = _spin_codes(ground_states)
    cycle_perms = {c.cycle: c.permutation for c in samples.cycles}
    units = []
    for cid, idxs in sorted(samples.cycle_slices().items()):
        perm = cycle_perms.get(cid)
        npr_c = np_prob if perm is None else permute_nested(np_prob, perm)
        logical, ties = decode_batch(npr_c, emb, samples.configs[idxs], rng)
        hits = int(np.isin(_spin_codes(logical), targets).sum())
        units.append((cid, idxs.size, hits, ties))
    return units


def success(units) -> tuple[float, float]:
    """(P, stderr) of ``(unit, runs, hits, ties)`` counts: the mean of the
    units' hit fractions and their stddev / sqrt(units); a single unit
    reports its binomial standard error."""
    if not units:
        raise DomainError("no units to estimate success from")
    fr = np.asarray([hits / runs for _, runs, hits, _ in units])
    if fr.size == 1:
        return float(fr[0]), float(np.sqrt(fr[0] * (1 - fr[0]) / units[0][1]))
    return float(fr.mean()), float(fr.std(ddof=1) / np.sqrt(fr.size))


def estimate_success(samples, np_prob, emb, ground_states, decode_seed=0) -> tuple[float, float]:
    """``success`` of the ``hit_counts`` of a sample set."""
    return success(hit_counts(samples, np_prob, emb, ground_states, decode_seed))


def optimize_gamma(results: dict) -> tuple[float, float]:
    """Pick the penalty maximizing P in a ``{gamma: (P, se)}`` table; exact
    ties resolve to the smaller gamma."""
    if not results:
        raise DomainError("no penalty results to optimize over")
    best_gamma = None
    best_p = -np.inf
    for gamma in sorted(results):
        p = results[gamma][0]
        if p > best_p:
            best_p = float(p)
            best_gamma = float(gamma)
    return best_gamma, best_p


def curves_from_units(rows) -> list[SuccessCurve]:
    """The success curves of hit-table rows ``[C, alpha, gamma, unit, runs,
    hits, ties]``, one per C in ascending order. The rows are grouped by
    their own (C, alpha, gamma) values; per (C, alpha) each penalty's units
    give its ``success``, and the curve takes the (P, stderr) of the penalty
    ``optimize_gamma`` picks."""
    grid: dict = {}
    for C, alpha, gamma, *unit in rows:
        grid.setdefault(C, {}).setdefault(float(alpha), {}).setdefault(gamma, []).append(unit)
    curves = []
    for C, per_alpha in sorted(grid.items()):
        best = {}  # alpha -> (gamma_star, P, se)
        for alpha, per_gamma in per_alpha.items():
            results = {gamma: success(units) for gamma, units in per_gamma.items()}
            gstar, pstar = optimize_gamma(results)
            best[alpha] = (gstar, pstar, results[gstar][1])
        gstars, Ps, ses = zip(*best.values())
        curves.append(SuccessCurve(C=C, alphas=list(best), P=Ps, stderr=ses,
                                   gamma_used=dict(zip(best, gstars))))
    return curves


_BAND_Z = 1.96  #: the band's curve shift in stderrs, the two-sided ~95 % normal quantile


def _pchip(x: np.ndarray, y: np.ndarray):
    """The PCHIP interpolant of (x, y) as a function of one float, NaN outside
    [x[0], x[-1]]; every operation is the one SciPy's ``PchipInterpolator``
    (``_find_derivatives``, ``_edge_case``, ``CubicHermiteSpline``) and its
    ``PPoly`` evaluation perform, in the same order."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # one-sided three-point end slopes, limited to keep the data's shape
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        e = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, e))
        d = np.concatenate(([e[0]], inner, [e[1]]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    # per interval, the power-basis coefficients from the constant term up
    coef = np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h), axis=1).tolist()
    xs = x.tolist()

    def f(a: float) -> float:
        if not xs[0] <= a <= xs[-1]:
            return math.nan
        i = min(bisect.bisect_right(xs, a), len(xs) - 1) - 1
        s = a - xs[i]
        value, z = 0.0, 1.0
        for c in coef[i]:
            value += c * z
            z *= s
        return value

    return f


def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb], where f(xa) < 0 <= f(xb), by Brent's method:
    a line-for-line port of SciPy's C ``brentq`` at ``xtol=1e-14`` and its
    default ``rtol`` and ``maxiter`` (the bracket is the caller's, so its
    sign check is left out)."""
    xtol, rtol, maxiter = 1e-14, 4 * sys.float_info.epsilon, 100
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _crossing(x: np.ndarray, y: np.ndarray, p0: float) -> float | None:
    """Smallest upward crossing of the interpolated curve with p0."""
    f = _pchip(x, y)

    def g(a):
        return f(a) - p0

    xs = x.tolist()
    for a, b in zip(xs, xs[1:]):
        ga, gb = g(a), g(b)
        if ga == 0.0:
            return a
        if ga < 0.0 <= gb:
            return _brentq(g, a, b)
    if g(xs[-1]) == 0.0:
        return xs[-1]
    return None


def compute_boost(curves: list[SuccessCurve], p0: float | None = None) -> BoostResult:
    """Extract mu_C = alpha*_1 / alpha*_C from crossing points at level ``p0``.

    ``p0`` defaults to the midpoint of the C=1 curve's span. Each curve and
    its +-1.96*stderr shifts are interpolated (shape-preserving cubic) and
    crossed with p0 by Brent's method. The uncertainty band is the envelope of the
    shifted-curve crossing ratios: pairing only same-direction shifts would
    cancel exactly on data-collapsing families and cover the truth almost
    never, so the envelope with a ~95% shift quantile is used to make the
    band a calibrated interval. Curves that never bracket p0 report None
    instead of failing.
    """
    by_c = {c.C: c for c in curves}
    if 1 not in by_c:
        raise DomainError("boost extraction needs the C=1 reference curve")
    if any(c.alphas.size < 2 for c in curves):
        raise DomainError("boost extraction needs at least 2 alphas per curve")
    ref = by_c[1]
    if p0 is None:
        p0 = 0.5 * (float(ref.P.max()) + float(ref.P.min()))

    cross = {}
    for C, curve in by_c.items():
        mid = _crossing(curve.alphas, curve.P, p0)
        up = _crossing(curve.alphas, curve.P + _BAND_Z * curve.stderr, p0)
        dn = _crossing(curve.alphas, curve.P - _BAND_Z * curve.stderr, p0)
        cross[C] = (mid, up, dn)

    mid1, up1, dn1 = cross[1]
    mu = {}
    for C in sorted(by_c):
        midC, upC, dnC = cross[C]
        if None in (mid1, midC):
            mu[C] = None
            continue
        mu_mid = mid1 / midC
        band = [
            a / b
            for a in (up1, dn1)
            for b in (upC, dnC)
            if a is not None and b is not None
        ]
        if band:
            mu[C] = (mu_mid, min(band + [mu_mid]), max(band + [mu_mid]))
        else:
            mu[C] = (mu_mid, mu_mid, mu_mid)
    return BoostResult(mu=mu, p0=float(p0))


def fit_eta(boost: BoostResult, fit_count: int = 4) -> float:
    """Scaling exponent eta from the first ``fit_count`` boost points.

    Least-squares slope of log(mu_C) against log(C^2); eta is twice that
    slope (mu_C ~ C^eta, with eta = 2 the ideal).
    """
    pts = [
        (C, v[0])
        for C, v in sorted(boost.mu.items())
        if v is not None and v[0] > 0
    ][:fit_count]
    if len(pts) < 2:
        raise DomainError("eta fit needs at least 2 boost points")
    x = np.log([C * C for C, _ in pts])
    y = np.log([m for _, m in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(2.0 * slope)


def chain_length(C: int, N: int) -> int:
    """Triangular-embedding chain length for a K_{C*N}."""
    return math.ceil(C * N / 4) + 1


def physical_qubits(C: int, N: int) -> int:
    """Qubits consumed by the level-C embedding: C * N * chain_length."""
    return C * N * chain_length(C, N)


def repetition_count(C: int, C_max: int, N: int) -> int:
    """Parallel unencoded copies affordable in the level-C_max footprint."""
    return physical_qubits(C_max, N) // physical_qubits(C, N)


def adjust_repetition(P: float, C: int, C_max: int, N: int) -> float:
    """Success probability adjusted for classical repetition.

    A fair comparison gives the level-C code M_C = floor(Nphys(C_max) /
    Nphys(C)) parallel attempts: P' = 1 - (1 - P)^{M_C}.
    """
    if not (0.0 <= P <= 1.0):
        raise DomainError("P must lie in [0, 1]")
    if not (1 <= C <= C_max):
        raise DomainError("need 1 <= C <= C_max")
    M = repetition_count(C, C_max, N)
    return float(1.0 - (1.0 - P) ** M)


# ---------------------------------------------------------------------------
# results files

_CURVES_HEADER = "C,alpha,gamma_star,P,stderr"


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _exact(x) -> str:
    """The shortest of the .12g ... .17g forms of x that reads back as x."""
    x = float(x)
    for digits in range(12, 17):
        if float(text := format(x, f".{digits}g")) == x:
            return text
    return format(x, ".17g")


def curves_csv(curves: list[SuccessCurve]) -> str:
    """The curves.csv text; ``read_curves`` gives back every float exactly."""
    lines = [_CURVES_HEADER]
    for c in sorted(curves, key=lambda c: c.C):
        for a, p, se in zip(c.alphas, c.P, c.stderr):
            gamma = (c.gamma_used or {}).get(float(a))
            gfield = "" if gamma is None else _exact(gamma)
            lines.append(f"{c.C},{_exact(a)},{gfield},{_exact(p)},{_exact(se)}")
    return "\n".join(lines) + "\n"


def read_curves(text: str) -> list[SuccessCurve]:
    """The curves of a curves.csv text, one per C in ascending order."""
    return success_curves(curve_rows(text))


def curve_rows(text: str) -> dict[int, list]:
    """The (alpha, P, stderr, gamma_star) rows of each C of a curves.csv text;
    a text that is not such a table raises DomainError."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != _CURVES_HEADER:
        raise DomainError(f"a curves.csv starts with the header {_CURVES_HEADER!r}")
    by_c: dict[int, list] = {}
    for line in lines[1:]:
        try:
            C, alpha, gamma, P, se = line.split(",")
            by_c.setdefault(int(C), []).append(
                (float(alpha), float(P), float(se), float(gamma) if gamma else None)
            )
        except ValueError:
            raise DomainError(f"bad curves.csv row: {line!r}") from None
    return by_c


def success_curves(rows: dict[int, list]) -> list[SuccessCurve]:
    """The curves of ``curve_rows``, one per C in ascending order; rows that
    make no success curve raise DomainError."""
    curves = []
    for C, pts in sorted(rows.items()):
        alphas, P, se, gammas = zip(*pts)
        gamma_used = {a: g for a, g in zip(alphas, gammas) if g is not None}
        curves.append(SuccessCurve(C=C, alphas=alphas, P=P, stderr=se,
                                   gamma_used=gamma_used or None))
    return curves


def boost_csv(boost: BoostResult) -> str:
    lines = ["C,mu_mid,mu_low,mu_high"]
    for C in sorted(boost.mu):
        v = boost.mu[C]
        if v is None:
            lines.append(f"{C},,,")
        else:
            lines.append(f"{C},{_fmt(v[0])},{_fmt(v[1])},{_fmt(v[2])}")
    return "\n".join(lines) + "\n"


def write_boost(curves: list[SuccessCurve], out_dir, p0: float | None,
                fit_count: int) -> float | None:
    """Write boost.csv, and eta.txt when at least two levels have a boost,
    into ``out_dir``; returns eta, or None where none could be fitted."""
    out = Path(out_dir)
    boost = compute_boost(curves, p0=p0)
    (out / "boost.csv").write_text(boost_csv(boost))
    if sum(v is not None for v in boost.mu.values()) < 2:
        return None
    eta = fit_eta(boost, fit_count=fit_count)
    (out / "eta.txt").write_text(
        f"eta = {_fmt(eta)} (least-squares over first {fit_count} nesting levels)\n"
    )
    return eta
