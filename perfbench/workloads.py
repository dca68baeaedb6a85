"""Seeded request pools for the three benchmark workloads, and the code that
serves one request by calling into `mellinbarnes`.

A request is a `(kind, params)` pair of plain Python values; the program
receives only these generated inputs.  Every pool has fixed counts per
request kind, and the parameter that drives a request's cost (moneyness,
maturity, argument ratio) is drawn by stratified sampling: one uniform draw
per equal-width stratum.  Two seeds therefore give different inputs but the
same mix, so the run-to-run spread of the timings reflects the program, not
the luck of the draw.

Serving returns `(values, ok_flag, converged)`:
  values    -- tuple of floats, the request's numeric outputs;
  ok_flag   -- the program's own success signal (converged=True, CLI exit 0,
               every CLI row flagged ok);
  converged -- True when the program claimed convergence, so that a wrong
               value with this flag set can be told apart from an honest
               non-convergence.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from mellinbarnes import bs_pricer, cli, fractional_green, laplace_american
from mellinbarnes import mellin_core as mc
from oracles import bs_call

WORKLOADS = ("residue_engine", "option_book", "american_boundary")

# Green-function families served by the residue engine with simple poles:
# (family, alpha, gamma_t, theta, mu)
GREEN_FAMILIES = (
    ("gauss", 2.0, 1.0, 0.0, 0.5),
    ("time_fractional", 2.0, 0.5, 0.0, 1.0),
    ("time_fractional", 2.0, 0.7, 0.0, 1.0),
    ("cauchy", 1.0, 1.0, 0.0, 1.0),
    ("stable", 1.3, 1.0, 0.0, 1.0),
    ("stable", 1.3, 1.0, 0.3, 1.0),
    ("stable", 1.5, 1.0, 0.0, 1.0),
    ("stable", 1.5, 1.0, 0.3, 1.0),
)
GREEN_PER_FAMILY = 12
GREEN_BUDGETS = (400, 2000, 3000)
GREEN_X_RANGE = (0.05, 4.0)
# Families whose float series loses accuracy to cancellation before the top of
# GREEN_X_RANGE: (family, alpha) -> largest |x| drawn.  Stable alpha = 1.3 is
# 4e-12 off at |x| = 2.5 and past the 1e-8 tolerance from |x| = 2.94, while
# still claiming convergence (see KNOWN_DEFECTS).
GREEN_X_MAX = {("stable", 1.3): 2.5}
# the Cauchy series has radius 1 in u; points this close to u = 1 would need
# more terms than the smallest budget holds, in the series on either side
CAUCHY_GAP = (0.85, 1.0 / 0.85)

# mixed-slope fractions Gamma(z) Gamma(z/n + b) / Gamma(z/2) x^{-z}
MIXED_N = (3, 4, 5, 6, 7)
MIXED_B = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MIXED_BUDGETS = (50, 70, 100, 400)
# the Green-function range: at x = 4 the worst pair is 4e-10 off; from x = 5
# on, results claiming convergence are past the 1e-8 tolerance (KNOWN_DEFECTS)
MIXED_X_RANGE = GREEN_X_RANGE
MIXED_TOL = 1e-15
MIXED_COUNT = 24

# with these counts the median request falls inside the dense cluster of
# budget-2000 Green points and 2-D sums, not in the gap below it, so
# latency_p50_ms does not jump between clusters from seed to seed
SUM2D_COUNT = 32
HEAT_COUNT = 8
CLI_GREEN_COUNT = 6
CLI_DEMO_COUNT = 6

OPTION_COUNT = 360
CLI_PRICE_COUNT = 40
MONEYNESS_RANGE = (-5.0, 5.0)

BOUNDARY_COUNT = 48
CLI_BOUNDARY_COUNT = 16
KERNEL_COUNT = 36
TAU_RANGE = (0.05, 2.0)

# kinds whose result comes from the mellin_core residue engine
RESIDUE_KINDS = ("green", "mixed", "sum2d", "heat")

# Requests on which the program returns converged=True and a wrong value, at
# this commit.  They lie outside the pools above, which hold only inputs the
# program gets right, and every run serves them once, untimed, and reports
# how many are still wrong.
KNOWN_DEFECTS = (
    # mixed-slope fraction: 1.57042e-4 where mpmath.quad gives 1.57019e-4
    ("mixed", {"n": 6, "b": 0.1, "x": 6.2112, "max_terms": 50}),
    ("mixed", {"n": 6, "b": 0.1, "x": 6.2112, "max_terms": 3000}),
    # skewed stable alpha = 1.3: float cancellation gives a negative density
    ("green", {"family": "stable", "alpha": 1.3, "gamma_t": 1.0, "theta": 0.3, "mu": 1.0,
               "t": 1.0, "x": 3.9, "max_terms": 2000}),
    ("green", {"family": "stable", "alpha": 1.3, "gamma_t": 1.0, "theta": 0.0, "mu": 1.0,
               "t": 1.0, "x": -3.4, "max_terms": 3000}),
)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n draws, one uniform draw in each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(out)
    return out


def _log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return [math.exp(v) for v in _strata(rng, n, math.log(lo), math.log(hi))]


def _log_strata_gap(rng: random.Random, n: int, lo: float, hi: float,
                    gap_lo: float, gap_hi: float) -> list:
    """Log-stratified draws over [lo, hi] with the interval (gap_lo, gap_hi) cut out."""
    left = math.log(gap_lo / lo)
    out = []
    for v in _strata(rng, n, 0.0, left + math.log(hi / gap_hi)):
        out.append(lo * math.exp(v) if v < left else gap_hi * math.exp(v - left))
    return out


def _cycle(values, n: int) -> list:
    return [values[i % len(values)] for i in range(n)]


def simple_pole(n: int, b: float) -> bool:
    """Gamma(z) and Gamma(z/n + b) share no pole when n*b is not an integer."""
    nb = n * b
    return abs(nb - round(nb)) > 1e-9


def _residue_engine(rng: random.Random) -> list:
    reqs = []
    for family, alpha, gamma_t, theta, mu in GREEN_FAMILIES:
        if family == "cauchy":
            xs = _log_strata_gap(rng, GREEN_PER_FAMILY, *GREEN_X_RANGE, *CAUCHY_GAP)
        else:
            x_max = GREEN_X_MAX.get((family, alpha), GREEN_X_RANGE[1])
            xs = _log_strata(rng, GREEN_PER_FAMILY, GREEN_X_RANGE[0], x_max)
        budgets = _cycle(GREEN_BUDGETS, len(xs))
        rng.shuffle(budgets)
        for x, budget in zip(xs, budgets):
            sign = rng.choice((-1.0, 1.0))
            reqs.append(("green", {"family": family, "alpha": alpha, "gamma_t": gamma_t,
                                   "theta": theta, "mu": mu, "t": 1.0, "x": sign * x,
                                   "max_terms": budget}))
    pairs = [(n, b) for n in MIXED_N for b in MIXED_B if simple_pole(n, b)]
    budgets = _cycle(MIXED_BUDGETS, MIXED_COUNT)
    rng.shuffle(budgets)
    for x, budget in zip(_log_strata(rng, MIXED_COUNT, *MIXED_X_RANGE), budgets):
        n, b = rng.choice(pairs)
        reqs.append(("mixed", {"n": n, "b": b, "x": x, "max_terms": budget}))
    for x1, x2 in zip(_strata(rng, SUM2D_COUNT, 0.1, 3.0), _strata(rng, SUM2D_COUNT, 0.1, 3.0)):
        reqs.append(("sum2d", {"x1": x1, "x2": x2}))
    # scaled argument y/(sigma sqrt(tau)) over the Green-function x range at sigma = 1
    for z in _log_strata(rng, HEAT_COUNT, *GREEN_X_RANGE):
        sigma, tau = rng.uniform(0.1, 0.5), rng.uniform(0.1, 2.0)
        reqs.append(("heat", {"y": z * sigma * math.sqrt(tau), "tau": tau, "sigma": sigma}))
    for lo in _strata(rng, CLI_GREEN_COUNT, 0.1, 2.0):
        reqs.append(("cli_green", {"lo": round(lo, 3), "step": 0.25, "points": 4}))
    demos = _cycle(("exp", "beta", "exp2d"), CLI_DEMO_COUNT)
    for demo in demos:
        if demo == "exp":
            xs = [rng.uniform(0.1, 3.0)]
        elif demo == "beta":
            xs = [rng.uniform(0.05, 0.35)]
        else:
            xs = [rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)]
        reqs.append(("cli_demo", {"demo": demo, "x": [round(v, 6) for v in xs]}))
    return reqs


def _option(rng: random.Random, q: float) -> dict:
    sigma, tau, rate = rng.uniform(0.1, 0.5), rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.05)
    strike = 100.0
    spot = strike * math.exp(q * sigma * math.sqrt(tau) - rate * tau)
    p = {"spot": spot, "strike": strike, "tau": tau, "rate": rate, "sigma": sigma}
    # the requested tolerance of acceptance criterion 2
    p["tol"] = min(1e-10, 1e-9 * bs_call(**p))
    return p


def _option_book(rng: random.Random) -> list:
    reqs = [("price", _option(rng, q)) for q in _strata(rng, OPTION_COUNT, *MONEYNESS_RANGE)]
    reqs += [("cli_price", _option(rng, q)) for q in _strata(rng, CLI_PRICE_COUNT, *MONEYNESS_RANGE)]
    return reqs


def _rates(rng: random.Random) -> dict:
    return {"rate": rng.uniform(0.02, 0.12), "sigma": rng.uniform(0.15, 0.45)}


def _american_boundary(rng: random.Random) -> list:
    reqs = [("boundary", dict(_rates(rng), tau=tau))
            for tau in _strata(rng, BOUNDARY_COUNT, *TAU_RANGE)]
    # one (r, sigma) shared by three maturities: the work a batched grid could share
    for lo in _strata(rng, CLI_BOUNDARY_COUNT, TAU_RANGE[0], 1.2):
        reqs.append(("cli_boundary", dict(_rates(rng), lo=round(lo, 4), step=0.4, points=3)))
    orders = _cycle([(n, m) for n in (1, 2, 3) for m in (1, 2, 3)], KERNEL_COUNT)
    for (n, m), tau in zip(orders, _strata(rng, KERNEL_COUNT, 0.1, TAU_RANGE[1])):
        reqs.append(("kernel", dict(_rates(rng), n=n, m=m, tau=tau)))
    return reqs


_GENERATORS = {
    "residue_engine": _residue_engine,
    "option_book": _option_book,
    "american_boundary": _american_boundary,
}


def generate(workload: str, seed: int) -> list:
    """The workload's request pool for this seed, in request order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng)
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

def _mixed_fraction(n: int, b: float, x: float):
    return mc.GammaFraction(
        numerator=(mc.GammaLinearFactor((1.0,), 0.0), mc.GammaLinearFactor((1.0 / n,), b)),
        denominator=(mc.GammaLinearFactor((0.5,), 0.0),),
        powers=(mc.PowerFactor(x, (-1.0,), 0.0),))


def _cli(argv: list):
    """Run the CLI in-process; returns (exit code, parsed JSON stdout or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _grid(lo: float, step: float, points: int) -> str:
    # the CLI's grid takes points up to half a step past hi; hi a quarter step
    # past the last point yields exactly `points` values
    return f"{lo!r}:{lo + (points - 1) * step + 0.25 * step!r}:{step!r}"


def serve(kind: str, p: dict):
    if kind == "green":
        params = fractional_green.FractionalDiffusionParams(p["alpha"], p["gamma_t"], p["theta"], p["mu"])
        res = fractional_green.green_fractional_series(p["x"], p["t"], params, tol=1e-12,
                                                       max_terms=p["max_terms"])
        return (float(res.value),), res.converged, res.converged
    if kind == "mixed":
        res = mc.sum_residues_1d(_mixed_fraction(p["n"], p["b"], p["x"]), mc.Contour((1.0,)),
                                 mc.Direction.LEFT, tol=MIXED_TOL, max_terms=p["max_terms"])
        return (res.real_value(),), res.converged, res.converged
    if kind == "sum2d":
        frac = mc.GammaFraction(
            numerator=(mc.GammaLinearFactor((1.0, 0.0), 0.0), mc.GammaLinearFactor((0.0, 1.0), 0.0)),
            powers=(mc.PowerFactor(p["x1"], (-1.0, 0.0), 0.0), mc.PowerFactor(p["x2"], (0.0, -1.0), 0.0)))
        contour = mc.Contour((1.0, 1.0))
        res = mc.sum_residues_2d(frac, contour, mc.compatible_cone_2d(frac, contour), tol=1e-14)
        return (res.real_value(),), res.converged, res.converged
    if kind == "heat":
        return (bs_pricer.heat_kernel_mb(p["y"], p["tau"], p["sigma"]),), True, True
    if kind == "cli_green":
        code, doc = _cli(["green", "--alpha", "2", "--gamma-t", "1", "--theta", "0", "--mu", "0.5",
                          "--tau", "1", f"--x-grid={_grid(p['lo'], p['step'], p['points'])}",
                          "--format", "json"])
        rows = doc["results"]["rows"] if doc else []
        ok = code == 0 and all(r[2] == "ok" for r in rows)
        return tuple(float(v) for r in rows for v in r[:2]), ok, ok
    if kind == "cli_demo":
        # a tolerance below any term lets the demo sum its full 30 terms or shells
        code, doc = _cli(["demo", p["demo"], "--x", *[repr(v) for v in p["x"]],
                          "--tol", "1e-16", "--format", "json"])
        value = doc["results"]["summary"]["partial_sum"] if doc else float("nan")
        return (float(value),), code == 0, code == 0
    if kind == "price":
        c = bs_pricer.OptionContract(p["spot"], p["strike"], p["tau"], p["rate"], p["sigma"])
        res = bs_pricer.bs_series(c, tol=p["tol"], max_shells=200)
        return (float(res.value),), res.converged, res.converged
    if kind == "cli_price":
        code, doc = _cli(["price", "--spot", repr(p["spot"]), "--strike", repr(p["strike"]),
                          "--tau", repr(p["tau"]), "--sigma", repr(p["sigma"]),
                          "--rate", repr(p["rate"]), "--tol", repr(p["tol"]), "--max-terms", "200",
                          "--format", "json"])
        summary = doc["results"]["summary"] if doc else {}
        converged = bool(summary.get("converged"))
        return (float(summary.get("series", "nan")),), code == 0 and converged, converged
    if kind == "boundary":
        inv = laplace_american.exercise_boundary(p["tau"], p["rate"], p["sigma"])
        return (inv.value, inv.talbot, inv.vertical), True, True
    if kind == "cli_boundary":
        code, doc = _cli(["american", "boundary", "--rate", repr(p["rate"]),
                          "--sigma", repr(p["sigma"]),
                          "--tau-grid", _grid(p["lo"], p["step"], p["points"]), "--format", "json"])
        rows = doc["results"]["rows"] if doc else []
        ok = code == 0 and len(rows) == p["points"] and all(r[5] == "ok" for r in rows)
        return tuple(float(v) for r in rows for v in r[1:4]), ok, ok
    if kind == "kernel":
        consts = laplace_american.AmericanConstants.from_rates(p["rate"], p["sigma"])
        series = laplace_american.american_kernel_series(p["n"], p["m"], p["tau"], consts, tol=1e-12)
        oracle = laplace_american.american_kernel_oracle(p["n"], p["m"], p["tau"], consts)
        return (float(series.value), oracle), series.converged, series.converged
    raise ValueError(f"unknown request kind {kind!r}")
