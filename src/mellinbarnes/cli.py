"""Command-line front end: pricing, Green-function tabulation, American-option
kernel and boundary evaluation, and residue-engine demos.

Exit codes: 0 success, 2 usage/validation error, 3 numerical non-convergence
(output is still emitted with per-row flags where partial results exist).
Config precedence: command-line flags override the optional key=value config
file, which overrides built-in defaults; a config key that no command reads is
a usage error.  Machine formats (json/csv) emit every number with 17
significant digits and are byte-deterministic for a given configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import bs_pricer, fractional_green, laplace_american
from .bs_pricer import OptionContract
from .fractional_green import FractionalDiffusionParams
from .laplace_american import AmericanConstants, UnreliableInversionError
from .mellin_core import (
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    compatible_cone_2d,
    sum_residues_1d,
    sum_residues_2d,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# key: (type, or the tuple of allowed values[, default]); a key without a
# default is required.  Its flag is "--" + key with "_" -> "-", and a config
# file may set it under either spelling.
_OPTIONS = {
    "spot": (float,), "strike": (float,), "tau": (float,), "sigma": (float,), "rate": (float,),
    "alpha": (float,), "gamma_t": (float,), "theta": (float, 0.0), "mu": (float, 1.0),
    "x_grid": (str,), "tau_grid": (str,), "n": (int,), "m": (int,),
    "max_terms": (int, 400), "side": (("left", "right"), "left"),
    "tol": (float, 1e-10), "format": (("human", "json", "csv"), "human"), "out": (str, None),
}
_COMMON = ("tol", "format", "out")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_render(obj, indent=0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(k)}: {_json_render(v, indent + 2).lstrip()}'
                 for k, v in sorted(obj.items())]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_json_render(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return pad + json.dumps(str(obj))
        return pad + _fmt(obj)
    return pad + json.dumps(obj)


class _Report:
    """Collects a command's params, result rows and diagnostics; renders
    human/json/csv."""

    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.summary: dict = {}
        self.columns: list = []
        self.rows: list = []
        self.diagnostics: dict = {}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "command": self.command,
                "params": self.params,
                "results": {"summary": self.summary,
                            "columns": self.columns,
                            "rows": self.rows},
                "diagnostics": self.diagnostics,
            }
            return _json_render(payload) + "\n"
        if fmt == "csv":
            lines = [",".join(self.columns)]
            for row in self.rows:
                lines.append(",".join(_fmt(v) for v in row))
            return "\n".join(lines) + "\n"
        # human
        lines = [f"command: {self.command}"]
        for k in sorted(self.params):
            lines.append(f"  {k} = {_fmt(self.params[k])}")
        if self.summary:
            lines.append("summary:")
            for k in sorted(self.summary):
                lines.append(f"  {k} = {_fmt(self.summary[k])}")
        if self.rows:
            lines.append("  ".join(str(c) for c in self.columns))
            for row in self.rows:
                lines.append("  ".join(_fmt(v) for v in row))
        for k in sorted(self.diagnostics):
            lines.append(f"# {k}: {_fmt(self.diagnostics[k])}")
        return "\n".join(lines) + "\n"


def _emit(report: _Report, opts: dict) -> None:
    text = report.render(opts["format"])
    if opts.get("out"):
        with open(opts["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> list:
    """lo:hi:step inclusive grid (within half a step of hi)."""
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must be lo:hi:step, got {text!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds {text!r}")
    out = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 0.5 * step:
            break
        out.append(x)
        k += 1
    return out


def _read_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    vals: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"config key {key!r} is not an option of any command")
            vals[key] = val
    return vals


def _options(args: argparse.Namespace) -> dict:
    """The command's keys and the common ones: flags > config file > defaults.
    Missing required keys and non-finite numbers are usage errors; the
    library validates the rest."""
    config = _read_config(args.config)
    opts: dict = {}
    for key in args.keys + _COMMON:
        kind, *default = _OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        val = getattr(args, key)
        if val is None and key in config:
            val = config[key]
            if not isinstance(kind, tuple):
                val = kind(val)
            elif val not in kind:
                raise ValueError(f"{flag}: invalid choice: {val!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
        elif val is None:
            if not default:
                raise ValueError(f"missing required option {flag}")
            val = default[0]
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"{flag} must be finite, got {val}")
        opts[key] = val
    return opts


def _params(opts: dict) -> dict:
    """The params echo: the command's keys and tol."""
    return {k: v for k, v in opts.items() if k not in ("format", "out")}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_price(args) -> int:
    opts = _options(args)
    contract = OptionContract(spot=opts["spot"], strike=opts["strike"],
                              tau=opts["tau"], rate=opts["rate"], sigma=opts["sigma"])
    closed = bs_pricer.bs_closed_form(contract)
    series = bs_pricer.bs_series(contract, tol=opts["tol"], max_shells=opts["max_terms"])
    fwd = bs_pricer.forward_term(contract)
    series_price = series.value if series.converged else closed
    report = _Report("price", _params(opts))
    report.summary = {
        "closed_form": closed,
        "series": series.value,
        "forward_term": fwd,
        "converged": series.converged,
        "gap_abs": abs(series.value - closed),
        "gap_rel": abs(series.value - closed) / abs(closed) if closed else float("inf"),
        "terms_used": series.terms_used,
    }
    report.columns = ["n", "m", "value"]
    report.rows = [[n, m, v] for shell in series.record for (n, m), v in shell.terms]
    if not series.converged:
        report.diagnostics["warning"] = ("series not converged; closed form is authoritative "
                                         f"(reported price {series_price})")
    _emit(report, opts)
    return EXIT_OK if series.converged else EXIT_NUMERICAL


def cmd_green(args) -> int:
    opts = _options(args)
    params = FractionalDiffusionParams(alpha=opts["alpha"], gamma_t=opts["gamma_t"],
                                       theta=opts["theta"], mu=opts["mu"])
    grid = _parse_grid(opts["x_grid"])
    if opts["tau"] <= 0:
        raise ValueError("tau must be positive")
    report = _Report("green", _params(opts))
    report.columns = ["x", "density", "flag"]
    failed = 0
    kept = []
    for x in grid:
        if x == 0.0:
            report.rows.append([x, float("nan"), "domain"])
            continue
        res = fractional_green.green_fractional_series(x, opts["tau"], params,
                                                       tol=opts["tol"], max_terms=opts["max_terms"])
        if res.converged:
            report.rows.append([x, res.value, "ok"])
            kept.append((x, res.value))
        else:
            report.rows.append([x, res.value, "not-converged"])
            failed += 1
    if len(kept) >= 2:
        xs, ys = zip(*kept)
        report.summary["normalization_estimate"] = float(np.trapezoid(ys, xs))
    report.summary["points_failed"] = failed
    _emit(report, opts)
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_boundary(args) -> int:
    opts = _options(args)
    grid = _parse_grid(opts["tau_grid"])
    report = _Report("american-boundary", _params(opts))
    report.columns = ["tau", "boundary_over_strike", "talbot", "vertical", "agreement", "flag"]
    failures = 0
    for tau in grid:
        try:
            inv = laplace_american.exercise_boundary(tau, opts["rate"], opts["sigma"],
                                                     tol=opts["tol"])
            agree = inv.spread / max(1.0, abs(inv.talbot))
            report.rows.append([tau, inv.value, inv.talbot, inv.vertical, agree, "ok"])
        except (UnreliableInversionError, laplace_american.BranchCrossingError) as exc:
            report.rows.append([tau, float("nan"), float("nan"), float("nan"),
                                float("nan"), f"unreliable: {exc}"])
            failures += 1
    _emit(report, opts)
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_kernel(args) -> int:
    opts = _options(args)
    consts = AmericanConstants.from_rates(opts["rate"], opts["sigma"])
    report = _Report("american-kernel", _params(opts))
    report.columns = ["n", "m", "series", "oracle", "gap"]
    try:
        series = laplace_american.american_kernel_series(
            opts["n"], opts["m"], opts["tau"], consts,
            tol=opts["tol"], max_shells=opts["max_terms"])
        oracle = laplace_american.american_kernel_oracle(opts["n"], opts["m"], opts["tau"], consts)
    except UnreliableInversionError as exc:
        report.diagnostics["error"] = str(exc)
        _emit(report, opts)
        return EXIT_NUMERICAL
    gap = abs(series.value - oracle)
    report.rows.append([opts["n"], opts["m"], series.value, oracle, gap])
    report.summary = {"converged": series.converged, "terms_used": series.terms_used}
    _emit(report, opts)
    return EXIT_OK if series.converged else EXIT_NUMERICAL


def _demo_fraction(kind: str, xs: list) -> tuple:
    """(integrand, contour, closed-form value) of a demo."""
    if kind == "exp":
        frac = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                             powers=(PowerFactor(xs[0], (-1.0,), 0.0),))
        return frac, Contour((1.0,)), math.exp(-xs[0])
    if kind == "beta":
        frac = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),
                                        GammaLinearFactor((-1.0,), 1.0)),
                             powers=(PowerFactor(xs[0], (-1.0,), 0.0),))
        return frac, Contour((0.5,)), 1.0 / (1.0 + xs[0])
    frac = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(xs[0], (-1.0, 0.0), 0.0), PowerFactor(xs[1], (0.0, -1.0), 0.0)))
    return frac, Contour((1.0, 1.0)), math.exp(-(xs[0] + xs[1]))


def cmd_demo(args) -> int:
    kind = args.demo_command
    opts = _options(args)
    xvals = args.x
    count = 2 if kind == "exp2d" else 1
    if len(xvals) != count:
        raise ValueError(f"demo {kind} needs {count} positive, finite --x value(s)")
    frac, contour, reference = _demo_fraction(kind, xvals)
    if kind == "exp2d":
        cone = compatible_cone_2d(frac, contour)
        report = _Report("demo-exp2d", {"x1": xvals[0], "x2": xvals[1], "tol": opts["tol"]})
        report.columns = ["shell", "shell_sum", "partial_sum"]
        report.summary["cone"] = [f.value for f in cone.faces]
        res = sum_residues_2d(frac, contour, cone, tol=opts["tol"], max_shells=opts["max_terms"])
    else:
        side = opts.get("side", "left")
        report = _Report(f"demo-{kind}", {"x": xvals[0], "side": side, "tol": opts["tol"]})
        report.columns = ["pole", "residue_term", "partial_sum"]
        res = sum_residues_1d(frac, contour, Direction(side), tol=opts["tol"],
                              max_terms=opts["max_terms"])
    report.rows = [[sh.label, sh.shell_sum, sh.partial] for sh in res.record]
    report.summary.update(reference=reference, partial_sum=res.value,
                          abs_error=abs(res.value - reference))
    _emit(report, opts)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _leaf(p: argparse.ArgumentParser, func, keys: tuple) -> None:
    """Give a leaf command the flags of its keys and the common ones."""
    for key in keys + _COMMON:
        kind = _OPTIONS[key][0]
        choices = kind if isinstance(kind, tuple) else None
        p.add_argument("--" + key.replace("_", "-"), type=None if choices else kind,
                       choices=choices, help="lo:hi:step" if key.endswith("_grid") else None)
    p.add_argument("--config")
    p.set_defaults(func=func, keys=keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mellinbarnes",
        description="Mellin-Barnes residue engine: option pricing, fractional "
                    "Green functions, American-option kernels and demos.")
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(sub.add_parser("price", help="Black-Scholes call: closed form and residue series"),
          cmd_price, ("spot", "strike", "tau", "sigma", "rate", "max_terms"))
    _leaf(sub.add_parser("green", help="fractional-diffusion Green function table"),
          cmd_green, ("alpha", "gamma_t", "theta", "mu", "tau", "x_grid", "max_terms"))

    p_am = sub.add_parser("american", help="exercise boundary and kernel evaluation")
    am_sub = p_am.add_subparsers(dest="american_command", required=True)
    _leaf(am_sub.add_parser("boundary"), cmd_boundary, ("rate", "sigma", "tau_grid"))
    _leaf(am_sub.add_parser("kernel"), cmd_kernel, ("rate", "sigma", "n", "m", "tau", "max_terms"))

    p_demo = sub.add_parser("demo", help="pedagogical residue summations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    for name in ("exp", "beta", "exp2d"):
        pd = demo_sub.add_parser(name)
        pd.add_argument("--x", nargs="+", type=float, required=True)
        _leaf(pd, cmd_demo, ("side", "max_terms") if name == "beta" else ("max_terms",))
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # invalid input, or a config/out file it cannot open
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnreliableInversionError, fractional_green.ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
