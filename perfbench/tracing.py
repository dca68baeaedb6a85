"""Layer spans recorded from outside the program.

Each layer boundary is a module attribute of `mellinbarnes`.  While a
`Tracer` is installed, every namespace that holds the boundary's function
(the defining module and every module that imported it by name, such as
`bs_pricer.sum_residues_1d`) holds a wrapper instead.  The wrapper records a
span (boundary, start, end, parent) and the boundary's work counts.  Spans
of one request are kept in memory and folded into per-layer totals when the
request ends, so memory stays bounded however long the run.  A boundary
whose attribute no longer exists is reported as absent, not as zero.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _candidates(fn, args, kwargs, result):
    return {"candidates": len(result)}


def _nonzero(fn, args, kwargs, result):
    return {"nonzero": 1 if result != 0 else 0}


def _terms(fn, args, kwargs, result):
    return {"terms": result.terms_used}


def _symbol_evals(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    # panels x sub-cells per panel x Gauss-Legendre nodes per cell
    nsub = min(128, max(1, math.ceil((math.pi / a["x"]) / a["symbol_scale"])))
    return {"symbol_evals": a["panels"] * nsub * a["nodes"]}


def _talbot_nodes(fn, args, kwargs, result):
    return {"nodes": _bound(fn, args, kwargs)["m"]}


@dataclass(frozen=True)
class Boundary:
    """A wrapped module attribute; `layer` prefixes its metric names, and
    `count(fn, args, kwargs, result)` returns the work counts named in `keys`."""

    layer: str
    module: str
    attr: str
    count: Optional[Callable] = None
    keys: tuple = ()


BOUNDARIES = (
    Boundary("mellin_core.pole_enumeration", "mellin_core", "_candidate_locations_1d",
             _candidates, ("candidates",)),
    Boundary("mellin_core.residue_eval", "mellin_core", "_residue_at_point",
             _nonzero, ("nonzero",)),
    Boundary("mellin_core.sum_residues_1d", "mellin_core", "sum_residues_1d", _terms, ("terms",)),
    Boundary("mellin_core.sum_residues_2d", "mellin_core", "sum_residues_2d", _terms, ("terms",)),
    Boundary("fractional_green.green_fractional_series", "fractional_green",
             "green_fractional_series"),
    Boundary("bs_pricer.bs_series", "bs_pricer", "bs_series", _terms, ("terms",)),
    Boundary("bs_pricer.escalation", "bs_pricer", "_series_sum_mp"),
    Boundary("bs_pricer.bs_series_term", "bs_pricer", "bs_series_term"),
    Boundary("laplace_american.vertical_inverse", "laplace_american", "vertical_inverse",
             _symbol_evals, ("symbol_evals",)),
    Boundary("laplace_american.talbot_inverse", "laplace_american", "talbot_inverse",
             _talbot_nodes, ("nodes",)),
    Boundary("laplace_american.branch_scan", "laplace_american", "_check_branch_path"),
    Boundary("laplace_american.inverse_laplace", "laplace_american", "inverse_laplace"),
    Boundary("laplace_american.exercise_boundary", "laplace_american", "exercise_boundary"),
    Boundary("laplace_american.american_kernel_series", "laplace_american",
             "american_kernel_series", _terms, ("terms",)),
    Boundary("laplace_american.american_kernel_oracle", "laplace_american",
             "american_kernel_oracle"),
    Boundary("cli.main", "cli", "main"),
)

PACKAGE = "mellinbarnes"

# exceptions that mean the dual-contour inversion was judged unreliable
UNRELIABLE = ("UnreliableInversionError", "BranchCrossingError")

# (metric name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("mellin_core.pole_enumeration.calls", "count/req", "lower"),
    ("mellin_core.pole_enumeration.busy_s", "s/req", "lower"),
    ("mellin_core.pole_enumeration.candidates", "count/req", "lower"),
    ("mellin_core.poles_used_per_candidate", "ratio", "higher"),
    ("mellin_core.residue_eval.calls", "count/req", "lower"),
    ("mellin_core.residue_eval.busy_s", "s/req", "lower"),
    ("mellin_core.residue_eval.useful_frac", "ratio", "higher"),
    ("mellin_core.sum_residues_1d.calls", "count/req", "lower"),
    ("mellin_core.sum_residues_1d.self_s", "s/req", "lower"),
    ("mellin_core.sum_residues_1d.terms", "count/req", "lower"),
    ("mellin_core.sum_residues_2d.calls", "count/req", "lower"),
    ("mellin_core.sum_residues_2d.self_s", "s/req", "lower"),
    ("mellin_core.sum_residues_2d.terms", "count/req", "lower"),
    ("mellin_core.converged_wrong", "count/req", "lower"),
    ("fractional_green.green_fractional_series.calls", "count/req", "lower"),
    ("fractional_green.green_fractional_series.self_s", "s/req", "lower"),
    ("bs_pricer.bs_series.calls", "count/req", "lower"),
    ("bs_pricer.bs_series.self_s", "s/req", "lower"),
    ("bs_pricer.bs_series.terms", "count/req", "lower"),
    ("bs_pricer.escalation.calls", "count/req", "lower"),
    ("bs_pricer.escalation.busy_s", "s/req", "lower"),
    ("bs_pricer.escalation_ratio", "ratio", "lower"),
    ("bs_pricer.bs_series_term.calls", "count/req", "lower"),
    ("bs_pricer.bs_series_term.busy_s", "s/req", "lower"),
    ("laplace_american.vertical_inverse.calls", "count/req", "lower"),
    ("laplace_american.vertical_inverse.busy_s", "s/req", "lower"),
    ("laplace_american.vertical_inverse.symbol_evals", "count/req", "lower"),
    ("laplace_american.talbot_inverse.calls", "count/req", "lower"),
    ("laplace_american.talbot_inverse.busy_s", "s/req", "lower"),
    ("laplace_american.talbot_inverse.nodes", "count/req", "lower"),
    ("laplace_american.branch_scan.calls", "count/req", "lower"),
    ("laplace_american.branch_scan.busy_s", "s/req", "lower"),
    ("laplace_american.inverse_laplace.self_s", "s/req", "lower"),
    ("laplace_american.exercise_boundary.self_s", "s/req", "lower"),
    ("laplace_american.american_kernel_series.calls", "count/req", "lower"),
    ("laplace_american.american_kernel_series.busy_s", "s/req", "lower"),
    ("laplace_american.american_kernel_series.terms", "count/req", "lower"),
    ("laplace_american.american_kernel_oracle.self_s", "s/req", "lower"),
    ("laplace_american.unreliable", "count/req", "lower"),
    ("cli.main.calls", "count/req", "lower"),
    ("cli.main.self_s", "s/req", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# ratio metrics: name -> (numerator total, denominator total), both per layer
RATIOS = {
    "mellin_core.poles_used_per_candidate": (
        ("mellin_core.sum_residues_1d.terms", "mellin_core.sum_residues_2d.terms"),
        ("mellin_core.pole_enumeration.candidates",)),
    "mellin_core.residue_eval.useful_frac": (
        ("mellin_core.residue_eval.nonzero",), ("mellin_core.residue_eval.calls",)),
    "bs_pricer.escalation_ratio": (
        ("bs_pricer.escalation.calls",), ("bs_pricer.bs_series.calls",)),
}


def fold(spans: list, nbounds: int):
    """Per-boundary (calls, busy, self) from one request's spans.

    A span is (boundary index, start, end, parent span index or -1), listed
    in the order the calls began.  Self time is the span's duration minus
    the durations of its direct children; busy time counts only spans whose
    parent is another boundary, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for b, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, busy, self_ = [0] * nbounds, [0.0] * nbounds, [0.0] * nbounds
    for i, (b, t0, t1, parent) in enumerate(spans):
        calls[b] += 1
        self_[b] += (t1 - t0) - child[i]
        if parent < 0 or spans[parent][0] != b:
            busy[b] += t1 - t0
    return calls, busy, self_


class Tracer:
    """Installs wrappers at every boundary that exists; `remove` restores them."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        n = len(boundaries)
        self.present = [False] * n
        self.calls, self.busy, self.self_ = [0] * n, [0.0] * n, [0.0] * n
        self.counts: dict = {}
        self.unreliable = 0
        self.requests = 0
        self._spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, idx: int, fn):
        spans, stack, bd = self._spans, self._stack, self.boundaries[idx]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted once, at the innermost boundary it passes
                if type(exc).__name__ in UNRELIABLE and not hasattr(exc, "_perfbench_seen"):
                    exc._perfbench_seen = True
                    self.unreliable += 1
                raise
            finally:
                spans[i] = (idx, t0, perf_counter(), parent)
                stack.pop()
            if bd.count is not None:
                for key, v in bd.count(fn, args, kwargs, result).items():
                    name = f"{bd.layer}.{key}"
                    self.counts[name] = self.counts.get(name, 0) + v
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        spaces = self._namespaces()
        for idx, bd in enumerate(self.boundaries):
            home = sys.modules.get(f"{PACKAGE}.{bd.module}")
            original = getattr(home, bd.attr, None) if home is not None else None
            if original is None:
                continue
            self.present[idx] = True
            wrapper = self._wrap(idx, original)
            for mod in spaces:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))
        return self

    def remove(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def end_request(self) -> None:
        """Fold the finished request's spans into the totals."""
        calls, busy, self_ = fold(self._spans, len(self.boundaries))
        for b in range(len(self.boundaries)):
            self.calls[b] += calls[b]
            self.busy[b] += busy[b]
            self.self_[b] += self_[b]
        self._spans.clear()
        self.requests += 1

    def _reaches(self, module: str) -> bool:
        return any(got for got, bd in zip(self.present, self.boundaries) if bd.module == module)

    def totals(self, converged_wrong: int) -> dict:
        """Every layer total by metric name; absent boundaries map to None."""
        out: dict = {}
        for b, bd in enumerate(self.boundaries):
            got = self.present[b]
            out[f"{bd.layer}.calls"] = self.calls[b] if got else None
            out[f"{bd.layer}.busy_s"] = self.busy[b] if got else None
            out[f"{bd.layer}.self_s"] = self.self_[b] if got else None
            for key in bd.keys:
                name = f"{bd.layer}.{key}"
                out[name] = self.counts.get(name, 0) if got else None
        out["laplace_american.unreliable"] = (self.unreliable if self._reaches("laplace_american")
                                              else None)
        out["mellin_core.converged_wrong"] = (converged_wrong if self._reaches("mellin_core")
                                              else None)
        return out

    def metrics(self, overhead_frac: float, converged_wrong: int) -> dict:
        """The per-layer metrics: totals per request, ratios of totals.
        `converged_wrong` counts residue-engine results that claimed
        convergence but failed their check."""
        totals = self.totals(converged_wrong)
        n = max(self.requests, 1)
        out: dict = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                value = overhead_frac
            elif name in RATIOS:
                num_keys, den_keys = RATIOS[name]
                parts = [totals.get(k) for k in num_keys + den_keys]
                if any(v is None for v in parts):
                    value = None
                else:
                    num = sum(totals[k] for k in num_keys)
                    den = sum(totals[k] for k in den_keys)
                    # a layer this workload never reaches reads 0
                    value = num / den if den else 0.0
            else:
                total = totals.get(name)
                value = None if total is None else total / n
            entry = {"value": value, "unit": unit}
            if value is None:
                entry["absent"] = True
            out[name] = entry
        return out
