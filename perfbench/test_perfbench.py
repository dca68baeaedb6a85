"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import sys
from argparse import Namespace

import mpmath
import pytest

import run  # puts the package's src/ on sys.path
import oracles
import tracing
import workloads
from mellinbarnes import fractional_green, mellin_core
from mellinbarnes.bs_pricer import MONEYNESS_SERIES_LIMIT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residue_engine_inputs_are_in_domain_with_simple_poles(seed):
    for kind, p in workloads.generate("residue_engine", seed):
        if kind == "green":
            fractional_green.FractionalDiffusionParams(p["alpha"], p["gamma_t"], p["theta"], p["mu"])
            x_max = workloads.GREEN_X_MAX.get((p["family"], p["alpha"]), workloads.GREEN_X_RANGE[1])
            assert workloads.GREEN_X_RANGE[0] <= abs(p["x"]) <= x_max
            assert p["max_terms"] in workloads.GREEN_BUDGETS
            if p["family"] == "cauchy":
                assert not workloads.CAUCHY_GAP[0] < abs(p["x"]) < workloads.CAUCHY_GAP[1]
        elif kind == "mixed":
            assert workloads.simple_pole(p["n"], p["b"])
            assert p["max_terms"] in workloads.MIXED_BUDGETS
            assert workloads.MIXED_X_RANGE[0] <= p["x"] <= workloads.MIXED_X_RANGE[1]
            frac = workloads._mixed_fraction(p["n"], p["b"], p["x"])
            poles = mellin_core.enumerate_poles_1d(frac, mellin_core.Direction.LEFT, 200,
                                                   mellin_core.Contour((1.0,)))
            assert all(order <= 1 for _, order in poles)


@pytest.mark.parametrize("seed", [0, 1])
def test_option_and_american_inputs_are_in_domain(seed):
    for kind, p in workloads.generate("option_book", seed):
        q = (math.log(p["spot"] / p["strike"]) + p["rate"] * p["tau"]) / (p["sigma"] * math.sqrt(p["tau"]))
        assert abs(q) <= 5.0 + 1e-9 < MONEYNESS_SERIES_LIMIT
        assert 0.0 < p["tol"] <= 1e-10
    for kind, p in workloads.generate("american_boundary", seed):
        assert 0.02 <= p["rate"] <= 0.12 and 0.15 <= p["sigma"] <= 0.45
        if kind == "kernel":
            assert p["n"] in (1, 2, 3) and p["m"] in (1, 2, 3)
        taus = ([p["lo"] + i * p["step"] for i in range(p["points"])] if kind == "cli_boundary"
                else [p["tau"]])
        assert all(workloads.TAU_RANGE[0] <= t <= workloads.TAU_RANGE[1] for t in taus)


@pytest.mark.parametrize("kind, p", workloads.KNOWN_DEFECTS)
def test_known_converged_but_wrong_result_fails_the_check(kind, p):
    values, ok, converged = workloads.serve(kind, p)
    assert converged
    assert not oracles.check(kind, p, oracles.reference(kind, p), values, ok)


def test_known_defects_are_reported_apart_from_the_pool():
    assert run.known_defects() == {"served": len(workloads.KNOWN_DEFECTS),
                                   "wrong": len(workloads.KNOWN_DEFECTS)}


def test_stable_oracle_agrees_with_mpmath_quadrature():
    x, alpha, theta = 1.3, 1.3, 0.3
    c, s = math.cos(0.5 * math.pi * theta), math.sin(0.5 * math.pi * theta)
    with mpmath.workdps(20):
        want = mpmath.quad(lambda k: mpmath.exp(-c * k ** alpha) * mpmath.cos(k * x + s * k ** alpha),
                           mpmath.linspace(0, 40, 41)) / mpmath.pi
    assert oracles.stable_density(x, alpha, theta, 1.0) == pytest.approx(float(want), rel=1e-12)


def _spans_of_one_request(kind, p):
    tracer = tracing.Tracer().install()
    try:
        workloads.serve(kind, p)
        return list(tracer._spans)
    finally:
        tracer.remove()


def test_child_self_times_sum_to_no_more_than_the_parent_span():
    spans = _spans_of_one_request("boundary", {"rate": 0.1, "sigma": 0.3, "tau": 0.5})
    assert len(spans) >= 4
    children: dict = {}
    for b, t0, t1, parent in spans:
        children.setdefault(parent, []).append(t1 - t0)
    for i, (b, t0, t1, parent) in enumerate(spans):
        assert sum(children.get(i, [])) <= t1 - t0
    calls, busy, self_ = tracing.fold(spans, len(tracing.BOUNDARIES))
    root = sum(t1 - t0 for b, t0, t1, parent in spans if parent < 0)
    assert sum(self_) == pytest.approx(root, rel=1e-9)
    assert all(s >= 0.0 for s in self_)


def _small_pool(monkeypatch):
    pool = workloads.generate("option_book", 5)[:12] + workloads.generate("american_boundary", 5)[:3]
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: pool)
    return pool


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and name.startswith("mellinbarnes")]


def test_traced_run_serves_the_same_requests_and_removes_its_wrappers(monkeypatch):
    pool = _small_pool(monkeypatch)
    record, result = run.run(Namespace(workload="option_book", seed=5, seconds=0.0, trace=1))
    assert record["attempted"] == len(pool) == record["traced"]
    assert result["metrics"]["bs_pricer.bs_series.calls"]["value"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    for mod in _namespaces():
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values() if callable(v))


def test_same_seed_gives_the_same_digest(monkeypatch):
    pool = _small_pool(monkeypatch)
    refs = [oracles.reference(kind, p) for kind, p in pool]
    first = run.serve_loop(pool, refs, count=len(pool))
    second = run.serve_loop(pool, refs, count=len(pool))
    assert first["digest"] == second["digest"]
    assert first["failures"] == {}


def test_missing_boundary_attribute_is_reported_absent():
    gone = tracing.Boundary("mellin_core.pole_enumeration", "mellin_core",
                            "_no_such_function", tracing._candidates, ("candidates",))
    others = tuple(b for b in tracing.BOUNDARIES if b.layer != gone.layer)
    tracer = tracing.Tracer(boundaries=(gone,) + others).install()
    try:
        tracer.end_request()
    finally:
        tracer.remove()
    metrics = tracer.metrics(0.0, 0)
    for name in ("calls", "busy_s", "candidates"):
        assert metrics[f"mellin_core.pole_enumeration.{name}"] == {
            "value": None, "unit": "count/req" if name != "busy_s" else "s/req", "absent": True}
    assert metrics["mellin_core.poles_used_per_candidate"]["absent"]
    assert metrics["mellin_core.residue_eval.calls"]["value"] == 0.0


def test_compare_prints_one_row_per_workload_with_ratio_and_base(tmp_path):
    def record(workload, value):
        return json.dumps({"workload": workload, "metrics": {
            "throughput_rps": {"value": value, "unit": "1/s"},
            "cli.main.calls": {"value": None, "unit": "count/req", "absent": True}}})

    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(record("option_book", 200.0) + "\n" + record("residue_engine", 400.0) + "\n")
    new.write_text(record("option_book", 250.0) + "\n")
    rows = run.compare(str(base), str(new)).splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("option_book: ") and "throughput_rps=1.250 (base 200)" in rows[0]
    assert "throughput_rps=absent" in rows[1]


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
