"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and reads some of their call parameters and results to count work.
Renaming one of those functions or parameters makes a layer read as absent,
and a result its counter cannot measure fails every traced request, so all
three are checked here, with the tracer module loaded from its file as it is."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_boundary_exists():
    tracing = _load_tracing()
    missing = [f"{bd.module}.{bd.attr}" for bd in tracing.BOUNDARIES
               if not hasattr(importlib.import_module(f"{tracing.PACKAGE}.{bd.module}"), bd.attr)]
    assert missing == []


def test_counted_parameters_exist():
    tracing = _load_tracing()
    la = importlib.import_module("mellinbarnes.laplace_american")
    # the counters bind the call to the signature and read parameters by name
    # (x, panels, nodes, symbol_scale; m), defaults included
    assert tracing._symbol_evals(la.vertical_inverse, (None, 1.0), {"mu": 1.0}, None) == {
        "symbol_evals": 160 * 1 * 24}
    assert tracing._talbot_nodes(la.talbot_inverse, (None, 1.0), {}, None) == {"nodes": 48}


def test_candidate_counter_reads_what_real_sums_return():
    tracing = _load_tracing()
    mc = importlib.import_module("mellinbarnes.mellin_core")
    bd = next(b for b in tracing.BOUNDARIES if b.attr == "_candidate_locations_1d")
    tracer = tracing.Tracer(boundaries=(bd,)).install()
    try:
        one = mc.GammaFraction(numerator=(mc.GammaLinearFactor((1.0,), 0.0),),
                               powers=(mc.PowerFactor(2.0, (-1.0,), 0.0),))
        res = mc.sum_residues_1d(one, mc.Contour((1.0,)), mc.Direction.LEFT)
        two = mc.GammaFraction(
            numerator=(mc.GammaLinearFactor((1.0, 0.0), 0.0), mc.GammaLinearFactor((0.0, 1.0), 0.0)),
            powers=(mc.PowerFactor(1.0, (-1.0, 0.0), 0.0), mc.PowerFactor(1.0, (0.0, -1.0), 0.0)))
        cont = mc.Contour((1.0, 1.0))
        res2 = mc.sum_residues_2d(two, cont, mc.compatible_cone_2d(two, cont))
        tracer.end_request()
    finally:
        tracer.remove()
    assert res.converged and res2.converged
    assert tracer.present == [True] and tracer.calls[0] >= 3
    assert tracer.counts[f"{bd.layer}.candidates"] > res.terms_used


def test_residue_counter_sees_one_call_per_lattice_point():
    tracing = _load_tracing()
    mc = importlib.import_module("mellinbarnes.mellin_core")
    bd = next(b for b in tracing.BOUNDARIES if b.attr == "_residue_at_point")
    tracer = tracing.Tracer(boundaries=(bd,)).install()
    try:
        # Gamma(z)/Gamma(z/2) 2^{-z}: the even poles 0, -2, -4, ... cancel
        one = mc.GammaFraction(numerator=(mc.GammaLinearFactor((1.0,), 0.0),),
                               denominator=(mc.GammaLinearFactor((0.5,), 0.0),),
                               powers=(mc.PowerFactor(2.0, (-1.0,), 0.0),))
        res = mc.sum_residues_1d(one, mc.Contour((1.0,)), mc.Direction.LEFT)
        tracer.end_request()
        two = mc.GammaFraction(
            numerator=(mc.GammaLinearFactor((1.0, 0.0), 0.0), mc.GammaLinearFactor((0.0, 1.0), 0.0)),
            powers=(mc.PowerFactor(1.0, (-1.0, 0.0), 0.0), mc.PowerFactor(1.0, (0.0, -1.0), 0.0)))
        cont = mc.Contour((1.0, 1.0))
        res2 = mc.sum_residues_2d(two, cont, mc.compatible_cone_2d(two, cont), tol=1e-14)
        tracer.end_request()
    finally:
        tracer.remove()
    assert res.converged and res2.converged
    # the 1-D series visits the poles 0, -1, ..., down to its last term, the
    # 2-D one every point of the shells it sums
    visited = round(-res.record[-1].label) + 1
    assert res.terms_used < visited
    assert tracer.calls == [visited + res2.terms_used]
    assert tracer.counts[f"{bd.layer}.nonzero"] == res.terms_used + res2.terms_used


def test_library_callers_count_on_their_per_dimension_boundary(capsys):
    # the tracer counts series by the 1-D and 2-D entry points, so every
    # library caller must still go through the one of its dimension
    tracing = _load_tracing()
    fg = importlib.import_module("mellinbarnes.fractional_green")
    bs = importlib.import_module("mellinbarnes.bs_pricer")
    cli = importlib.import_module("mellinbarnes.cli")
    bds = tuple(b for b in tracing.BOUNDARIES if b.attr in ("sum_residues_1d", "sum_residues_2d"))
    assert [b.attr for b in bds] == ["sum_residues_1d", "sum_residues_2d"]
    runs = [
        lambda: fg.green_fractional_series(0.8, 1.0, fg.FractionalDiffusionParams(1.3, 1.0, 0.3, 1.0)),
        lambda: bs.heat_kernel_mb(1.0, 1.0, 0.3),
        lambda: cli.main(["demo", "exp2d", "--x", "1", "1"]),
    ]
    tracer = tracing.Tracer(boundaries=bds).install()
    counted = []
    try:
        for run in runs:
            before = list(tracer.calls)
            run()
            tracer.end_request()
            counted.append([now - then for now, then in zip(tracer.calls, before)])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert counted == [[1, 0], [1, 0], [0, 1]]
