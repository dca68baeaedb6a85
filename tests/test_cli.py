import json
import math

import pytest

from mellinbarnes.bs_pricer import OptionContract, bs_closed_form, bs_series
from mellinbarnes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PRICE_ARGS = ["price", "--spot", "3700", "--strike", "4000", "--tau", "1",
              "--sigma", "0.25", "--rate", "0.01"]


def test_price_human(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS)
    assert code == 0
    assert "closed_form = 264.817763" in out
    assert "converged = True" in out


def test_price_json_payload(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "price"
    assert payload["params"]["spot"] == 3700
    assert payload["results"]["summary"]["closed_form"] == pytest.approx(264.82, abs=0.01)
    assert abs(payload["results"]["summary"]["series"]
               - payload["results"]["summary"]["closed_form"]) < 1e-8
    # machine format carries 17 significant digits
    assert "264.81776304574669" in out


def test_price_csv(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,value"
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0


def test_price_formats_consistent(capsys):
    _, human, _ = run_cli(capsys, *PRICE_ARGS)
    _, js, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json")
    series_h = [ln for ln in human.splitlines() if "series =" in ln][0].split("=")[1].strip()
    assert series_h in js


def test_price_json_byte_deterministic(capsys):
    _, a, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json")
    _, b, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json")
    assert a == b


def test_price_validation_exit_2(capsys):
    code, _, err = run_cli(capsys, "price", "--spot", "3700", "--strike", "4000",
                           "--tau", "1", "--sigma", "0", "--rate", "0.01")
    assert code == 2
    assert "sigma" in err


def test_missing_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, "price", "--spot", "3700")
    assert code == 2
    assert "strike" in err


def test_price_rows_are_the_series_record(capsys):
    # escalated to mpmath: the rows are the elevated pass's own terms
    c = OptionContract(spot=60.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)
    tol = 1e-9 * bs_closed_form(c)
    code, out, _ = run_cli(capsys, "price", "--spot", "60", "--strike", "100", "--tau", "1",
                           "--sigma", "0.1", "--rate", "0", "--tol", repr(tol),
                           "--max-terms", "200", "--format", "json")
    assert code == 0
    series = bs_series(c, tol=tol, max_shells=200)
    want = [[n, m, v] for shell in series.record for (n, m), v in shell.terms]
    assert json.loads(out)["results"]["rows"] == want
    assert len(want) == series.terms_used == 1587


def test_price_nonconverged_exit_3(capsys):
    code, out, _ = run_cli(capsys, "price", "--spot", "30", "--strike", "100",
                           "--tau", "1", "--sigma", "0.1", "--rate", "0")
    assert code == 3
    assert "closed_form" in out  # closed form still reported


def test_green_gaussian_table(capsys):
    code, out, _ = run_cli(capsys, "green", "--alpha", "2", "--gamma-t", "1",
                           "--theta", "0", "--mu", "0.5", "--tau", "1",
                           "--x-grid=0.25:1.0:0.25", "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    for x_s, dens_s, flag in rows:
        x = float(x_s)
        want = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        assert flag == "ok"
        assert float(dens_s) == pytest.approx(want, rel=1e-10)


def test_green_cauchy_table(capsys):
    code, out, _ = run_cli(capsys, "green", "--alpha", "1", "--gamma-t", "1",
                           "--theta", "0", "--mu", "1", "--tau", "1",
                           "--x-grid=0.3:2.1:0.6", "--max-terms", "2000", "--format", "csv")
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        x_s, dens_s, flag = ln.split(",")
        x = float(x_s)
        assert flag == "ok"
        assert float(dens_s) == pytest.approx(1.0 / (math.pi * (1 + x * x)), rel=1e-9)


def test_green_zero_row_flagged_domain(capsys):
    code, out, _ = run_cli(capsys, "green", "--alpha", "2", "--gamma-t", "1",
                           "--theta", "0", "--mu", "0.5", "--tau", "1",
                           "--x-grid=-0.5:0.5:0.5", "--format", "csv")
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[2] for ln in out.strip().splitlines()[1:]}
    assert rows["0"] == "domain"
    assert rows["-0.5"] == "ok" and rows["0.5"] == "ok"


def test_green_nonconverged_exit_3_partial_table(capsys):
    # scale ratio pinned near 1 with a tiny budget: the flagged row is emitted
    # and the command signals numerical failure
    code, out, _ = run_cli(capsys, "green", "--alpha", "1", "--gamma-t", "1",
                           "--theta", "0", "--mu", "1", "--tau", "1",
                           "--x-grid=0.5:1.001:0.4995", "--max-terms", "30",
                           "--format", "csv")
    assert code == 3
    rows = {ln.split(",")[0]: ln.split(",")[2] for ln in out.strip().splitlines()[1:]}
    assert rows["0.5"] == "ok"
    assert any(flag == "not-converged" for flag in rows.values())


def test_american_boundary_grid(capsys):
    code, out, _ = run_cli(capsys, "american", "boundary", "--rate", "0.1",
                           "--sigma", "0.3", "--tau-grid", "0.2:1.0:0.2",
                           "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    agreements = [float(r[4]) for r in rows]
    assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))
    assert all(a <= 1e-5 for a in agreements)


def test_american_kernel_gap(capsys):
    code, out, _ = run_cli(capsys, "american", "kernel", "--rate", "0.1", "--sigma", "0.3",
                           "--n", "2", "--m", "1", "--tau", "1", "--format", "csv")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    series, oracle, gap = float(row[2]), float(row[3]), float(row[4])
    assert gap <= 1e-4 * abs(oracle)


def test_demo_exp(capsys):
    code, out, _ = run_cli(capsys, "demo", "exp", "--x", "1")
    assert code == 0
    assert "0.36787944" in out


def test_demo_beta_right(capsys):
    code, out, _ = run_cli(capsys, "demo", "beta", "--x", "4", "--side", "right")
    assert code == 0
    assert "reference = 0.2" in out


def test_demo_beta_sums_to_tolerance(capsys):
    code, out, _ = run_cli(capsys, "demo", "beta", "--x", "0.35", "--tol", "1e-16",
                           "--format", "json")
    assert code == 0
    summary = json.loads(out)["results"]["summary"]
    assert abs(summary["partial_sum"] - 1.0 / 1.35) <= 1e-15


def test_demo_exp2d(capsys):
    code, out, _ = run_cli(capsys, "demo", "exp2d", "--x", "1", "1")
    assert code == 0
    assert f"reference = {math.exp(-2.0):.17g}"[:22] in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spot = 3700\nstrike = 4000\ntau = 1\nsigma = 0.25\nrate = 0.01\n"
                   "# comment line\nmax_terms = 123\n")
    code, out, _ = run_cli(capsys, "price", "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["sigma"] == 0.25
    assert payload["params"]["max_terms"] == 123
    # flags override config
    code, out, _ = run_cli(capsys, "price", "--config", str(cfg), "--sigma", "0.3",
                           "--format", "json")
    payload = json.loads(out)
    assert payload["params"]["sigma"] == 0.3


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "price"
