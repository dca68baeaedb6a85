import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_max_terms_only_for_commands_with_a_term_budget(capsys):
    boundary = ["american", "boundary", "--rate", "0.1", "--sigma", "0.3",
                "--tau-grid", "0.5:0.5:0.1", "--format", "json"]
    code, out, _ = run_cli(capsys, *boundary)
    assert code == 0 and "max_terms" not in json.loads(out)["params"]
    code, out, err = run_cli(capsys, *boundary, "--max-terms", "5")
    assert code == 2 and out == "" and "--max-terms" in err
    code, out, err = run_cli(capsys, "demo", "exp", "--x", "1", "--max-terms", "0")
    assert code == 2 and out == "" and "max_terms must be finite and positive" in err


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


# exit code and sha256 of stdout per format (human, json, csv): the CLI's
# output bytes are part of its contract, so a digest moves only on purpose
PINNED = [
    (PRICE_ARGS,
     (0, "1ecdc3aa79e855ca25db384e84863209bb7874e47ecac25f4b0818b8495c0dbb"),
     (0, "2c418db07bd2e73ea8d897162e82440da17db1301938d3a1295db54cbf005439"),
     (0, "cd15cf8091e8bcb88647c1a978b0663d56488383f7bf0a94e1fb6a98a0d1f186")),
    (["green", "--alpha", "2", "--gamma-t", "1", "--theta", "0", "--mu", "0.5", "--tau", "1",
      "--x-grid=-0.5:0.5:0.5"],
     (0, "f90a2a3c892c6c85f9dae3e3125b4ed57cc661144af727a3d1ba42caa6d49f10"),
     (0, "5cbed841f50105583923b4994531cf64229a34145381ab0a9541dfd6dc5fb885"),
     (0, "b39c7dad3f4a5d8684e70d93d5805ee7bf14400429c1db6ca0df49c0bec7f372")),
    (["green", "--alpha", "1", "--gamma-t", "1", "--theta", "0", "--mu", "1", "--tau", "1",
      "--x-grid=0.5:1.001:0.4995", "--max-terms", "30"],
     (3, "14cf9b791a81e4032bf0128a8644a04bf9963265874f33d741874936f4e41b68"),
     (3, "2ff2bee8748ae4ae65b3b30bed0571f67ca6a67d779f5237b635057ced84e152"),
     (3, "c2f5f259e1dd5143992ccce1fee19fe037612555c3ad101474c9c6033a0d4289")),
    (["american", "boundary", "--rate", "0.1", "--sigma", "0.3", "--tau-grid", "0.5:1.0:0.5"],
     (0, "afc5acda13fe7e4b9341549458af73a199e4536af14f0ae23bbcf19f2d78ebf7"),
     (0, "168acd9629c9aa0ebd87985ef8b5cc5835768fc02b811530c726c90ada75c940"),
     (0, "2a1c6f59d5ce963f726472d706a94bbaa43ddbc0161849f2b209dc118619f54f")),
    (["american", "kernel", "--rate", "0.1", "--sigma", "0.3", "--n", "2", "--m", "1", "--tau", "1"],
     (0, "109e733c2ecc7ff0af1ac50e9c8e739cffebf3b3dc007199c32fce3bcab1d97a"),
     (0, "ca2d6502253de5b29867688b82fed98cce4707e3d5669c589f995e5d8cee8f19"),
     (0, "2c6c5fddd487fced0b236d63a13531af9f6541f574d21713c9f47ca82dedf6e5")),
    (["american", "kernel", "--rate", "0.1", "--sigma", "0.3", "--n", "1", "--m", "2", "--tau", "1"],
     (0, "b0110abd699759ebb8554d100f4acc1de77e6edf8d6665975bf33d7c37e69764"),
     (0, "383ca42fc8e6f89fa8192cd696f40bc26db753370aee6036b1688d6d44d323f0"),
     (0, "befc3943e5396c41bdf3f21331f89a8fe3b7dbc8b0bb824a85b3e3846812cec8")),
    (["demo", "exp", "--x", "1"],
     (0, "3979710b924f72ed4078b7978767f191b9c81e71554adb9de625faca1f44f6f7"),
     (0, "1840bb8cf03b6b06c9d8b039d5578ea179f36eb9492fdc2f732cae914e2d319d"),
     (0, "29d50f53bbeec703060e52a3961dd6cd932c11821c9bda4f5b80ee4f0bdb9fba")),
    (["demo", "beta", "--x", "4", "--side", "right"],
     (0, "8a2d47767033b492ced136a6e86f4e332d9bb8991b09bccf4b2fe253c5b75a08"),
     (0, "c29bb9de647ec395aa8760b53ea73a0af3e399389dab7ccb348ab5ac7db9101a"),
     (0, "2237aca7f8f2025e436768d445bc2922f29d3562a9df8f2dfed9220b3b6707ec")),
    (["demo", "exp2d", "--x", "1", "0.5"],
     (0, "341115cbdcca8289db8145852db3507ca45040f93e9d8aefd56e9eb95b338c35"),
     (0, "7e075633679e3c6af7d47eb86910a74cb700814225920db162245ac9af073b2a"),
     (0, "67eec4dd39aa47ad29359bbd78fa2f573604012c29e19f1faacdd1a9cadb882f")),
]


@pytest.mark.parametrize("argv,fmt,code,digest", [
    (argv, fmt, code, digest) for argv, *pins in PINNED
    for fmt, (code, digest) in zip(("human", "json", "csv"), pins)])
def test_stdout_bytes_pinned(capsys, argv, fmt, code, digest):
    got, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, *PRICE_ARGS)[0] == 0
    assert run_cli(capsys, "demo", "exp", "--x", "1")[0] == 0
    assert built == []


def test_config_rejects_unknown_keys_and_bad_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spot = 3700\nstrike = 4000\ntau = 1\nsigma = 0.25\nrate = 0.01\nmax_term = 7\n")
    code, out, err = run_cli(capsys, "price", "--config", str(cfg))
    assert code == 2 and out == "" and "max_term" in err
    cfg.write_text("side = up\n")
    code, out, err = run_cli(capsys, "demo", "beta", "--x", "4", "--config", str(cfg))
    assert code == 2 and out == "" and "--side" in err and "'up'" in err
    cfg.write_text("format = xml\n")
    code, out, err = run_cli(capsys, "demo", "exp", "--x", "1", "--config", str(cfg))
    assert code == 2 and out == "" and "--format" in err and "'xml'" in err
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, *PRICE_ARGS, "--config", str(missing))
    assert code == 2 and out == "" and str(missing) in err and "Traceback" not in err
    nowhere = tmp_path / "no-dir" / "out.txt"
    code, out, err = run_cli(capsys, *PRICE_ARGS, "--out", str(nowhere))
    assert code == 2 and out == "" and str(nowhere) in err


def test_config_keys_of_another_command_are_allowed(tmp_path, capsys):
    # one file serves both american commands: each reads its own keys
    cfg = tmp_path / "american.cfg"
    cfg.write_text("rate = 0.1\nsigma = 0.3\nn = 2\nm = 1\ntau = 1\ntau_grid = 0.5:0.5:0.1\n"
                   "side = right\nformat = json\n")
    code, out, _ = run_cli(capsys, "american", "kernel", "--config", str(cfg))
    assert code == 0 and json.loads(out)["params"]["n"] == 2
    code, out, _ = run_cli(capsys, "american", "boundary", "--config", str(cfg))
    assert code == 0 and json.loads(out)["params"]["tau_grid"] == "0.5:0.5:0.1"


@pytest.mark.parametrize("argv,code", [
    (PRICE_ARGS, 0),
    (PRICE_ARGS[:-4] + ["--sigma", "0", "--rate", "0.01"], 2),
    (["price", "--spot", "30", "--strike", "100", "--tau", "1", "--sigma", "0.1", "--rate", "0"], 3),
])
def test_entry_point_exit_status(argv, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "mellinbarnes.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
