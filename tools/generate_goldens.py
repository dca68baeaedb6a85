#!/usr/bin/env python3
"""Regenerate the golden-value files under tests/golden/ from the dual-contour
Bromwich oracle.  Run from the repository root after any oracle change; the
files are committed so the test suite can regression-check the oracle.

Each file holds one JSON object per line: the parameters and the `value`."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mellinbarnes.laplace_american import (  # noqa: E402
    AmericanConstants,
    american_kernel_oracle,
    exercise_boundary,
)

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
R, SIGMA = 0.1, 0.3


def write_records(name: str, records: list) -> None:
    # json writes each float with repr, which reads back as the same float
    lines = [json.dumps(record, sort_keys=True) + "\n" for record in records]
    (GOLDEN / name).write_text("".join(lines))
    print(f"wrote {len(lines)} records to {name}")


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    consts = AmericanConstants.from_rates(R, SIGMA)

    write_records("american_kernel.jsonl", [
        {"n": n, "m": m, "tau": tau, "r": R, "sigma": SIGMA,
         "value": american_kernel_oracle(n, m, tau, consts)}
        for tau in (0.25, 1.0) for n in (1, 2, 3) for m in (1, 2, 3)])

    write_records("exercise_boundary.jsonl", [
        {"tau": 0.05 * k, "r": R, "sigma": SIGMA,
         "value": exercise_boundary(0.05 * k, R, SIGMA).value}
        for k in range(1, 21)])


if __name__ == "__main__":
    main()
