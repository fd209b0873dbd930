"""Check the numbers `coeffs` and `observables` print, with the stdlib only.

    python .github/scripts/check_output.py

Runs ``python -m coherent2d`` on the (20, 19.5) packet, 88,272 rows, on
(20, 10), 72,390 rows in 18 chunks with floats in 0.000ddd and scientific
layouts and 837 zeros, and on (14, 2), whose m < 0 branch carries weight
(at (20, 19.5) it holds less than a rounding unit of every moment):
- ``coeffs`` in CSV and JSON: the JSON loads, the two formats hold the same
  rows, every float field f has '%.17g' % float(f) == f and every int
  field str(int(f)) == f;
- ``observables --format json``: each moment equals ``math.fsum`` over the
  parsed JSON rows of c_squared times m, |m|, n_r or N + 1, restricted to a
  branch of m for the partial moments, so the table sums computed in numpy
  are checked against Python's own exact sum;
- ``observables`` on (49.2, 0), 1.1 M rows, alone: it exits 0 with status
  pass, so the table keeps its precision near the size guard.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

PACKETS = (
    ["--xi0", "20", "--eta0", "19.5"],
    ["--xi0", "20", "--eta0", "10"],
    ["--xi0", "14", "--eta0", "2"],
)
NAMES = ("m", "n_r", "N", "c", "c_squared", "energy")


FRONTIER = ["--xi0", "49.2", "--eta0", "0"]


def run(*argv: str, codes: tuple[int, ...] = (0, 1)) -> str:
    """stdout of a run that exits 0, or 1 for an observables tolerance failure."""
    done = subprocess.run(
        [sys.executable, "-m", "coherent2d", *argv], capture_output=True, text=True
    )
    assert done.returncode in codes, (argv, done.returncode, done.stderr)
    return done.stdout


def check_coeffs(packet: list[str]) -> list[dict]:
    lines = run("coeffs", *packet).splitlines()
    assert lines[0] == "m,n_r,N,C,C_squared,energy", lines[0]
    rows = [dict(zip(NAMES, line.split(","))) for line in lines[1:-1]]
    footer = lines[-1].split(",")
    assert footer[:5] == ["sum", "", "", "", footer[4]], footer
    doc = json.loads(
        run("coeffs", "--format", "json", *packet), parse_float=str, parse_int=str
    )
    assert rows == doc["entries"] and rows, "the CSV and JSON rows differ"
    floats = footer[4:] + [doc["sum_c_squared"], doc["tail_mass"]]
    for row in rows:
        floats += [row["c"], row["c_squared"]]
        for name in ("m", "n_r", "N", "energy"):
            assert str(int(row[name])) == row[name], row
    for f in floats:
        assert "%.17g" % float(f) == f, f
    print(len(rows), "rows,", len(floats), "floats checked")
    return rows


def check_observables(packet: list[str], rows: list[dict]) -> None:
    report = json.loads(run("observables", "--format", "json", *packet))
    table = [
        (float(r["c_squared"]), int(r["m"]), int(r["n_r"]), int(r["energy"])) for r in rows
    ]

    def total(value, branch=lambda m: True) -> float:
        return math.fsum(w * value(m, n_r, e) for w, m, n_r, e in table if branch(m))

    nonneg, negative = (lambda m: m >= 0), (lambda m: m < 0)
    expected = {
        "mean_m": total(lambda m, n_r, e: m),
        "mean_abs_m": total(lambda m, n_r, e: abs(m)),
        "mean_nr": total(lambda m, n_r, e: n_r),
        "mean_lz": total(lambda m, n_r, e: m),
        "mean_energy": total(lambda m, n_r, e: e),
        "nr_m_nonneg": total(lambda m, n_r, e: n_r, nonneg),
        "nr_m_neg": total(lambda m, n_r, e: n_r, negative),
        "ccw_quanta_m_nonneg": total(lambda m, n_r, e: m + n_r, nonneg),
        "cw_quanta_m_neg": total(lambda m, n_r, e: -m + n_r, negative),
    }
    for name, value in expected.items():
        assert report[name] == value, (name, report[name], value)
    assert report["status"] == "pass", report
    print(len(expected), "moments equal math.fsum over the rows")


def check_frontier() -> None:
    report = json.loads(run("observables", "--format", "json", *FRONTIER, codes=(0,)))
    assert report["status"] == "pass", report
    print("energy_abs_diff", report["energy_abs_diff"], "within", report["tolerance"])


def main() -> int:
    for packet in PACKETS:
        print(" ".join(packet))
        check_observables(packet, check_coeffs(packet))
    print(" ".join(FRONTIER))
    check_frontier()
    return 0


if __name__ == "__main__":
    sys.exit(main())
