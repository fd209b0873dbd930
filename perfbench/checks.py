"""Correctness checks on the output of one CLI operation.

Each check returns a ``Verdict``: whether the op passed, why not, and the
worst residual/tolerance ratio seen (NaN when the output could not be
parsed). Expected values are computed here from the argv, never read back
from the program's own reference columns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from typing import NamedTuple

_COEFF_COLUMNS = ["m", "n_r", "N", "C", "C_squared", "energy"]
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+) residual=(\S+) tol=(\S+)$")
_SUM_TOL = 1e-12
_ORBIT_TOL = 1e-6
_SPECTRAL_TOL = 1e-8


class Verdict(NamedTuple):
    ok: bool
    reason: str
    worst_ratio: float


class _Invalid(ValueError):
    pass


def flags(argv: list[str]) -> dict[str, str]:
    """The ``--flag value`` pairs of an argv list (the command excluded)."""
    return dict(zip(argv[1::2], argv[2::2]))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _Invalid(f"non-finite value {text!r}")
    return value


def _reject_constant(name: str):
    raise _Invalid(f"invalid JSON constant {name}")


def _loads(text: str, object_hook=None):
    try:
        return json.loads(text, parse_constant=_reject_constant, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise _Invalid(f"invalid JSON: {exc}") from None


def _check_verify(argv, out):
    lines = out.splitlines()
    if not lines:
        raise _Invalid("no check lines")
    worst = 0.0
    failed = []
    for line in lines:
        match = _VERIFY_LINE.match(line)
        if match is None:
            raise _Invalid(f"malformed line {line!r}")
        status, name, residual, tol = match.groups()
        worst = max(worst, abs(float(residual)) / float(tol))
        if status != "PASS":
            failed.append(name)
    if failed:
        return Verdict(False, "FAIL " + ",".join(failed), worst)
    return Verdict(True, "", worst)


def _check_evolve(argv, out):
    opts = flags(argv)
    xi0, eta0 = float(opts["--xi0"]), float(opts["--eta0"])
    sign = -1.0 if opts.get("--chirality") == "advanced" else 1.0
    steps = int(opts.get("--tsteps", 64))
    t_max = float(opts.get("--tmax", 2.0 * math.pi))
    rows = _loads(out)["rows"]
    if len(rows) != steps:
        raise _Invalid(f"{len(rows)} rows for {steps} times")
    worst = 0.0
    for k, row in enumerate(rows):
        t = t_max * k / steps
        if abs(row["t"] - t) > 1e-12 * max(1.0, t):
            raise _Invalid(f"row {k} has t={row['t']}, expected {t}")
        orbit = max(
            abs(row["centroid_xi"] - xi0 * math.cos(t)),
            abs(row["centroid_eta"] - sign * eta0 * math.sin(t)),
            abs(row["var_xi"] - 0.5),
            abs(row["var_eta"] - 0.5),
        )
        worst = max(worst, orbit / _ORBIT_TOL, row["spectral_max_err"] / _SPECTRAL_TOL)
    if worst > 1.0:
        return Verdict(False, f"orbit/spectral residual at {worst:.3g} x tolerance", worst)
    return Verdict(True, "", worst)


def _check_modes(modes):
    """(m, n_r, N) triples: N = 2 n_r + |m| and strictly increasing (N, m)."""
    previous = None
    for m, n_r, big_n in modes:
        if n_r < 0 or big_n != 2 * n_r + abs(m):
            raise _Invalid(f"inconsistent mode m={m} n_r={n_r} N={big_n}")
        if previous is not None and (big_n, m) <= previous:
            raise _Invalid(f"mode (N={big_n}, m={m}) out of (N, m) order")
        previous = (big_n, m)


def _sum_verdict(total, tail):
    ratio = abs(total + tail - 1.0) / _SUM_TOL
    if ratio > 1.0:
        return Verdict(False, f"sum + tail - 1 = {total + tail - 1.0:.3g}", ratio)
    return Verdict(True, "", ratio)


def _check_coeffs(argv, out):
    if flags(argv).get("--format") == "json":
        def entry(obj):
            if "m" in obj:
                for key in ("c", "c_squared", "energy"):
                    if not isinstance(obj[key], (int, float)):
                        raise _Invalid(f"non-numeric {key}")
                return (obj["m"], obj["n_r"], obj["N"])
            return obj

        doc = _loads(out, object_hook=entry)
        _check_modes(doc["entries"])
        return _sum_verdict(doc["sum_c_squared"], doc["tail_mass"])
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != _COEFF_COLUMNS:
        raise _Invalid("missing CSV header")
    if len(rows) < 3 or rows[-1][0] != "sum":
        raise _Invalid("missing sum footer")
    modes = []
    for row in rows[1:-1]:
        for value in row[3:]:
            _finite(value)
        modes.append((int(row[0]), int(row[1]), int(row[2])))
    _check_modes(modes)
    return _sum_verdict(_finite(rows[-1][4]), _finite(rows[-1][5]))


def _check_observables(argv, out):
    if flags(argv).get("--format") == "json":
        fields = _loads(out)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != ["quantity", "value"]:
            raise _Invalid("missing CSV header")
        fields = {name: value for name, value in rows[1:]}
    diff = max(_finite(str(fields["lz_abs_diff"])), _finite(str(fields["energy_abs_diff"])))
    ratio = diff / _finite(str(fields["tolerance"]))
    if fields["status"] != "pass":
        return Verdict(False, f"status {fields['status']}", ratio)
    return Verdict(True, "", ratio)


_CHECKS = {
    "verify": _check_verify,
    "evolve": _check_evolve,
    "coeffs": _check_coeffs,
    "observables": _check_observables,
}


def check(argv: list[str], exit_code: int, out: str) -> Verdict:
    """Judge one op from its argv, exit code and standard output."""
    try:
        verdict = _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, f"unparseable output: {type(exc).__name__}: {exc}", math.nan)
    if exit_code != 0:
        return Verdict(False, f"exit code {exit_code}; {verdict.reason}".rstrip("; "),
                       verdict.worst_ratio)
    return verdict
