"""Command-line interface.

Exposes coefficient tables, observable reports, orbit traces and a
one-shot verification suite as deterministic CSV or JSON. All numeric
output is rendered with 17 significant digits so values round-trip and
repeated runs are byte-identical. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _render, dynamics, expansion, observables
from .specialfn import verify_laguerre_integral
from .states import (
    Chirality,
    Grid2D,
    PacketParams,
    PhysicalUnits,
    _default_half_width,
    classical_center,
    make_grid,
    mode_columns,
    to_dimensionless,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_MIN_GRID_POINTS = 33
# Widest grid spacing accepted: the unit-width packet's orbit moments are
# exact to 2e-14 at 0.5, and fail their 1e-6 tolerance from about 0.8.
_MAX_GRID_SPACING = 0.5
# Fewest times `verify` accepts: its orientation test needs a centroid
# polygon with non-zero area.
_MIN_VERIFY_STEPS = 3
# Levels N checked against the quadrature oracle, and the prefix of them
# checked for circular-packet support.
_ORACLE_LEVELS = 12
_SUPPORT_LEVELS = 8
# Rows of the coefficient table rendered per chunk: 0.4 MB of row words in
# CSV, 0.9 MB in JSON. At (20, 19.5) 4096 rendered faster than 1024, 2048,
# 8192 or 16384 rows per chunk; with the 4-word floats, 4096 against 8192
# took 37 against 36 ms in CSV and 51 against 58 ms in JSON. Then the text
# around the six fields (m, n_r, N, c, c^2, N + 1) of a row in each format:
# floats print as _g17 does and N + 1 is an integer, and a JSON row starts
# with the ",\n" that separates it from the row before (the first drops it).
_COEFF_CHUNK = 4096
_ROW_PIECES = {
    "csv": ("", ",", ",", ",", ",", ",", "\n"),
    "json": (
        ',\n    {\n      "m": ',
        ',\n      "n_r": ',
        ',\n      "N": ',
        ',\n      "c": ',
        ',\n      "c_squared": ',
        ',\n      "energy": ',
        "\n    }",
    ),
}
_JSON_SEPARATOR = ",\n"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    xi0: float
    eta0: float
    chirality: Chirality = Chirality.RETARDED
    omega: float = 1.0
    n_max: int | None = None
    grid_half_width: float | None = None
    grid_points: int = 257
    t_max: float = 2.0 * math.pi
    t_steps: int = 64
    format: str = "csv"
    output_path: str | None = None
    params: PacketParams = field(init=False)

    def __post_init__(self):
        packet = PacketParams(self.xi0, self.eta0, self.chirality, self.omega)
        object.__setattr__(self, "params", packet)
        if self.grid_points < _MIN_GRID_POINTS or self.grid_points % 2 == 0:
            raise ConfigError(
                f"grid points must be odd and >= {_MIN_GRID_POINTS}, got {self.grid_points}"
            )
        if self.grid_half_width is not None and not 0.0 < self.grid_half_width < math.inf:
            raise ConfigError("grid half width must be positive and finite")
        if self.t_steps < 1:
            raise ConfigError("need at least one time step")
        if not 0.0 < self.t_max < math.inf:
            raise ConfigError("the time span must be positive and finite")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.n_max is not None and self.n_max < 0:
            raise ConfigError("the table cutoff must be non-negative")


def _resolved_grid(config: RunConfig) -> Grid2D:
    """The configured grid, for the commands that sample the packet on one.

    A grid spacing above ``_MAX_GRID_SPACING`` is a usage error.
    """
    half_width = config.grid_half_width
    if half_width is None:
        half_width = _default_half_width(config.params)
    spacing = 2.0 * half_width / (config.grid_points - 1)
    if spacing > _MAX_GRID_SPACING:
        raise ConfigError(
            f"grid spacing {spacing:.6g} exceeds {_MAX_GRID_SPACING}: the packet "
            "is not resolved; raise --grid-points or lower --grid-half-width"
        )
    return make_grid(config.params, config.grid_half_width, config.grid_points)


def _g17(x) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"refusing to print the non-finite number {value}")
    return format(value, ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with fixed 17-significant-digit floats.

    The stdlib encoder renders floats with repr, which cannot be pinned to
    a digit count; this walker handles the flat structures emitted here.
    A non-finite float raises ``ValueError``: JSON has no spelling for it.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _g17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(pieces, config: RunConfig) -> None:
    """Write an iterable of text pieces to stdout or, opened once, ``--out``."""
    if config.output_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def _params_dict(params: PacketParams, n_max: int) -> dict:
    return {
        "xi0": params.xi0,
        "eta0": params.eta0,
        "chirality": params.chirality.value,
        "omega": params.omega,
        "n_max": n_max,
    }


def _coeff_chunks(table: expansion.CoefficientTable, fmt: str):
    """The table's rows as text in format ``fmt``, a chunk at a time.

    The row text is laid out once in a template of ``_COEFF_CHUNK`` rows;
    each chunk writes its values into the template's first rows.
    """
    template, slots = _render.row_template(
        _ROW_PIECES[fmt], "iiiffi", min(len(table), _COEFF_CHUNK)
    )
    columns = (table.m, table.n_r, table.principal, table.c, table.c_squared)
    for lo in range(0, len(table), _COEFF_CHUNK):
        chunk = [column[lo : lo + _COEFF_CHUNK] for column in columns]
        text = _render.fill_rows(template, slots, [*chunk, chunk[2] + 1])
        if lo == 0 and fmt == "json":
            text = text[len(_JSON_SEPARATOR) :]
        yield text


def _coeff_document(table: expansion.CoefficientTable, fmt: str):
    """The ``coeffs`` document as a stream of text pieces."""
    total = table.sum_c_squared
    if fmt == "json":
        params = _json_dumps(_params_dict(table.params, table.n_max), 1)
        yield '{\n  "params": ' + params + ',\n  "entries": '
        if len(table):
            yield "[\n"
            yield from _coeff_chunks(table, fmt)
            yield "\n  ]"
        else:
            yield "[]"
        yield (
            f',\n  "sum_c_squared": {_g17(total)},'
            f'\n  "tail_mass": {_g17(table.tail_mass)}\n}}\n'
        )
    else:
        yield "m,n_r,N,C,C_squared,energy\n"
        yield from _coeff_chunks(table, fmt)
        yield f"sum,,,,{_g17(total)},{_g17(table.tail_mass)}\n"


def cmd_coeffs(config: RunConfig) -> int:
    """Write the coefficient table sorted by (N, m), with a sum/tail footer.

    The rows are streamed, so every printed value is checked to be finite
    before anything is opened or written.
    """
    table = expansion.build_table(config.params, config.n_max)
    # min and max propagate NaN; _g17 raises on the first non-finite value
    lowest, highest = table.c.min(initial=0.0), table.c.max(initial=0.0)
    for value in (lowest, highest, table.sum_c_squared, table.tail_mass):
        _g17(value)
    _emit(_coeff_document(table, config.format), config)
    return EXIT_OK


def cmd_observables(config: RunConfig) -> int:
    """Emit the moment report, closed-form predictions and their differences.

    Exits 1 when a prediction differs beyond max(1e-9, 10 tail_mass).
    """
    params = config.params
    table = expansion.build_table(params, config.n_max)
    report = observables.compute_report(table)
    predicted_lz = observables.closed_form_lz(params)
    predicted_energy = observables.closed_form_energy(params)
    lz_diff = abs(report.mean_lz - predicted_lz)
    energy_diff = abs(report.mean_energy - predicted_energy)
    tolerance = max(1e-9, 10.0 * table.tail_mass)
    ok = lz_diff <= tolerance and energy_diff <= tolerance
    fields = [
        ("xi0", params.xi0),
        ("eta0", params.eta0),
        ("chirality", params.chirality.value),
        ("omega", params.omega),
        ("n_max", table.n_max),
        ("tail_mass", table.tail_mass),
        ("mean_m", report.mean_m),
        ("mean_abs_m", report.mean_abs_m),
        ("mean_nr", report.mean_nr),
        ("mean_lz", report.mean_lz),
        ("mean_energy", report.mean_energy),
        ("norm_deficit", report.norm_deficit),
        ("nr_m_nonneg", report.partials.nr_m_nonneg),
        ("nr_m_neg", report.partials.nr_m_neg),
        ("ccw_quanta_m_nonneg", report.partials.ccw_quanta_m_nonneg),
        ("cw_quanta_m_neg", report.partials.cw_quanta_m_neg),
        ("predicted_lz", predicted_lz),
        ("predicted_energy", predicted_energy),
        ("lz_abs_diff", lz_diff),
        ("energy_abs_diff", energy_diff),
        ("tolerance", tolerance),
        ("status", "pass" if ok else "fail"),
    ]
    if config.format == "json":
        _emit([_json_dumps(dict(fields)) + "\n"], config)
    else:
        rows = [
            (name, value if isinstance(value, str) else _g17(value))
            for name, value in fields
        ]
        _emit([_csv_text(("quantity", "value"), rows)], config)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_evolve(config: RunConfig) -> int:
    """Per-time orbit trace with the spectral-vs-closed-form residual column.

    Times are in units of 1/omega, t_steps of them covering [0, t_max).
    A non-finite value exits 1 with an error naming its column and time,
    and nothing is written.
    """
    params = config.params
    grid = _resolved_grid(config)
    table = expansion.build_table(params, config.n_max)
    evolver = dynamics.SpectralEvolver(table, grid)
    taus = [config.t_max * k / config.t_steps for k in range(config.t_steps)]
    real_times = [tau / params.omega for tau in taus]
    factors = dynamics.closed_form_factors(params, grid, real_times)
    samples = dynamics.trace_orbit(params, real_times, grid, factors)
    errors = evolver.residuals(real_times, factors)
    rows = []
    for tau, t, sample, err in zip(taus, real_times, samples, errors):
        cx, cy = classical_center(params, t)
        rows.append(
            {
                "t": tau,
                "centroid_xi": sample.centroid_xi,
                "centroid_eta": sample.centroid_eta,
                "classical_xi": cx,
                "classical_eta": cy,
                "var_xi": sample.var_xi,
                "var_eta": sample.var_eta,
                "norm": sample.norm,
                "spectral_max_err": err,
            }
        )
    for row in rows:
        for name, value in row.items():
            if not math.isfinite(value):
                print(
                    f"error: {name} is {value} at t={_g17(row['t'])}", file=sys.stderr
                )
                return EXIT_VERIFY_FAIL
    if config.format == "json":
        doc = {"params": _params_dict(params, table.n_max), "rows": rows}
        _emit([_json_dumps(doc) + "\n"], config)
    else:
        header = tuple(rows[0].keys())
        _emit(
            [_csv_text(header, [tuple(_g17(row[k]) for k in header) for row in rows])],
            config,
        )
    return EXIT_OK


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float


def _worst(residuals) -> float:
    """Largest residual of an array or an iterable, 0 for none; NaN as soon
    as one is not finite.

    Every check reduces through this, because ``max(worst, nan)`` keeps
    ``worst`` and would let a check pass on NaN.
    """
    if not isinstance(residuals, np.ndarray):
        residuals = list(residuals)
    values = np.asarray(residuals, dtype=float)
    if not np.isfinite(values).all():
        return math.nan
    return float(values.max()) if values.size else 0.0


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| of a complex array as Python's ``abs`` gives it for each value:
    ``np.abs`` differs from it in the last bit on about a third of values."""
    return np.hypot(z.real, z.imag)


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    """A check that passes when the residual is at most the tolerance; NaN fails."""
    return CheckResult(name, residual <= tolerance, residual, tolerance)


def _poisson_pmf(n: int, s: float) -> float:
    if s == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-s + n * math.log(s) - math.lgamma(n + 1.0))


def run_verification(
    config: RunConfig, table: expansion.CoefficientTable, grid: Grid2D
) -> list[CheckResult]:
    """Oracle and identity sweeps over every module, on the configured packet.

    ``table`` is the packet's coefficient table at the configured cutoff and
    ``grid`` the configured grid.
    """
    params = config.params
    checks: list[CheckResult] = []

    # closed form vs quadrature for the radial Laguerre integral identity,
    # over the 7 x 5 x 7 sweep of (n, mu, lam) in one call
    closed, quad = verify_laguerre_integral(*np.ogrid[:7, :5, :7])
    residuals = np.abs(closed - quad) / np.maximum(1.0, np.abs(closed))
    checks.append(_check("laguerre-integral-identity", _worst(residuals), 1e-10))

    # analytic coefficients vs the projection-integral oracle, every mode
    # projected in one batch at the orders the highest checked level needs
    m, n_r = mode_columns(min(_ORACLE_LEVELS, table.n_max))
    radial_order, angular_points = expansion.oracle_orders(
        params, _ORACLE_LEVELS, _ORACLE_LEVELS
    )
    quads = expansion.coeff_quadrature_batch(
        params, list(zip(m.tolist(), n_r.tolist())), radial_order, angular_points
    )
    # the closed form of every checked mode in one call, as build_table takes it
    closed = expansion._closed_form(params, m, n_r)
    checks.append(_check("coefficient-oracle", _worst(_modulus(quads - closed)), 1e-10))
    checks.append(_check("coefficient-oracle-imag", _worst(np.abs(quads.imag)), 1e-12))

    if params.xi0 == params.eta0:
        # circular packets live on the nodeless single-signed-m ladder; the
        # levels checked here are a prefix of the batch above
        wrong_m = m < 0 if params.chirality is Chirality.RETARDED else m > 0
        forbidden = (2 * n_r + np.abs(m) <= _SUPPORT_LEVELS) & ((n_r > 0) | wrong_m)
        checks.append(_check("circular-support", _worst(_modulus(quads[forbidden])), 1e-12))

    # normalization and the Poisson principal-number marginal
    checks.append(
        _check("normalization", _worst([abs(1.0 - table.sum_c_squared)]), 1e-12)
    )
    _, p_n = observables.marginals(table)
    s = params.mean_quanta
    worst = _worst([abs(p_n.get(n, 0.0) - _poisson_pmf(n, s)) for n in range(21)])
    checks.append(_check("poisson-marginal", worst, 1e-10))

    # branch-moment identities and the closed-form observables
    report = observables.compute_report(table)
    moments = observables._ladder_moments(table, report)
    a2 = params.half_diff**2
    b2 = params.half_sum**2
    if params.chirality is Chirality.RETARDED:
        expect_cw, expect_ccw = a2, b2
    else:
        expect_cw, expect_ccw = b2, a2
    worst = _worst(
        [
            abs(moments.cw_quanta - expect_cw),
            abs(moments.ccw_quanta - expect_ccw),
            abs(moments.principal - (a2 + b2)),
            abs(moments.net_m - observables.closed_form_lz(params)),
            abs(report.mean_lz - observables.closed_form_lz(params)),
            abs(report.mean_energy - observables.closed_form_energy(params)),
        ]
    )
    checks.append(_check("moment-identities", worst, 1e-9))

    # the closed form's factors at the orbit's times and then the spectral
    # check's, from one call: each time's row is computed on its own
    period = 2.0 * math.pi / params.omega
    times = [period * k / config.t_steps for k in range(config.t_steps)]
    spectral_times = [0.0, 0.7 / params.omega, math.pi / params.omega, 5.1 / params.omega]
    x, y = dynamics.closed_form_factors(params, grid, times + spectral_times)
    orbit = len(times)
    spectral = (x[orbit:].copy(), y[orbit:].copy())

    # classical correspondence: rigid translation along the ellipse
    samples = dynamics.trace_orbit(params, times, grid, (x[:orbit], y[:orbit]))
    # only the spectral rows outlive the orbit check, so that neither the
    # evolver's build nor the residuals hold the orbit's factors
    del x, y
    residuals = []
    for t, sample in zip(times, samples):
        cx, cy = classical_center(params, t)
        residuals += [
            abs(sample.centroid_xi - cx),
            abs(sample.centroid_eta - cy),
            abs(sample.var_xi - 0.5),
            abs(sample.var_eta - 0.5),
        ]
        if params.xi0 > 0.0 and params.eta0 > 0.0:
            try:
                residuals.append(
                    abs(
                        (sample.centroid_xi / params.xi0) ** 2
                        + (sample.centroid_eta / params.eta0) ** 2
                        - 1.0
                    )
                )
            except OverflowError:  # a square past the doubles: non-finite, so the check fails
                residuals.append(math.inf)
    worst = _worst(residuals)
    orbit_ok = worst <= 1e-6
    if params.xi0 > 0.0 and params.eta0 > 0.0:
        area = dynamics.orbit_signed_area(samples)
        orbit_ok = orbit_ok and (area > 0) == (params.chirality is Chirality.RETARDED)
    checks.append(CheckResult("orbit-nonspreading", orbit_ok, worst, 1e-6))

    # spectral synthesis against the closed form, phase-quotient
    evolver = dynamics.SpectralEvolver(table, grid)
    residuals = evolver.residuals(spectral_times, spectral)
    checks.append(_check("spectral-completeness", _worst(residuals), 1e-8))
    return checks


def cmd_verify(config: RunConfig) -> int:
    """Run every check suite and report one verdict per check.

    Text output is one PASS/FAIL line per check; JSON holds the packet
    parameters, each check, and the overall verdict. A non-finite residual
    fails its check and prints as ``nan`` (JSON ``null``).
    """
    grid = _resolved_grid(config)
    table = expansion.build_table(config.params, config.n_max)
    checks = run_verification(config, table, grid)
    passed = all(c.passed for c in checks)
    if config.format == "json":
        doc = {
            "params": _params_dict(config.params, table.n_max),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual if math.isfinite(c.residual) else None,
                    "tolerance": c.tolerance,
                }
                for c in checks
            ],
            "passed": passed,
        }
        _emit([_json_dumps(doc) + "\n"], config)
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name} residual="
            f"{_g17(c.residual) if math.isfinite(c.residual) else 'nan'} "
            f"tol={_g17(c.tolerance)}"
            for c in checks
        ]
        _emit(["\n".join(lines) + "\n"], config)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "observables": cmd_observables,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--xi0", type=float, default=None, help="dimensionless x amplitude")
    parser.add_argument("--eta0", type=float, default=None, help="dimensionless y amplitude")
    parser.add_argument(
        "--chirality",
        choices=[c.value for c in Chirality],
        default=Chirality.RETARDED.value,
        help="sense of the pi/2 relative phase of the y packet",
    )
    parser.add_argument("--nmax", type=int, default=None, help="principal-number cutoff")
    parser.add_argument(
        "--grid-half-width",
        type=float,
        default=None,
        help="grid half width (default max(xi0, eta0) + 6)",
    )
    parser.add_argument("--grid-points", type=int, default=257, help="odd points per axis")
    parser.add_argument(
        "--tmax",
        type=float,
        default=2.0 * math.pi,
        help="evolve's time span in units of 1/omega; verify always sweeps one period",
    )
    parser.add_argument("--tsteps", type=int, default=64, help="number of times")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    units = parser.add_argument_group("physical units (alternative to --xi0/--eta0)")
    units.add_argument("--mass", type=float, default=None)
    units.add_argument("--omega", type=float, default=None)
    units.add_argument("--hbar", type=float, default=None)
    units.add_argument("--x0", type=float, default=None)
    units.add_argument("--y0", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherent2d",
        description=(
            "Coherent-state structure of the 2D isotropic harmonic oscillator: "
            "eigenbasis coefficients, observables, orbit traces and verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "coeffs": "expansion coefficient table",
        "observables": "moment report with closed-form cross-checks",
        "evolve": "orbit trace with the spectral residual per time",
        "verify": "run every oracle/identity suite and report PASS/FAIL",
    }
    # the subcommands share one set of flag actions: argparse formats each
    # argument as it is added, and adding the flags once, not four times,
    # cut the build from about 4.3 to 1.1 ms (2-core x86-64)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    for name, text in helps.items():
        sub.add_parser(name, help=text, parents=[common])
    return parser


# One parser per process, built by the first ``main`` call; parsing leaves
# the parser unchanged.
_parser = functools.cache(build_parser)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    physical = {
        key: getattr(args, key) for key in ("mass", "omega", "hbar", "x0", "y0")
    }
    uses_physical = any(v is not None for v in physical.values())
    if uses_physical:
        if args.xi0 is not None or args.eta0 is not None:
            raise ConfigError(
                "--xi0/--eta0 and the physical-unit flags are mutually exclusive"
            )
        missing = [k for k in ("mass", "omega", "hbar") if physical[k] is None]
        if missing:
            raise ConfigError(f"physical input needs --{', --'.join(missing)}")
        units = PhysicalUnits(
            mass=physical["mass"],
            omega=physical["omega"],
            hbar=physical["hbar"],
            x0=physical["x0"] or 0.0,
            y0=physical["y0"] or 0.0,
        )
        base = to_dimensionless(units)
        xi0, eta0, omega = base.xi0, base.eta0, base.omega
    else:
        xi0 = args.xi0 if args.xi0 is not None else 0.0
        eta0 = args.eta0 if args.eta0 is not None else 0.0
        omega = 1.0
    if args.command == "verify" and args.tsteps < _MIN_VERIFY_STEPS:
        raise ConfigError(
            f"verify needs at least {_MIN_VERIFY_STEPS} time steps to test the "
            f"orbit's orientation, got {args.tsteps}"
        )
    return RunConfig(
        xi0=xi0,
        eta0=eta0,
        chirality=Chirality(args.chirality),
        omega=omega,
        n_max=args.nmax,
        grid_half_width=args.grid_half_width,
        grid_points=args.grid_points,
        t_max=args.tmax,
        t_steps=args.tsteps,
        format=args.format,
        output_path=args.out,
    )


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    raise SystemExit(main())
