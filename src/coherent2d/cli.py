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
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import dynamics, expansion, observables
from .specialfn import verify_laguerre_integral
from .states import (
    Chirality,
    PacketParams,
    PhysicalUnits,
    classical_center,
    make_grid,
    modes_up_to,
    to_dimensionless,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_MIN_GRID_POINTS = 33
# Levels N checked against the quadrature oracle, and the prefix of them
# checked for circular-packet support.
_ORACLE_LEVELS = 12
_SUPPORT_LEVELS = 8


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


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _params_dict(params: PacketParams, n_max: int) -> dict:
    return {
        "xi0": params.xi0,
        "eta0": params.eta0,
        "chirality": params.chirality.value,
        "omega": params.omega,
        "n_max": n_max,
    }


def cmd_coeffs(config: RunConfig) -> int:
    """Write the coefficient table sorted by (N, m), with a sum/tail footer."""
    table = expansion.build_table(config.params, config.n_max)
    total = math.fsum((table.c * table.c).tolist())
    rows = zip(
        table.m.tolist(), table.n_r.tolist(), table.principal.tolist(), table.c.tolist()
    )
    if config.format == "json":
        entries = [
            {
                "m": m,
                "n_r": n_r,
                "N": big_n,
                "c": c,
                "c_squared": c * c,
                "energy": float(big_n + 1),
            }
            for m, n_r, big_n, c in rows
        ]
        doc = {
            "params": _params_dict(table.params, table.n_max),
            "entries": entries,
            "sum_c_squared": total,
            "tail_mass": table.tail_mass,
        }
        _emit(_json_dumps(doc) + "\n", config)
    else:
        lines = [
            (m, n_r, big_n, _g17(c), _g17(c * c), _g17(big_n + 1))
            for m, n_r, big_n, c in rows
        ]
        lines.append(("sum", "", "", "", _g17(total), _g17(table.tail_mass)))
        _emit(_csv_text(("m", "n_r", "N", "C", "C_squared", "energy"), lines), config)
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
        _emit(_json_dumps(dict(fields)) + "\n", config)
    else:
        rows = [
            (name, value if isinstance(value, str) else _g17(value))
            for name, value in fields
        ]
        _emit(_csv_text(("quantity", "value"), rows), config)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_evolve(config: RunConfig) -> int:
    """Per-time orbit trace with the spectral-vs-closed-form residual column.

    Times are in units of 1/omega, t_steps of them covering [0, t_max).
    A non-finite value exits 1 with an error naming its column and time,
    and nothing is written.
    """
    params = config.params
    grid = make_grid(params, config.grid_half_width, config.grid_points)
    table = expansion.build_table(params, config.n_max)
    evolver = dynamics.SpectralEvolver(table, grid)
    taus = [config.t_max * k / config.t_steps for k in range(config.t_steps)]
    real_times = [tau / params.omega for tau in taus]
    samples = dynamics.trace_orbit(params, real_times, grid)
    rows = []
    for tau, t, sample in zip(taus, real_times, samples):
        closed = dynamics.evolve_closed_form(params, grid, t)
        err = dynamics.aligned_max_difference(closed, evolver.at(t))
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
        _emit(_json_dumps(doc) + "\n", config)
    else:
        header = tuple(rows[0].keys())
        _emit(
            _csv_text(header, [tuple(_g17(row[k]) for k in header) for row in rows]),
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
    """Largest residual, 0 for none; NaN as soon as one is not finite.

    Every check reduces through this, because ``max(worst, nan)`` keeps
    ``worst`` and would let a check pass on NaN.
    """
    values = [float(r) for r in residuals]
    if not all(math.isfinite(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    """A check that passes when the residual is at most the tolerance; NaN fails."""
    return CheckResult(name, residual <= tolerance, residual, tolerance)


def _poisson_pmf(n: int, s: float) -> float:
    if s == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-s + n * math.log(s) - math.lgamma(n + 1.0))


def run_verification(
    config: RunConfig, table: expansion.CoefficientTable
) -> list[CheckResult]:
    """Oracle and identity sweeps over every module, on the configured packet.

    ``table`` is the packet's coefficient table at the configured cutoff.
    """
    params = config.params
    checks: list[CheckResult] = []

    # closed form vs quadrature for the radial Laguerre integral identity
    residuals = []
    for n in range(7):
        for mu in range(5):
            for lam in range(7):
                closed, quad = verify_laguerre_integral(n, mu, lam)
                residuals.append(abs(closed - quad) / max(1.0, abs(closed)))
    checks.append(_check("laguerre-integral-identity", _worst(residuals), 1e-10))

    # analytic coefficients vs the projection-integral oracle, every mode
    # projected in one batch at the orders the highest checked level needs
    modes = modes_up_to(min(_ORACLE_LEVELS, table.n_max))
    radial_order, angular_points = expansion.oracle_orders(
        params, _ORACLE_LEVELS, _ORACLE_LEVELS
    )
    quads = expansion.coeff_quadrature_batch(params, modes, radial_order, angular_points)
    quads = quads.tolist()
    worst = _worst(
        abs(quad - expansion.coeff_elliptic(params, mode))
        for mode, quad in zip(modes, quads)
    )
    checks.append(_check("coefficient-oracle", worst, 1e-10))
    checks.append(
        _check("coefficient-oracle-imag", _worst(abs(q.imag) for q in quads), 1e-12)
    )

    if params.xi0 == params.eta0:
        # circular packets live on the nodeless single-signed-m ladder; the
        # levels checked here are a prefix of the batch above
        forbidden = []
        for mode, quad in zip(modes, quads):
            if mode.principal > _SUPPORT_LEVELS:
                break
            wrong_m = mode.m < 0 if params.chirality is Chirality.RETARDED else mode.m > 0
            if mode.n_r > 0 or wrong_m:
                forbidden.append(abs(quad))
        checks.append(_check("circular-support", _worst(forbidden), 1e-12))

    # normalization and the Poisson principal-number marginal
    total = math.fsum((table.c * table.c).tolist())
    checks.append(_check("normalization", _worst([1.0 - total]), 1e-12))
    _, p_n = observables.marginals(table)
    s = params.mean_quanta
    worst = _worst(abs(p_n.get(n, 0.0) - _poisson_pmf(n, s)) for n in range(21))
    checks.append(_check("poisson-marginal", worst, 1e-10))

    # branch-moment identities and the closed-form observables
    report = observables.compute_report(table)
    moments = observables.partial_moment_identities(table)
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

    # classical correspondence: rigid translation along the ellipse
    grid = make_grid(params, config.grid_half_width, config.grid_points)
    period = 2.0 * math.pi / params.omega
    times = [period * k / config.t_steps for k in range(config.t_steps)]
    samples = dynamics.trace_orbit(params, times, grid)
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
            residuals.append(
                abs(
                    (sample.centroid_xi / params.xi0) ** 2
                    + (sample.centroid_eta / params.eta0) ** 2
                    - 1.0
                )
            )
    worst = _worst(residuals)
    orbit_ok = worst <= 1e-6
    if params.xi0 > 0.0 and params.eta0 > 0.0:
        area = dynamics.orbit_signed_area(samples)
        orbit_ok = orbit_ok and (area > 0) == (params.chirality is Chirality.RETARDED)
    checks.append(CheckResult("orbit-nonspreading", orbit_ok, worst, 1e-6))

    # spectral synthesis against the closed form, phase-quotient
    evolver = dynamics.SpectralEvolver(table, grid)
    residuals = [
        dynamics.aligned_max_difference(
            dynamics.evolve_closed_form(params, grid, t), evolver.at(t)
        )
        for t in (0.0, 0.7 / params.omega, math.pi / params.omega, 5.1 / params.omega)
    ]
    checks.append(_check("spectral-completeness", _worst(residuals), 1e-8))
    return checks


def cmd_verify(config: RunConfig) -> int:
    """Run every check suite and report one verdict per check.

    Text output is one PASS/FAIL line per check; JSON holds the packet
    parameters, each check, and the overall verdict. A non-finite residual
    fails its check and prints as ``nan`` (JSON ``null``).
    """
    table = expansion.build_table(config.params, config.n_max)
    checks = run_verification(config, table)
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
        _emit(_json_dumps(doc) + "\n", config)
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name} residual="
            f"{_g17(c.residual) if math.isfinite(c.residual) else 'nan'} "
            f"tol={_g17(c.tolerance)}"
            for c in checks
        ]
        _emit("\n".join(lines) + "\n", config)
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
        "--tmax", type=float, default=2.0 * math.pi, help="time span in units of 1/omega"
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
    for name, text in helps.items():
        _add_common_flags(sub.add_parser(name, help=text))
    return parser


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
        args = build_parser().parse_args(argv)
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
