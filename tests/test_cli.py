import argparse
import csv
import io
import json
import math
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent2d import (
    Chirality,
    PacketParams,
    _render,
    cli,
    dynamics,
    expansion,
    modes_up_to,
    observables,
)
from coherent2d.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    ConfigError,
    RunConfig,
    _check,
    _g17,
    _json_dumps,
    _resolved_grid,
    _worst,
    main,
)

FAST = ["--grid-points", "65", "--tsteps", "8"]
# 594 rows, among them subnormal c, c^2 that underflows to 0 and subnormal c^2
UNDERFLOW_ARGV = ["--xi0", "29", "--eta0", "28.9997", "--nmax", "33"]


def reference_coeffs(table, fmt):
    """``coeffs`` output as rendered row by row: dicts through ``_json_dumps``,
    tuples through ``csv.writer``."""
    total = math.fsum((table.c * table.c).tolist())
    rows = zip(
        table.m.tolist(), table.n_r.tolist(), table.principal.tolist(), table.c.tolist()
    )
    if fmt == "json":
        entries = [
            {"m": m, "n_r": n_r, "N": big_n, "c": c, "c_squared": c * c,
             "energy": float(big_n + 1)}
            for m, n_r, big_n, c in rows
        ]
        doc = {
            "params": cli._params_dict(table.params, table.n_max),
            "entries": entries,
            "sum_c_squared": total,
            "tail_mass": table.tail_mass,
        }
        return _json_dumps(doc) + "\n"
    lines = [
        (m, n_r, big_n, _g17(c), _g17(c * c), _g17(big_n + 1)) for m, n_r, big_n, c in rows
    ]
    lines.append(("sum", "", "", "", _g17(total), _g17(table.tail_mass)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("m", "n_r", "N", "C", "C_squared", "energy"))
    writer.writerows(lines)
    return buf.getvalue()


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_rejects_even_grid(self):
        with pytest.raises(ValueError):
            RunConfig(xi0=1.0, eta0=1.0, grid_points=100)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            RunConfig(xi0=1.0, eta0=1.0, grid_points=31)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            RunConfig(xi0=1.0, eta0=1.0, t_steps=0)

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            RunConfig(xi0=1.0, eta0=1.0, format="xml")



class TestGridSpacing:
    def test_rejects_unresolved_grid(self):
        def grid(xi0=1.5, **kwargs):
            return _resolved_grid(RunConfig(xi0=xi0, **kwargs))

        grid(eta0=0.5, grid_points=33)  # half width 7.5: 0.47
        grid(eta0=0.5, grid_half_width=60.0, grid_points=241)  # 0.5
        with pytest.raises(ConfigError, match="grid spacing 0.504202 exceeds 0.5"):
            grid(eta0=0.5, grid_half_width=60.0, grid_points=239)
        # the default half width grows with the amplitude
        grid(xi0=58.0, eta0=0.0, grid_points=257)
        with pytest.raises(ConfigError, match="grid spacing"):
            grid(xi0=0.0, eta0=58.5, grid_points=257)
        # the configuration itself does not depend on a grid
        RunConfig(xi0=0.0, eta0=58.5, grid_points=257)

    def test_only_grid_commands_check_spacing(self, capsys):
        argv = ["--xi0", "60", "--eta0", "0", "--nmax", "10"]
        code, out, err = run(["coeffs", *argv], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith("\nsum,,,,0,1\n")
        assert "grid spacing" not in run(["observables", *argv], capsys)[2]
        for command in ("evolve", "verify"):
            code, out, err = run([command, *argv], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: grid spacing 0.515625 exceeds 0.5")


class TestCoeffs:
    def test_circular_support_rows(self, capsys):
        code, out, _ = run(["coeffs", "--xi0", "1", "--eta0", "1"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "m,n_r,N,C,C_squared,energy"
        assert lines[-1].startswith("sum,")
        total = 0.0
        for line in lines[1:-1]:
            m, n_r, _, _, c_sq, _ = line.split(",")
            assert int(m) >= 0
            assert int(n_r) == 0
            total += float(c_sq)
        assert total >= 1.0 - 1e-12

    def test_point_packet_single_row(self, capsys):
        code, out, _ = run(["coeffs", "--xi0", "0", "--eta0", "0"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == "0,0,0,1,1,1"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            ["coeffs", "--xi0", "1.5", "--eta0", "0.5", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) >= {"entries", "tail_mass", "params"}
        assert doc["params"]["xi0"] == 1.5
        assert doc["params"]["chirality"] == "retarded"
        first = doc["entries"][0]
        assert set(first) == {"m", "n_r", "N", "c", "c_squared", "energy"}

    def test_rows_sorted_by_level_then_m(self, capsys):
        _, out, _ = run(["coeffs", "--xi0", "1.5", "--eta0", "0.5"], capsys)
        keys = []
        for line in out.strip().splitlines()[1:-1]:
            parts = line.split(",")
            keys.append((int(parts[2]), int(parts[0])))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--xi0", "1", "--eta0", "1"],
            ["--xi0", "2.5", "--eta0", "2.5", "--chirality", "advanced"],
            ["--xi0", "0", "--eta0", "0"],
            ["--xi0", "1.5", "--eta0", "0.5", "--nmax", "0"],
            ["--xi0", "3.2", "--eta0", "1.1", "--chirality", "advanced"],
            # 16,653 rows: more than two chunks
            ["--xi0", "12", "--eta0", "7"],
            # every mode underflows: no rows
            ["--xi0", "55", "--eta0", "0", "--nmax", "0"],
            UNDERFLOW_ARGV,
            [*UNDERFLOW_ARGV, "--chirality", "advanced"],
        ],
    )
    def test_bytes_match_row_by_row_rendering(self, argv, fmt, capsys):
        code, out, err = run(["coeffs", *argv, "--format", fmt], capsys)
        assert (code, err) == (EXIT_OK, "")
        config = cli._config_from_args(cli.build_parser().parse_args(["coeffs", *argv]))
        table = expansion.build_table(config.params, config.n_max)
        assert out == reference_coeffs(table, fmt)

    def test_underflow_table_holds_every_kind(self):
        params = PacketParams(29.0, 28.9997)
        table = expansion.build_table(params, 33)
        tiny = np.finfo(float).tiny
        c, c_squared = np.abs(table.c), table.c_squared
        assert len(table) == 594
        assert np.count_nonzero(c < tiny) == 10
        assert np.count_nonzero(c_squared == 0.0) == 574
        assert np.count_nonzero((c_squared > 0.0) & (c_squared < tiny)) == 18

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 7, 9, 45])
    def test_chunk_boundaries(self, chunk, fmt, capsys, monkeypatch):
        # (1.5, 0.5) at n_max 8 has 45 rows: 45 chunks of 1, 5 of 9, one of
        # 45, and 6 of 7 plus a partial one
        monkeypatch.setattr(cli, "_COEFF_CHUNK", chunk)
        params = PacketParams(1.5, 0.5)
        table = expansion.build_table(params, 8)
        assert len(table) == 45
        code, out, _ = run(
            ["coeffs", "--xi0", "1.5", "--eta0", "0.5", "--nmax", "8", "--format", fmt],
            capsys,
        )
        assert code == EXIT_OK
        assert out == reference_coeffs(table, fmt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_table_writes_nothing(self, bad, fmt, capsys, monkeypatch, tmp_path):
        true_build = expansion.build_table

        def poisoned(params, n_max=None):
            table = true_build(params, n_max)
            c = table.c.copy()
            c[len(c) // 2] = bad
            return expansion.CoefficientTable(
                table.params, table.n_max, table.m, table.n_r, c, table.tail_mass
            )

        monkeypatch.setattr(expansion, "build_table", poisoned)
        argv = ["coeffs", "--xi0", "1.5", "--eta0", "0.5", "--format", fmt]
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: refusing to print the non-finite number {bad}\n"
        path = tmp_path / "table.out"
        code, out, _ = run(argv + ["--out", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert not path.exists()

    def test_byte_stable_across_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["coeffs", "--xi0", "1", "--eta0", "1", "--out", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


def render_floats(values) -> list[str]:
    return _render.render_rows(("", "\n"), [np.array(values, dtype=float)]).splitlines()


def edge_floats() -> list[float]:
    """Values at the corners of '%.17g': zeros, subnormals, powers of ten
    (some of them doubles just below the power that round up to it), the
    positional/scientific switch points, exact decimal ties, and the shapes
    the float words lay out apart or leave to format()."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              math.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308]
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    # beside the %g switch points 1e-5/1e-4 and 1e16/1e17, values with all
    # 17 digits on either side
    values += [9.9999999999999991e-06, 1.0000000000000001e-05, 9.9999999999999991e-05,
               1.0000000000000002e-04, 9999999999999998.0, 10000000000000002.0,
               99999999999999984.0, 100000000000000016.0]
    # exact decimal ties at the 18th significant digit
    values += [1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25, 2e15 + 1.25, 2**-25, 3 * 2**-25]
    # exact values with the point after every tail digit 1-15, all 17 digits
    # kept and fewer (format() prints them), trailing zeros running from the
    # last digit word into the first, 17 digits before the point, and 0.ddd
    # to 0.000ddd
    for p in range(1, 16):
        whole = int("12345678912345678"[: p + 1])
        values += [whole + 3 / 2 ** (16 - p), whole + 0.5, whole + 0.25, float(whole)]
    values += [1.2345, 12.5, 1234567.5, 12345678.5, 123456789.5, 1234567800000000.0]
    values += [12345678901234568.0, 0.25, 0.0625, 0.001953125, 0.0001220703125, 0.09375]
    return values + [-v for v in values]


def g17_text(negative: bool, digits: str, e10: int) -> str:
    """'%.17g' text of the value with significant ``digits`` (no trailing
    zero) and decimal exponent ``e10``, laid out with string operations."""
    sign = "-" if negative else ""
    if e10 < -4 or e10 >= 17:
        point = "." + digits[1:] if len(digits) > 1 else ""
        return f"{sign}{digits[0]}{point}e{e10:+03d}"
    if e10 < 0:
        return f"{sign}0.{'0' * (-1 - e10)}{digits}"
    whole, fraction = digits[: e10 + 1].ljust(e10 + 1, "0"), digits[e10 + 1 :]
    return sign + whole + ("." + fraction if fraction else "")


class TestRender:
    def test_every_mask_row(self, monkeypatch):
        # the string-built reference agrees with format() on the edge values
        for v in edge_floats():
            _, digits, exponent = Decimal(format(v, ".17g")).normalize().as_tuple()
            text = "".join(map(str, digits))
            negative = math.copysign(1.0, v) < 0
            assert g17_text(negative, text, len(digits) - 1 + exponent) == format(v, ".17g")
        # the digits and decimal exponent come in through _shortest_digits,
        # so every (layout, digits kept, sign) can be rendered, including
        # shapes no double prints as; a point among the last 16 digits (e10
        # 1-15, digits past it) sends the value, here the stand-in +-1, to
        # format()
        exponents = [-1, -2, -3, -4, *range(17), 17, 18, -5, 308, -324]
        cases = [
            (negative, "12345678912345678"[:kept], e10)
            for e10 in exponents for kept in range(1, 18) for negative in (False, True)
        ]
        digits = np.array([int(text.ljust(17, "0")) for _, text, _ in cases])
        e10 = np.array([e for _, _, e in cases])

        def fixed(ax):
            return digits, e10, np.zeros(len(cases), bool)

        monkeypatch.setattr(_render, "_shortest_digits", fixed)
        values = [-1.0 if negative else 1.0 for negative, _, _ in cases]
        assert render_floats(values) == [
            format(v, ".17g") if 1 <= e <= 15 and len(text) > e + 1 else g17_text(*case)
            for v, case in zip(values, cases) for _, text, e in [case]
        ]

    def test_words_do_not_depend_on_byte_order(self, monkeypatch):
        # a big-endian host reads each table word as the byte-swapped value;
        # words that are only gathered, ANDed and ORed then come out
        # byte-swapped, so they hold the same bytes (format()'s values aside)
        x = np.array([v for v in edge_floats() if format(abs(v), ".17g").find(".") in (-1, 1)])
        x = x[(x == 0.0) | ~_render._shortest_digits(np.where(x == 0.0, 1.0, np.abs(x)))[2]]
        ints = np.arange(-9999, 10000, 37)
        native, swapped = np.empty((2, x.size, 4), np.uint64)
        _render.float_words(x, native)
        native_ints = _render.int_words(ints)
        tables = {
            name: table.byteswap() if getattr(table, "dtype", None) == np.uint64 else table
            for name, table in _render._tables().items()
        }
        monkeypatch.setattr(_render, "_tables", lambda: tables)
        _render.float_words(x, swapped)
        assert swapped.byteswap().tobytes() == native.tobytes()
        assert _render.int_words(ints).byteswap().tobytes() == native_ints.tobytes()

    @pytest.mark.parametrize("piece", ["", ",", ";\n|", "1234", "<tail>"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_pieces_fold_after_every_column(self, piece, forced, monkeypatch):
        # pieces of 0, 1 and 3 bytes fold into the value before them, 4 and 6
        # take words of their own; "e-308" fills the fourth word's first five
        # bytes, format() prints 1234567.8912345678 and 12.5, and with the
        # tie margin forced every float goes through format()
        if forced:
            monkeypatch.setattr(_render, "_TIE_MARGIN", 1.0)
        floats = [1234567.8912345678, -1.2345678912345678e-308, 0.0, -0.0, 12.5, 1e300]
        ints = [-9999, 0, 7, 9999, -1, 42]
        pieces = ["[", piece, piece, piece, piece + "]\n"]
        text = _render.render_rows(pieces, [np.array(ints), np.array(floats),
                                            np.array(ints[::-1]), np.array(floats[::-1])])
        assert text == "".join(
            f"[{i}{piece}{format(f, '.17g')}{piece}{j}{piece}{format(g, '.17g')}{piece}]\n"
            for i, f, j, g in zip(ints, floats, ints[::-1], floats[::-1])
        )
        alone = _render.render_rows(["", piece], [np.array(floats)])
        assert alone == "".join(format(f, ".17g") + piece for f in floats)

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_floats_match_format(self, values):
        assert render_floats(values) == [format(v, ".17g") for v in values]

    @given(st.lists(st.integers(-1501, 1501), min_size=1, max_size=40))
    def test_ints_match_str(self, values):
        text = _render.render_rows(("", "\n"), [np.array(values, dtype=np.int64)])
        assert text.splitlines() == [str(v) for v in values]

    def test_edge_floats(self):
        values = edge_floats()
        ties = [v for v in values if len(Decimal(v).as_tuple().digits) == 18
                and Decimal(v).as_tuple().digits[-1] == 5]
        assert len(ties) >= 12
        rounded_up = [v for v in values if v > 0.0 and format(v, ".17g").startswith("1e")
                      and Decimal(v) < Decimal(format(v, ".17g"))]
        assert len(rounded_up) >= 10
        assert render_floats(values) == [format(v, ".17g") for v in values]

    @pytest.mark.parametrize("packet", [(12.0, 7.0, None), (29.0, 28.9997, 33)])
    def test_tables_need_no_fallback(self, packet):
        # format() is for ties and estimates of e10 off by one, not for table values
        table = expansion.build_table(PacketParams(*packet[:2]), packet[2])
        values = np.abs(np.concatenate([table.c, table.c_squared]))
        _, _, fallback = _render._shortest_digits(values[values > 0.0])
        assert not fallback.any()

    def test_forced_fallback_keeps_the_bytes(self, capsys, monkeypatch):
        values = edge_floats()
        monkeypatch.setattr(_render, "_TIE_MARGIN", 1.0)
        positive = np.abs(np.array(values))
        assert _render._shortest_digits(positive[positive > 0.0])[2].all()
        assert render_floats(values) == [format(v, ".17g") for v in values]
        for fmt in ("csv", "json"):
            code, out, _ = run(["coeffs", *UNDERFLOW_ARGV, "--format", fmt], capsys)
            assert code == EXIT_OK
            table = expansion.build_table(PacketParams(29.0, 28.9997), 33)
            assert out == reference_coeffs(table, fmt)

    def test_rejects_ints_past_the_table(self):
        _render.render_rows(("", ""), [np.array([9999, -9999])])
        with pytest.raises(ValueError, match="strictly inside"):
            _render.render_rows(("", ""), [np.array([10000])])


class TestObservables:
    def test_circular_report(self, capsys):
        code, out, _ = run(["observables", "--xi0", "2", "--eta0", "2"], capsys)
        assert code == EXIT_OK
        values = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(values["mean_m"]) == pytest.approx(4.0, abs=1e-9)
        assert float(values["mean_lz"]) == pytest.approx(4.0, abs=1e-9)
        assert float(values["mean_energy"]) == pytest.approx(5.0, abs=1e-9)
        assert float(values["lz_abs_diff"]) < 1e-9
        assert float(values["energy_abs_diff"]) < 1e-9
        assert values["status"] == "pass"

    def test_point_packet_energy_exact(self, capsys):
        code, out, _ = run(["observables", "--xi0", "0", "--eta0", "0"], capsys)
        assert code == EXIT_OK
        values = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert values["mean_energy"] == "1"

    def test_elliptic_json(self, capsys):
        code, out, _ = run(
            ["observables", "--xi0", "1.5", "--eta0", "0.5", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mean_lz"] == pytest.approx(0.75, abs=1e-9)
        assert doc["mean_energy"] == pytest.approx(2.25, abs=1e-9)
        assert doc["status"] == "pass"

    def test_passes_at_amplitude_49(self, capsys):
        # 1.1 M rows, whose mean energy is 1211: a relative roundoff of
        # 1e-12 in each c^2 would put energy_abs_diff past its 1e-9 tolerance
        code, out, _ = run(
            ["observables", "--xi0", "49.2", "--eta0", "0", "--format", "json"], capsys
        )
        doc = json.loads(out)
        assert (code, doc["status"]) == (EXIT_OK, "pass")
        assert doc["energy_abs_diff"] < 1e-10

    def test_tail_mass_is_not_clamped_at_amplitude_47(self, capsys, monkeypatch):
        # the tail mass clamps to 0 if roundoff lifts sum c^2 above 1
        tables = []
        true_build = expansion.build_table

        def recording(params, n_max=None):
            tables.append(true_build(params, n_max))
            return tables[-1]

        monkeypatch.setattr(expansion, "build_table", recording)
        code, out, _ = run(
            ["observables", "--xi0", "47", "--eta0", "0", "--format", "json"], capsys
        )
        doc = json.loads(out)
        (table,) = tables
        assert (code, doc["status"]) == (EXIT_OK, "pass")
        assert doc["tail_mass"] > 0.0
        assert doc["tail_mass"] == 1.0 - table.sum_c_squared

    def test_physical_units_path(self, capsys):
        code, out, _ = run(
            ["observables", "--mass", "4", "--omega", "1", "--hbar", "1",
             "--x0", "1", "--y0", "0", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["xi0"] == 2.0
        assert doc["eta0"] == 0.0


class TestEvolve:
    def test_row_contract(self, capsys):
        code, out, _ = run(
            ["evolve", "--xi0", "1", "--eta0", "0.5"] + FAST, capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "centroid_xi", "centroid_eta", "classical_xi", "classical_eta",
            "var_xi", "var_eta", "norm", "spectral_max_err",
        ]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 8
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["centroid_xi"]) == pytest.approx(1.0, abs=1e-6)
        assert float(first["var_xi"]) == pytest.approx(0.5, abs=1e-6)
        for row in rows:
            assert abs(float(row["centroid_xi"]) - float(row["classical_xi"])) < 1e-6
            assert abs(float(row["centroid_eta"]) - float(row["classical_eta"])) < 1e-6
            assert float(row["spectral_max_err"]) < 1e-8

    def test_omega_conversion(self, capsys):
        # times are reported in units of 1/omega, so the trace is omega-invariant
        code, out, _ = run(
            ["evolve", "--mass", "1", "--omega", "3", "--hbar", "1",
             "--x0", "1", "--y0", "0.5", "--tmax", str(math.pi), "--tsteps", "2",
             "--grid-points", "65"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        half = rows[1]
        # alpha = sqrt(M omega / hbar) = sqrt(3) scales the amplitudes
        assert float(half["t"]) == pytest.approx(math.pi / 2, rel=1e-15)
        assert float(half["centroid_xi"]) == pytest.approx(0.0, abs=1e-6)
        assert float(half["centroid_eta"]) == pytest.approx(
            math.sqrt(3.0) * 0.5, abs=1e-6
        )

    @pytest.mark.parametrize("steps", ["2", "4"])
    def test_huge_tmax_takes_the_fft_sweep(self, steps, capsys):
        """--tmax 1e300 is about 1.6e299 whole periods: the sweep's bins
        take the turns modulo the steps, and every number is finite."""
        code, out, err = run(
            ["evolve", "--xi0", "1.5", "--eta0", "0.5", "--tmax", "1e300", "--tsteps", steps,
             "--grid-points", "65", "--format", "json"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        rows = strict_json(out)["rows"]
        assert len(rows) == int(steps)
        assert all(math.isfinite(v) for row in rows for v in row.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:tail mass:UserWarning")
    def test_phase_of_an_overflowing_quotient(self, capsys):
        """(40, 0) cut at --nmax 0 keeps one mode, c ~ 1.9e-174. At some of
        the 64 times S at the reference's peak is so small that a quotient
        ref / S would overflow; the comparison takes no quotient, its phase
        being the conventions' constant e^{i s pi/4}. No numpy warning, and
        each residual is the closed-form frame's difference from at(t) at
        that phase."""
        argv = ["evolve", "--xi0", "40", "--eta0", "0", "--nmax", "0", "--tsteps", "64"]
        code, out, err = run([*argv, "--format", "json"], capsys)
        assert (code, err) == (EXIT_OK, "")
        rows = strict_json(out)["rows"]
        config = RunConfig(xi0=40.0, eta0=0.0, n_max=0)
        grid = _resolved_grid(config)
        evolver = dynamics.SpectralEvolver(expansion.build_table(config.params, config.n_max), grid)
        assert len(rows) == 64
        for row in rows:
            frame = dynamics.evolve_closed_form(config.params, grid, row["t"]).values
            phase = np.exp(0.25j * math.pi * config.params.chirality.sign)
            expect = float(np.max(np.abs(frame - phase * evolver.at(row["t"]).values)))
            assert math.isfinite(row["spectral_max_err"])
            assert abs(row["spectral_max_err"] - expect) <= 1e-12


CHECKS = [
    "laguerre-integral-identity", "coefficient-oracle", "coefficient-oracle-imag",
    "normalization", "poisson-marginal", "moment-identities", "orbit-nonspreading",
    "spectral-completeness",
]


class TestVerify:
    @pytest.mark.parametrize(
        "xi0,eta0", [("1e-300", "1"), ("1", "1e-300"), ("1e-12", "1"), ("1e-20", "2")]
    )
    def test_tiny_amplitudes_report_every_check(self, xi0, eta0, capsys):
        """One PASS or FAIL line per check and nothing on stderr, however
        small one amplitude is; an ellipse residual past the doubles fails
        its check as a non-finite residual."""
        code, out, err = run(["verify", "--xi0", xi0, "--eta0", eta0], capsys)
        lines = out.splitlines()
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL) and err == ""
        assert [line.split()[1] for line in lines] == CHECKS
        assert all(line.split()[0] in ("PASS", "FAIL") for line in lines)
        if xi0 == "1e-300":
            assert lines[CHECKS.index("orbit-nonspreading")].startswith(
                "FAIL orbit-nonspreading residual=nan "
            )

    def test_fails_a_reference_off_by_a_time_phase(self, monkeypatch, capsys):
        """A closed form off by the global phase e^{i w t}, which a
        synthesis dropping the zero-point phase would show, fails
        spectral-completeness alone: the densities, and so every other
        check, are unchanged."""
        closed_form_factors = dynamics.closed_form_factors

        def shifted(params, grid, times):
            times = list(times)
            x, y = closed_form_factors(params, grid, times)
            return x * np.exp(1j * params.omega * np.asarray(times))[:, None], y

        monkeypatch.setattr(dynamics, "closed_form_factors", shifted)
        code, out, err = run(["verify", "--xi0", "1.5", "--eta0", "0.5"], capsys)
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert (code, failed, err) == (EXIT_VERIFY_FAIL, ["spectral-completeness"], "")

    def test_leaves_numpy_ma_unloaded(self):
        """verify imports nothing numpy loads lazily: numpy 2's np.unique
        without optional outputs imports numpy.ma."""
        script = (
            "import sys, contextlib, io; import numpy; loaded = 'numpy.ma' in sys.modules; "
            "from coherent2d import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): "
            "code = cli.main(['verify', '--xi0', '1.5', '--eta0', '0.5', '--grid-points', '65'])\n"
            "print(loaded, code, 'numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        loaded, code, after = out.split()
        if loaded == "True":
            pytest.skip("import numpy alone loads numpy.ma")
        assert (code, after) == (str(EXIT_OK), "False")

    def test_passes_on_pristine_build(self, capsys):
        code, out, _ = run(
            ["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines
        assert all(line.startswith("PASS ") for line in lines)
        assert any("coefficient-oracle" in line for line in lines)
        assert any("spectral-completeness" in line for line in lines)

    def test_builds_the_moment_report_once(self, capsys, monkeypatch):
        reports = []

        def counting_report(table):
            reports.append(table)
            return true_report(table)

        true_report = observables.compute_report
        monkeypatch.setattr(observables, "compute_report", counting_report)
        code, _, _ = run(["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys)
        assert code == EXIT_OK and len(reports) == 1

    def test_refuses_a_tail_too_heavy_for_the_identities(self, capsys):
        # tail mass 5.2e-8: enough for the report, too much for the identities
        code, out, err = run(
            ["verify", "--xi0", "2", "--eta0", "2", "--nmax", "18"] + FAST, capsys
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: tail mass 5.159e-08 too large for identity checks\n"

    def test_point_packet_trivially_passes(self, capsys):
        code, out, _ = run(["verify", "--xi0", "0", "--eta0", "0"] + FAST, capsys)
        assert code == EXIT_OK
        assert all(line.startswith("PASS ") for line in out.strip().splitlines())

    def test_detects_injected_sign_flip(self, capsys, monkeypatch):
        true_closed_form = expansion._closed_form

        def corrupted(params, m, n_r):
            # the sign of every odd-n_r mode flipped
            return true_closed_form(params, m, n_r) * (1 - 2 * (n_r % 2))

        monkeypatch.setattr(expansion, "_closed_form", corrupted)
        code, out, _ = run(
            ["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys
        )
        assert code == EXIT_VERIFY_FAIL
        assert any(
            line.startswith("FAIL coefficient-oracle") for line in out.strip().splitlines()
        )

    def test_detects_a_wrong_ladder_ratio(self, capsys, monkeypatch):
        # terms r^n / n!, normalized: ratio |r| / n where |r| / sqrt(n) belongs
        def wrong_ratio(r, top):
            n = np.arange(top + 1)
            if r == 0.0:
                return (n == 0).astype(float)
            log_terms = n * math.log(abs(r)) - np.array([math.lgamma(k + 1.0) for k in n])
            ladder = np.exp(log_terms - log_terms.max()) * np.sign(r) ** n
            return ladder / math.sqrt(math.fsum((ladder * ladder).tolist()))

        monkeypatch.setattr(expansion, "_ladder", wrong_ratio)
        code, out, _ = run(["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys)
        assert code == EXIT_VERIFY_FAIL
        failed = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}
        # each ladder is normalized by construction, so the normalization
        # check sees only truncation and passes; the oracle, the Poisson
        # marginal, the moments and the spectral route catch the ratio
        assert failed == {
            "coefficient-oracle", "poisson-marginal", "moment-identities",
            "spectral-completeness",
        }

    def test_normalization_is_two_sided(self, capsys, monkeypatch):
        true_build = expansion.build_table

        def inflated(params, n_max=None):
            table = true_build(params, n_max)
            scale = math.sqrt((1.0 + 1e-9) / math.fsum((table.c * table.c).tolist()))
            return expansion.CoefficientTable(
                table.params, table.n_max, table.m, table.n_r, table.c * scale,
                table.tail_mass,
            )

        monkeypatch.setattr(expansion, "build_table", inflated)
        code, out, _ = run(["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys)
        assert code == EXIT_VERIFY_FAIL
        (line,) = [line for line in out.splitlines() if " normalization " in line]
        assert line.startswith("FAIL normalization residual=")
        residual = float(line.split()[2].removeprefix("residual="))
        assert residual == pytest.approx(1e-9, rel=1e-6)


def scalar_oracle_residuals(config, table):
    """The coefficient-oracle, coefficient-oracle-imag and circular-support
    residuals one mode at a time, in Python floats and complexes: ``abs``
    of each difference, and the circular support's modes up to level 8
    taken from the front of the (N, m) order."""
    params = config.params
    modes = modes_up_to(min(cli._ORACLE_LEVELS, table.n_max))
    orders = expansion.oracle_orders(params, cli._ORACLE_LEVELS, cli._ORACLE_LEVELS)
    pairs = [(mode.m, mode.n_r) for mode in modes]
    quads = expansion.coeff_quadrature_batch(params, pairs, *orders).tolist()
    closed = [expansion.coeff_elliptic(params, mode) for mode in modes]
    residuals = {
        "coefficient-oracle": _worst([abs(q - c) for q, c in zip(quads, closed)]),
        "coefficient-oracle-imag": _worst([abs(q.imag) for q in quads]),
    }
    if params.xi0 == params.eta0:
        forbidden = []
        for mode, quad in zip(modes, quads):
            if mode.principal > cli._SUPPORT_LEVELS:
                break
            wrong_m = mode.m < 0 if params.chirality is Chirality.RETARDED else mode.m > 0
            if mode.n_r > 0 or wrong_m:
                forbidden.append(abs(quad))
        residuals["circular-support"] = _worst(forbidden)
    return residuals


class TestOracleReductions:
    """The oracle checks reduce arrays over the mode columns."""

    @pytest.mark.parametrize(
        "xi0,eta0,chirality,n_max",
        [
            (1.5, 0.5, "retarded", None),
            (2.0, 2.0, "retarded", None),
            (2.0, 2.0, "advanced", None),
            (2.5, 2.5, "advanced", None),
            (0.0, 0.0, "retarded", None),
            (0.0, 1.3, "advanced", None),
            (0.3, 0.3, "retarded", 6),
            (0.6, 0.6, "advanced", 9),
            (2.2, 0.9, "advanced", 30),
        ],
    )
    def test_residuals_are_the_scalar_loops(self, xi0, eta0, chirality, n_max):
        """Each residual is bit for bit the per-mode loop's, circular and
        point packets and cutoffs below the checked levels included."""
        config = RunConfig(
            xi0=xi0, eta0=eta0, chirality=Chirality(chirality), n_max=n_max,
            grid_points=65, t_steps=8,
        )
        table = expansion.build_table(config.params, n_max)
        checks = cli.run_verification(config, table, _resolved_grid(config))
        got = {c.name: c.residual for c in checks if c.name in ORACLE_CHECKS}
        want = scalar_oracle_residuals(config, table)
        assert set(got) == set(want) == set(ORACLE_CHECKS[: 2 + (xi0 == eta0)])
        for name, residual in want.items():
            assert np.float64(got[name]).tobytes() == np.float64(residual).tobytes(), name

    @pytest.mark.parametrize("chirality", ["retarded", "advanced"])
    def test_circular_support_on_either_chirality(self, chirality, capsys, monkeypatch):
        """A circular packet passes on its own ladder, and fails once a mode
        of the other sign of m carries weight."""
        argv = ["verify", "--xi0", "2", "--eta0", "2", "--chirality", chirality, *FAST]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert any(line.startswith("PASS circular-support ") for line in out.splitlines())
        true_quadrature = expansion.coeff_quadrature_batch
        wrong = (-3, 0) if chirality == "retarded" else (3, 0)

        def leaking(params, pairs, radial, angular):
            quads = true_quadrature(params, pairs, radial, angular)
            quads[pairs.index(wrong)] += 1e-9
            return quads

        monkeypatch.setattr(expansion, "coeff_quadrature_batch", leaking)
        code, out, _ = run(argv, capsys)
        assert code == EXIT_VERIFY_FAIL
        failed = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}
        assert failed == {"coefficient-oracle", "circular-support"}

    def test_nan_in_the_quadrature_fails_the_oracle(self, capsys, monkeypatch):
        true_quadrature = expansion.coeff_quadrature_batch

        def poisoned(params, pairs, radial, angular):
            quads = true_quadrature(params, pairs, radial, angular)
            quads[7] = complex(math.nan, 0.0)
            return quads

        monkeypatch.setattr(expansion, "coeff_quadrature_batch", poisoned)
        code, out, _ = run(["verify", "--xi0", "1.5", "--eta0", "0.5", *FAST], capsys)
        assert code == EXIT_VERIFY_FAIL
        lines = out.splitlines()
        assert "FAIL coefficient-oracle residual=nan tol=1e-10" in lines
        assert any(line.startswith("PASS coefficient-oracle-imag ") for line in lines)


ORACLE_CHECKS = ["coefficient-oracle", "coefficient-oracle-imag", "circular-support"]


class TestVerifyJson:
    def test_matches_text_verdicts(self, capsys):
        argv = ["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST
        text_code, text, _ = run(argv, capsys)
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == text_code == EXIT_OK
        doc = strict_json(out)
        assert doc["params"]["xi0"] == 1.5
        assert doc["params"]["n_max"] >= 0
        assert doc["passed"] is True
        lines = [line.split() for line in text.strip().splitlines()]
        assert [c["name"] for c in doc["checks"]] == [line[1] for line in lines]
        for check, line in zip(doc["checks"], lines):
            assert set(check) == {"name", "passed", "residual", "tolerance"}
            assert check["passed"] == (line[0] == "PASS")
            assert check["residual"] == float(line[2].removeprefix("residual="))

    def test_failure_keeps_exit_code(self, capsys, monkeypatch):
        true_closed_form = expansion._closed_form
        monkeypatch.setattr(
            expansion, "_closed_form", lambda params, m, n_r: -true_closed_form(params, m, n_r)
        )
        code, out, _ = run(
            ["verify", "--xi0", "1.5", "--eta0", "0.5", "--format", "json"] + FAST,
            capsys,
        )
        assert code == EXIT_VERIFY_FAIL
        doc = strict_json(out)
        assert doc["passed"] is False
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert "coefficient-oracle" in failed


class TestNonFinite:
    def test_worst_propagates_non_finite(self):
        assert math.isnan(_worst([1e-3, math.nan, 2e-3]))
        assert math.isnan(_worst([math.inf]))
        assert math.isnan(_worst(iter([0.0, -math.inf])))
        assert _worst([3e-12, 1e-11, 2e-12]) == 1e-11
        assert _worst([-4e-16]) == -4e-16
        assert _worst([]) == 0.0

    def test_nan_residual_fails(self):
        assert not _check("x", math.nan, 1e-8).passed
        assert _check("x", 1e-9, 1e-8).passed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_emitters_refuse_non_finite(self, value):
        with pytest.raises(ValueError):
            _g17(value)
        with pytest.raises(ValueError):
            _json_dumps(value)
        with pytest.raises(ValueError):
            _json_dumps({"rows": [{"t": 0.0, "x": value}]})
        assert _json_dumps({"x": None}) == '{\n  "x": null\n}'

    @pytest.fixture
    def nan_fields(self, monkeypatch):
        """The Hermite tables carry one NaN at the quadrant's last point of
        each axis, in every order, so every synthesized time is NaN at the
        grid's edges, whichever route synthesizes it."""
        true_init = dynamics.SpectralEvolver.__init__

        def poisoned(self, table, grid):
            true_init(self, table, grid)
            for name in ("_hx", "_hy"):
                hermite = getattr(self, name).copy()
                hermite[:, -1] = math.nan
                setattr(self, name, hermite)

        monkeypatch.setattr(dynamics.SpectralEvolver, "__init__", poisoned)

    @pytest.mark.usefixtures("nan_fields")
    def test_evolve_refuses_nan(self, capsys):
        argv = ["evolve", "--xi0", "1.5", "--eta0", "0.5", "--format", "json", *FAST]
        code, out, err = run(argv, capsys)
        assert code == EXIT_VERIFY_FAIL
        assert out == ""
        assert err.startswith("error: spectral_max_err is nan at t=0")

    @pytest.mark.usefixtures("nan_fields")
    def test_verify_fails_on_nan(self, capsys):
        argv = ["verify", "--xi0", "1.5", "--eta0", "0.5", *FAST]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL spectral-completeness residual=nan tol=1e-08" in out.splitlines()
        code, out, _ = run([*argv, "--format", "json"], capsys)
        assert code == EXIT_VERIFY_FAIL
        (check,) = [
            c for c in strict_json(out)["checks"] if c["name"] == "spectral-completeness"
        ]
        assert check == {
            "name": "spectral-completeness",
            "passed": False,
            "residual": None,
            "tolerance": 1e-8,
        }


class TestErrorPaths:
    def test_usage_error_exit(self, capsys):
        code, _, err = run(["coeffs", "--xi0", "1", "--grid-points", "10"], capsys)
        assert code == EXIT_USAGE
        assert "grid points" in err

    def test_mutually_exclusive_inputs(self, capsys):
        code, _, err = run(["coeffs", "--xi0", "1", "--mass", "1", "--omega", "1",
                            "--hbar", "1"], capsys)
        assert code == EXIT_USAGE
        assert "mutually exclusive" in err

    def test_incomplete_physical_units(self, capsys):
        code, _, err = run(["coeffs", "--mass", "1", "--x0", "1"], capsys)
        assert code == EXIT_USAGE
        assert "--omega" in err

    def test_unknown_flag(self, capsys):
        assert run(["coeffs", "--bogus"], capsys)[0] == EXIT_USAGE

    def test_missing_command(self, capsys):
        assert run([], capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["coeffs", "--format", "xml"], ["coeffs", "--xi0", "abc"], ["--help"]],
    )
    def test_kept_parser_answers_as_a_fresh_one(self, argv, capsys):
        # main keeps one parser per process; errors and help read the same
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        for _ in range(2):
            code, out, err = run(argv, capsys)
            assert (code, out, err) == (fresh.value.code, expected.out, expected.err)
        assert run(["coeffs", "--xi0", "0"], capsys)[0] == EXIT_OK
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], ["verify", "--help"], ["coeffs", "-h"], ["evolve", "--help"],
            ["observables", "--help"], ["verify", "--xi0"], ["evolve", "--tsteps", "x"],
            ["verify", "--xi0", "1", "--mass", "2", "--format", "json", "--nmax", "3"],
            ["evolve", "--xi0", "1.5", "--grid-points", "65", "--tmax", "3", "--out", "o"],
        ],
    )
    def test_shared_flags_read_as_each_subcommand_s_own(self, argv, capsys):
        """The subcommands share one set of flag actions; help, errors and
        parsed values are those of a parser whose every subcommand adds the
        flags itself."""
        built = cli.build_parser()
        (subcommands,) = built._subparsers._group_actions
        reference = argparse.ArgumentParser(prog=built.prog, description=built.description)
        sub = reference.add_subparsers(dest="command", required=True)
        for choice in subcommands._choices_actions:
            cli._add_common_flags(sub.add_parser(choice.dest, help=choice.help))
        outcomes = []
        for parser in (built, reference):
            try:
                outcomes.append(vars(parser.parse_args(argv)))
            except SystemExit as exc:
                outcomes.append(exc.code)
            outcomes.append(capsys.readouterr())
        assert outcomes[:2] == outcomes[2:]

    def test_parser_is_built_on_first_use(self):
        script = (
            "import coherent2d.cli as cli; before = cli._parser.cache_info().currsize; "
            "cli.main(['coeffs', '--xi0', '0']); "
            "print(before, cli._parser.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "0 1"

    def test_io_failure(self, capsys):
        code, _, err = run(
            ["coeffs", "--xi0", "1", "--out", "/nonexistent/dir/x.csv"], capsys
        )
        assert code == EXIT_IO
        assert "error" in err

    def test_unresolved_grid(self, capsys):
        code, out, err = run(
            ["verify", "--xi0", "1.5", "--eta0", "0.5", "--grid-half-width", "60",
             "--grid-points", "33"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: grid spacing 3.75 exceeds 0.5")

    @pytest.mark.parametrize("steps", ["1", "2"])
    def test_verify_needs_three_times(self, steps, capsys):
        argv = ["--xi0", "1.5", "--eta0", "0.5", "--tsteps", steps, "--grid-points", "65"]
        code, out, err = run(["verify", *argv], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "at least 3 time steps" in err
        # evolve still traces one or two times
        code, out, _ = run(["evolve", *argv], capsys)
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + int(steps)

    def test_negative_amplitude(self, capsys):
        code, _, _ = run(["coeffs", "--xi0", "-1"], capsys)
        assert code == EXIT_USAGE

    def test_oversized_cutoff(self, capsys):
        code, out, err = run(["coeffs", "--xi0", "1", "--nmax", "20000"], capsys)
        assert code == EXIT_USAGE
        # the error names both the cutoff asked for and the size guard
        assert "20000" in err and str(expansion._MAX_TABLE_CUTOFF) in err
        assert out == ""

    @pytest.mark.parametrize("amplitude", ["30000", "1e6", "1e200"])
    def test_oversized_ladder(self, amplitude, capsys):
        # a small cutoff does not let the amplitude size the work
        argv = ["coeffs", "--xi0", amplitude, "--eta0", "0", "--nmax", "2"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "size guard" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--xi0", "nan", "--format", "json"],
            ["observables", "--xi0", "inf"],
            ["evolve", "--xi0", "1", "--tmax", "inf"],
            ["evolve", "--xi0", "1", "--grid-half-width", "nan"],
        ],
    )
    def test_rejects_non_finite_input(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert out == ""

    def test_no_silent_truncation_past_the_old_cap(self, capsys):
        # the cutoff search used to stop at n = 600 and exit 0 with most of
        # the packet's weight left out
        for xi0, eta0 in [("22.4", "22.4"), ("40", "0")]:
            code, out, _ = run(["coeffs", "--xi0", xi0, "--eta0", eta0], capsys)
            assert code == EXIT_OK
            assert float(out.strip().splitlines()[-1].split(",")[-1]) < 1e-12
