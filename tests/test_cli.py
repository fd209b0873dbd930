import json
import math

import pytest

from coherent2d import expansion
from coherent2d.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    RunConfig,
    main,
)

FAST = ["--grid-points", "65", "--tsteps", "8"]


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

    def test_byte_stable_across_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["coeffs", "--xi0", "1", "--eta0", "1", "--out", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


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


class TestVerify:
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

    def test_point_packet_trivially_passes(self, capsys):
        code, out, _ = run(["verify", "--xi0", "0", "--eta0", "0"] + FAST, capsys)
        assert code == EXIT_OK
        assert all(line.startswith("PASS ") for line in out.strip().splitlines())

    def test_detects_injected_sign_flip(self, capsys, monkeypatch):
        true_coeff = expansion.coeff_elliptic

        def corrupted(params, mode):
            c = true_coeff(params, mode)
            return -c if mode.n_r % 2 else c

        monkeypatch.setattr(expansion, "coeff_elliptic", corrupted)
        code, out, _ = run(
            ["verify", "--xi0", "1.5", "--eta0", "0.5"] + FAST, capsys
        )
        assert code == EXIT_VERIFY_FAIL
        assert any(
            line.startswith("FAIL coefficient-oracle") for line in out.strip().splitlines()
        )


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

    def test_io_failure(self, capsys):
        code, _, err = run(
            ["coeffs", "--xi0", "1", "--out", "/nonexistent/dir/x.csv"], capsys
        )
        assert code == EXIT_IO
        assert "error" in err

    def test_negative_amplitude(self, capsys):
        code, _, _ = run(["coeffs", "--xi0", "-1"], capsys)
        assert code == EXIT_USAGE

    def test_oversized_cutoff(self, capsys):
        code, out, err = run(["coeffs", "--xi0", "1", "--nmax", "20000"], capsys)
        assert code == EXIT_USAGE
        # the error names both the cutoff asked for and the size guard
        assert "20000" in err and str(expansion._MAX_TABLE_CUTOFF) in err
        assert out == ""

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
