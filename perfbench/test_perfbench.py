"""Tests of the benchmark itself: generators, checks, tracer, layer coverage.

    python3 -m pytest perfbench -q

The coverage tests run each workload once, traced, for about a minute in
total.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import coherent2d  # noqa: E402
import coherent2d.cli as cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


# --- workloads -------------------------------------------------------------

def _stratum(value, name, size):
    lo, hi = workloads.RANGES[name]
    return min(size - 1, int(size * (float(value) - lo) / (hi - lo)))


@pytest.mark.parametrize("name", sorted(workloads.RANGES))
def test_decks_are_seeded_and_stratified(name):
    first = list(islice(workloads.decks(name, 3), 4))
    assert first == list(islice(workloads.decks(name, 3), 4))
    assert first != list(islice(workloads.decks(name, 4), 4))
    for deck in first:
        by_command = {}
        for argv in deck:
            packet = checks.flags(argv)
            by_command.setdefault((argv[0], packet.get("--format")), []).append(packet)
        for packets in by_command.values():
            size = len(packets)
            assert [_stratum(p["--xi0"], name, size) for p in packets] == list(range(size))
            circular = [p for p in packets if p["--xi0"] == p["--eta0"]]
            elliptic = [_stratum(p["--eta0"], name, size) for p in packets if p not in circular]
            assert len(circular) == size // 4
            assert len(set(elliptic)) == len(elliptic)


def test_cold_ops_spread_over_strata_and_commands():
    cold = workloads.cold_ops("ladder", 2)
    kinds = [(argv[0], checks.flags(argv).get("--format")) for argv in cold]
    assert kinds == [("coeffs", None), ("coeffs", "json"), ("observables", None)] * 3
    strata = [_stratum(checks.flags(a)["--xi0"], "ladder", 12) for a in cold]
    assert strata == [0, 2, 3, 4, 6, 7, 8, 10, 11]
    oracle = next(workloads.decks("oracle", 2))
    assert workloads.cold_ops("oracle", 2) == [oracle[1], oracle[4], oracle[7], oracle[10]]


def test_ladder_alternates_commands():
    deck = next(workloads.decks("ladder", 1))
    kinds = [(argv[0], checks.flags(argv).get("--format", "csv")) for argv in deck]
    assert kinds[:3] == [("coeffs", "csv"), ("coeffs", "json"), ("observables", "csv")]
    assert kinds == kinds[:3] * (len(deck) // 3)


# --- checks ------------------------------------------------------------------

def test_verify_check_counts_fail_lines():
    good = "PASS a residual=1e-12 tol=1e-10\nPASS b residual=0 tol=1e-9\n"
    assert checks.check(["verify"], 0, good) == (True, "", 0.01)
    bad = checks.check(["verify"], 1, good.replace("PASS b residual=0", "FAIL b residual=2e-9"))
    assert not bad.ok and "FAIL b" in bad.reason and bad.worst_ratio == pytest.approx(2.0)
    assert not checks.check(["verify"], 0, "").ok
    assert not checks.check(["verify"], 0, "PASS but garbled\n").ok


def test_live_oracle_failure_is_counted():
    """verify fails at (3.777, 3.777) at this commit, and the check says so.

    The quadrature oracle's fixed orders are too low for amplitudes above
    about 2.8, which is why the oracle workload stops at 2.5. If this test
    fails because verify passes here, the defect is fixed: widen
    workloads.RANGES["oracle"] in a benchmark change.
    """
    argv = ["verify", "--xi0", "3.777", "--eta0", "3.777"]
    verdict = checks.check(argv, *_cli(argv))
    assert not verdict.ok
    assert "coefficient-oracle" in verdict.reason
    assert verdict.worst_ratio > 1.0


def test_evolve_check():
    argv = ["evolve", "--xi0", "1.2", "--eta0", "0.7", "--chirality", "advanced",
            "--grid-points", "65", "--tsteps", "8", "--format", "json"]
    code, out = _cli(argv)
    assert checks.check(argv, code, out).ok
    doc = json.loads(out)
    doc["rows"][3]["centroid_eta"] += 1e-5
    assert not checks.check(argv, code, json.dumps(doc)).ok
    assert not checks.check(argv, code, out.replace('"var_xi": ', '"var_xi": NaN, "x": ', 1)).ok
    assert not checks.check(argv[:-4] + ["--tsteps", "9", "--format", "json"], code, out).ok


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeffs_check(fmt):
    argv = ["coeffs", "--xi0", "1.5", "--eta0", "0.5", "--format", fmt]
    code, out = _cli(argv)
    assert checks.check(argv, code, out).ok
    if fmt == "csv":
        lines = out.splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n"
        assert "order" in checks.check(argv, code, swapped).reason
        tail = lines[-1].rsplit(",", 1)
        off = "\n".join([*lines[:-1], tail[0] + ",1e-9"]) + "\n"
        assert "sum + tail" in checks.check(argv, code, off).reason
    else:
        doc = json.loads(out)
        doc["entries"][4]["N"] += 2
        assert "inconsistent" in checks.check(argv, code, json.dumps(doc)).reason
        assert not checks.check(argv, code, out.replace('"c": ', '"c": NaN, "x": ', 1)).ok


def test_observables_check():
    argv = ["observables", "--xi0", "2", "--eta0", "1"]
    code, out = _cli(argv)
    assert checks.check(argv, code, out).ok
    assert not checks.check(argv, 1, out.replace("status,pass", "status,fail")).ok


def test_nonzero_exit_fails_even_with_good_output():
    argv = ["observables", "--xi0", "2", "--eta0", "1"]
    _, out = _cli(argv)
    assert not checks.check(argv, 3, out).ok


# --- tracer ------------------------------------------------------------------

def test_tracer_wraps_every_alias_and_restores_them():
    original = coherent2d.specialfn.gauss_laguerre
    aliases = [m for m in (coherent2d, coherent2d.specialfn, coherent2d.expansion)
               if getattr(m, "gauss_laguerre", None) is original]
    assert len(aliases) == 3
    t = tracer.Tracer()
    t.op = 0
    t.install()
    try:
        assert t.missing == []
        wrapped = coherent2d.expansion.gauss_laguerre
        assert wrapped is not original
        assert all(m.gauss_laguerre is wrapped for m in aliases)
        params = coherent2d.PacketParams(xi0=1.0, eta0=0.5)
        t.call(tracer.ROOT, coherent2d.expansion.coeff_quadrature,
               params, coherent2d.ModeIndex(m=1, n_r=0), radial_order=16, angular_points=48)
        coherent2d.specialfn.verify_laguerre_integral(1, 0, 1)
    finally:
        t.uninstall()
    assert all(m.gauss_laguerre is original for m in aliases)
    assert "__init__" in vars(coherent2d.dynamics.SpectralEvolver)
    names = {span[1]: span for span in t.spans}
    root = names[tracer.ROOT]
    quad = names["expansion.coeff_quadrature"]
    assert quad[4] == root[0]
    rules = [s for s in t.spans if s[1] == "specialfn.gauss_laguerre"]
    assert [s[4] for s in rules] == [quad[0], names["specialfn.verify_laguerre_integral"][0]]
    profile = tracer.op_profiles(t.spans, t.counters, t.orders, [0])[0]
    assert profile["specialfn.gauss_laguerre.calls"] == 2
    assert profile["specialfn.gauss_laguerre.distinct_orders"] == 2
    assert profile["cli.total_s"] == pytest.approx(
        profile["cli.self_s"] + profile["expansion.coeff_quadrature.total_s"])


def test_tracer_reports_missing_layers(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (
        "specialfn.no_such_rule", "dynamics.SpectralEvolver.no_such_method"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["specialfn.no_such_rule", "dynamics.SpectralEvolver.no_such_method"]


def test_self_time_subtracts_children():
    spans = [  # (id, name, start, end, parent, op)
        (1, "b", 1.0, 3.0, 0, 5),
        (2, "c", 3.5, 4.0, 0, 5),
        (3, "b", 1.5, 2.0, 1, 5),
        (0, "a", 0.0, 10.0, -1, 5),
    ]
    profile = tracer.op_profiles(spans, {}, {}, [5])[5]
    assert profile["a.self_s"] == pytest.approx(7.5)
    assert profile["b.self_s"] == pytest.approx(2.0)
    assert profile["b.calls"] == 2
    assert profile["b.total_s"] == pytest.approx(2.5)


# --- the benchmark end to end ------------------------------------------------

@pytest.fixture(scope="module")
def traced():
    results = {}
    for name in sorted(workloads.RANGES):
        done = _run_bench(name, 1)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        detail = json.loads((ROOT / ".perfbench" / f"{name}-seed7-trace1.json").read_text())
        results[name] = ({k: m["value"] for k, m in result["metrics"].items()}, result, detail)
    return results


def test_traced_runs_are_correct_and_complete(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metrics, result, detail in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert set(metrics) == {m["name"] for m in spec["per_layer"]}
        assert all(v is not None and math.isfinite(v) for v in metrics.values())
        assert detail["notes"]["missing_layers"] == []
        assert detail["notes"]["hook_errors"] == []
        assert {"python", "numpy", "nproc", "blas_threads"} <= set(detail["env"])
        assert all(op["argv"] for op in detail["ops"])


def test_layer_coverage(traced):
    calls = {name: m["specialfn.gauss_laguerre.calls"] for name, (m, _, _) in traced.items()}
    assert calls["oracle"] > 0
    assert calls["orbit"] == 0 and calls["ladder"] == 0
    assert traced["orbit"][0]["dynamics.SpectralEvolver.at.calls"] > 0
    assert traced["ladder"][0]["expansion.build_table.entries"] >= 1e4


def test_self_times_account_for_op_time(traced):
    for metrics, _, detail in traced.values():
        notes = detail["notes"]
        gap = abs(notes["self_s_sum"] - notes["traced_op_mean_s"])
        assert gap <= max(abs(metrics["trace.overhead_frac"]), 0.01) * notes["traced_op_mean_s"]


def test_predicted_dominant_layers(traced):
    oracle, orbit, ladder = (traced[n][0] for n in ("oracle", "orbit", "ladder"))
    op = {n: traced[n][2]["notes"]["traced_op_mean_s"] for n in traced}
    quadrature = (oracle["specialfn.gauss_laguerre.self_s"]
                  + oracle["expansion.coeff_quadrature.self_s"])
    assert quadrature > 0.5 * op["oracle"]
    evolution = sum(v for k, v in orbit.items()
                    if k.startswith(("dynamics.", "states.")) and k.endswith(("self_s", "build_s")))
    assert evolution > 0.8 * op["orbit"]
    tables = (ladder["expansion.build_table.self_s"] + ladder["cli.self_s"]
              + ladder["observables.compute_report.self_s"])
    assert tables > 0.8 * op["ladder"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run_bench("ladder", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
