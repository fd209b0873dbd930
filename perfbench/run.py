"""coherent2d benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {oracle,orbit,ladder} --seed N \
        --seconds S --trace {0,1}

The package is imported from the ``src`` beside this directory, whatever
the working directory. Children get at most ``nproc`` BLAS threads.

``--trace 0`` measures what a user sees:
  setup_s        median wall time of a fresh ``python -c "import coherent2d.cli"``
                 over SETUP_RUNS runs spread between the cold ops (the
                 benchmark does no other warm-up)
  cold_op_p50_s  median wall time of ``python -m coherent2d <argv>``, each in a
                 fresh interpreter, over workloads.cold_ops
  ops_per_s, op_p50_s, op_tail_s, peak_rss_mb
                 a worker process runs ``coherent2d.cli.main(argv)`` in a closed
                 loop (one client) over the whole decks that ``--seconds``
                 buys at nominal speed (workloads.deck_count), so every commit
                 runs the same ops; ops_per_s is ops per second spent inside
                 main(), op_tail_s the highest percentile with at least ten
                 samples beyond it, and peak_rss_mb the worker's own ru_maxrss.
``--trace 1`` runs the worker over half as many decks (at least one), each
argv once untraced and once with every listed layer wrapped (tracer.py),
and reports per-layer metrics, each the mean per traced op.

Every op's output is checked (checks.py). A failed op keeps its time and
counts in ``failed``; ``correct`` is true only when no op failed. The full
record (argv lists, per-op times and verdicts, environment, spans) goes to
``.perfbench/`` in the checkout; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402

SETUP_RUNS = 8
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
RUN_LIMIT_S = 170.0  # every run must end within 180 s
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Counters that belong to a layer without carrying its name.
_COUNTER_LAYER = {"dynamics.grid_points_synthesized": "dynamics.SpectralEvolver.at"}


class BenchError(RuntimeError):
    pass


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        current = env.get(var, "")
        threads = int(current) if current.isdigit() and 0 < int(current) < nproc else nproc
        env[var] = str(threads)
    return env


def _timed(cmd, env, deadline, **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - start),
                              **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from None
    return perf_counter() - start, done


def measure_cold(workload, seed, env, scratch: Path, deadline) -> tuple[list, list]:
    """Fresh-interpreter timings: SETUP_RUNS imports spread between the cold ops."""
    setup, cold = [], []
    out_path = scratch / "cold.out"
    argvs = workloads.cold_ops(workload, seed)
    for k, argv in enumerate(argvs):
        while len(setup) < SETUP_RUNS * (k + 1) // len(argvs):
            seconds, done = _timed([sys.executable, "-c", "import coherent2d.cli"], env,
                                   deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if done.returncode != 0:
                raise BenchError(f"import coherent2d.cli failed: {done.stderr.decode()[-500:]}")
            setup.append(seconds)
        with open(out_path, "wb") as out:
            seconds, done = _timed([sys.executable, "-m", "coherent2d", *argv], env, deadline,
                                   stdout=out, stderr=subprocess.DEVNULL)
        verdict = checks.check(argv, done.returncode, out_path.read_text(encoding="utf-8"))
        cold.append({"argv": argv, "seconds": seconds, "exit": done.returncode,
                     "ok": verdict.ok, "reason": verdict.reason, "ratio": verdict.worst_ratio})
    return setup, cold


def run_worker(args, env, scratch: Path, deadline) -> dict:
    record_path = scratch / "worker.json"
    record_path.unlink(missing_ok=True)
    if args.trace:  # every argv runs twice, traced and untraced
        decks = workloads.deck_count(args.workload, args.seconds / 2)
    else:
        decks = workloads.deck_count(args.workload, args.seconds, TAIL_BEYOND + 1)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--decks", str(decks), "--trace", str(args.trace),
           "--scratch", str(scratch), "--record", str(record_path)]
    _, done = _timed(cmd, env, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.decode()[-2000:]}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if not Path(record["env"]["coherent2d"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported coherent2d from {record['env']['coherent2d']}, not src/")
    return record


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} ops are too few for a tail with {TAIL_BEYOND} samples beyond")
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(record: dict, setup: list[float], cold: list[dict]) -> tuple[dict, dict]:
    times = [op["seconds"] for op in record["ops"]]
    percentile, tail_value = tail(times)
    values = {
        "ops_per_s": len(times) / math.fsum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "cold_op_p50_s": statistics.median(op["seconds"] for op in cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["maxrss_kb"] / 1024.0,
    }
    notes = {"ops": len(times), "op_tail_percentile": percentile,
             "cold_ops": len(cold), "setup_runs": len(setup)}
    return values, notes


def _layer_of(metric: str) -> str | None:
    if metric in _COUNTER_LAYER:
        return _COUNTER_LAYER[metric]
    owners = [layer for layer in LAYERS if metric.startswith(layer + ".")]
    return max(owners, key=len) if owners else None


def per_layer(record: dict) -> tuple[dict, dict]:
    trace = record["trace"]
    profiles = list(trace["profiles"].values())
    n = len(profiles)

    def mean(key):
        return math.fsum(p.get(key, 0.0) for p in profiles) / n

    keys = {key for p in profiles for key in p}
    keys.update(f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "total_s"))
    keys.update(["cli.self_s", "cli.total_s", *COUNTERS])
    values = {key: mean(key) for key in keys}
    values["dynamics.SpectralEvolver.build_s"] = values["dynamics.SpectralEvolver.total_s"]
    values["specialfn.gauss_laguerre.distinct_order_frac"] = (
        math.fsum(p.get("specialfn.gauss_laguerre.distinct_orders", 0.0) for p in profiles)
        / max(1.0, math.fsum(p.get("specialfn.gauss_laguerre.calls", 0.0) for p in profiles))
    )
    ops = record["ops"]
    traced = [op for op in ops if op["traced"]]
    values["cli.bytes_out"] = math.fsum(op["bytes"] for op in traced) / len(traced)
    ratios = [op["ratio"] for op in ops if not math.isnan(op["ratio"])]
    values["cli.check_worst_ratio"] = max(ratios, default=0.0)
    untraced_s = math.fsum(op["seconds"] for op in ops if not op["traced"])
    values["trace.overhead_frac"] = math.fsum(op["seconds"] for op in traced) / untraced_s - 1.0
    missing = set(trace["missing"])
    notes = {
        "traced_ops": n,
        "traced_op_mean_s": math.fsum(op["seconds"] for op in traced) / len(traced),
        "self_s_sum": math.fsum(v for k, v in values.items() if k.endswith(".self_s")),
        "missing_layers": sorted(missing),
        "hook_errors": trace["hook_errors"][:10],
    }
    return {k: (None if _layer_of(k) in missing else v) for k, v in values.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coherent2d benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RANGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    src = ROOT / "src"
    if not (src / "coherent2d" / "cli.py").is_file():
        print(f"error: no coherent2d sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    env = child_env(src)
    try:
        setup, cold = [], []
        if args.trace == 0:
            setup, cold = measure_cold(args.workload, args.seed, env, scratch, deadline)
        record = run_worker(args, env, scratch, deadline)
        if args.trace == 0:
            values, notes = end_to_end(record, setup, cold)
            wanted = spec["end_to_end"]
        else:
            values, notes = per_layer(record)
            wanted = spec["per_layer"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = record["ops"] + cold
    failed = sum(not op["ok"] for op in ops)
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        metrics[metric["name"]] = (
            {"value": value, "unit": metric["unit"]} if value is not None
            else {"value": None, "unit": metric["unit"], "missing": True}
        )
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workloads.WHY[args.workload],
              "env": record["env"], "notes": notes, "failed_frac": failed / len(ops),
              "setup_s": setup, "cold_ops": cold, "ops": record["ops"],
              "all_values": values, "result": result}
    if args.trace:
        detail["spans"] = record["trace"]["spans"]
    detail_path = scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail), encoding="utf-8")

    env_info = record["env"]
    print(f"workload {args.workload} seed {args.seed}: python {env_info['python']}, "
          f"numpy {env_info['numpy']}, nproc {env_info['nproc']}, "
          f"BLAS threads {env_info['blas_threads']}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  failed_frac: {failed}/{len(ops)} = {failed / len(ops):.4g}")
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED {' '.join(op['argv'])}: {op['reason']}")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']} {metric['unit']}")
    print(f"  record: {detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
