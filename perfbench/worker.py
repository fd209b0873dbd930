"""Closed-loop worker: one client runs a workload's ops in this process.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH. Each op
is one ``coherent2d.cli.main(argv)`` call with stdout redirected to a file
in the scratch directory, as a CLI user writing to a file would see it. The
output is checked after the timer stops; a failed op keeps its time. The
loop runs ``--decks`` whole decks of the workload.

With ``--trace 1`` every argv runs twice, once untraced and once traced,
alternating which goes first, so the traced run also yields the tracing
overhead. The record (ops, spans, counters, environment) is written as JSON
to ``--record``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import ROOT, Tracer, op_profiles


def _run_op(cli, argv, scratch: Path, tracer: Tracer | None, op_id: int) -> dict:
    out_path = scratch / "op.out"
    error = ""
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as out, \
                open(scratch / "op.err", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    exit_code = cli.main(argv)
                else:
                    exit_code = tracer.call(ROOT, cli.main, argv)
            except Exception:  # a crashing op is a failed op, the loop goes on
                exit_code = None
                error = traceback.format_exc(limit=3)
            out.flush()
            seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if exit_code is None:
        verdict = checks.Verdict(False, error.strip().splitlines()[-1], float("nan"))
    else:
        verdict = checks.check(argv, exit_code, out_path.read_text(encoding="utf-8"))
    return {
        "argv": argv,
        "seconds": seconds,
        "exit": exit_code,
        "ok": verdict.ok,
        "reason": verdict.reason,
        "ratio": verdict.worst_ratio,
        "bytes": out_path.stat().st_size,
        "traced": tracer is not None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RANGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--decks", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    args = parser.parse_args()

    import numpy

    import coherent2d.cli as cli

    tracer = Tracer() if args.trace else None
    ops = []
    for deck in islice(workloads.decks(args.workload, args.seed), args.decks):
        for argv in deck:
            if tracer is None:
                ops.append(_run_op(cli, argv, args.scratch, None, len(ops)))
            else:
                traced_first = len(ops) % 4 == 0
                for traced in (traced_first, not traced_first):
                    ops.append(
                        _run_op(cli, argv, args.scratch, tracer if traced else None, len(ops))
                    )

    record = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
            "coherent2d": cli.__file__,
        },
    }
    if tracer is not None:
        traced = [i for i, op in enumerate(ops) if op["traced"]]
        profiles = op_profiles(tracer.spans, tracer.counters, tracer.orders, traced)
        record["trace"] = {
            "missing": tracer.missing,
            "hook_errors": tracer.hook_errors,
            "profiles": {str(op): dict(p) for op, p in profiles.items()},
            "spans": tracer.spans,
        }
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
