"""The toriccsm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn

Run from the root of a source checkout: the program is imported from
``src/``.  An op is one in-process ``toriccsm.cli.main([cmd, "--fan", FILE,
"--elim-cone", ..., "--json"])`` call with captured output, on one fan the
workload generated from the seed; the CLI keeps its other defaults
(``--threads`` is ``os.cpu_count()``).  The benchmark itself starts no
threads.  Ops run in whole rounds (see ``workloads.py``) for about
``--seconds``, and every output is checked after the timed phase.

``--trace 0`` prints the end-to-end metrics.  Their timings are normalized
to the host's speed through a reference workload timed between the ops
(see ``reference.py``); the raw timings are printed beside them.
``--trace 1`` prints the per-layer metrics of a traced run, which runs each
round once traced and once untraced to measure the tracing overhead, and
writes its spans to ``perfbench_out/``; its layer times are raw.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads
from reference import ReferenceClock
from tracer import SELF_SUM_TOLERANCE_S, LayerTotals, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_REPEATS = 5
P90_MIN_OPS = 100


@dataclass
class Op:
    case: workloads.FanCase
    rc: int
    out: str
    t0: float
    t1: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def fresh_import():
    """Import toriccsm from ``src/`` anew, so that import-time work is timed
    on every set-up."""
    for name in [m for m in sys.modules if m == "toriccsm" or m.startswith("toriccsm.")]:
        del sys.modules[name]
    tc = importlib.import_module("toriccsm")
    importlib.import_module("toriccsm.cli")
    if not Path(tc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"toriccsm imported from {tc.__file__}, not from {SRC}")
    return tc


def setup(workload: str, seed: int, workdir: Path, ref: ReferenceClock):
    """Import, generate and write the inputs SETUP_REPEATS times, sampling
    the reference after each; return the last import, its rounds, its
    files and the (start, end) time of each repeat."""
    spans = []
    ref.sample()
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tc = fresh_import()
        rounds = workloads.generate(tc, workload, seed, workdir / f"setup{i}")
        spans.append((t0, time.perf_counter()))
        ref.sample()
    return tc, rounds, workdir / f"setup{SETUP_REPEATS - 1}", spans


def call_main(tc, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = tc.cli.main(argv)
    return rc, out.getvalue()


def timed_op(tc, case, workdir) -> Op:
    argv = case.argv(workdir)
    c0, t0 = time.process_time(), time.perf_counter()
    rc, out = call_main(tc, argv)
    t1, c1 = time.perf_counter(), time.process_time()
    return Op(case, rc, out, t0, t1, c1 - c0)


def more_rounds(elapsed: float, done: int, seconds: float) -> bool:
    """Whether to start another round: stop at the round boundary nearest
    to ``seconds``, so a run lasts ``seconds`` on average."""
    return elapsed + elapsed / done / 2 < seconds


def run_untraced(tc, rounds, workdir, seconds, ref: ReferenceClock):
    """Whole rounds for about ``seconds``, with reference samples between
    ops; returns the ops and the phase's wall time."""
    ops = []
    start = time.perf_counter()
    r = 0
    while r == 0 or more_rounds(time.perf_counter() - start, r, seconds):
        for case in rounds[r % len(rounds)]:
            ops.append(timed_op(tc, case, workdir))
            ref.tick()
        r += 1
    elapsed = time.perf_counter() - start
    ref.sample()
    return ops, elapsed


def run_traced(tc, rounds, workdir, seconds, tracer, ref: ReferenceClock):
    """Each round once traced and once untraced, alternating which goes
    first, for about ``seconds`` in all; returns the ops, the layer totals
    and the tracing overhead: normalized traced time over normalized
    untraced time of the same cases, less one."""
    ops, traced = [], []
    totals = LayerTotals()
    elapsed = 0.0
    r = 0
    while r == 0 or more_rounds(elapsed, r, seconds):
        cases = rounds[r % len(rounds)]
        for tracing in ((True, False) if r % 2 == 0 else (False, True)):
            if tracing:
                tracer.install()
            try:
                for case in cases:
                    if tracing:
                        argv = case.argv(workdir)
                        t0 = time.perf_counter()
                        (rc, out), trace = tracer.run_op(lambda: call_main(tc, argv))
                        ops.append(Op(case, rc, out, t0, t0 + trace.wall, 0.0))
                        totals.add(trace)
                    else:
                        ops.append(timed_op(tc, case, workdir))
                    traced.append(tracing)
                    elapsed += ops[-1].wall
                    ref.tick()
            finally:
                tracer.uninstall()
        r += 1
    ref.sample()
    norm = {True: 0.0, False: 0.0}
    for op, tracing in zip(ops, traced):
        norm[tracing] += op.wall * ref.scale(op.t0, op.t1)[0]
    return ops, totals, norm[True] / norm[False] - 1.0


def check_ops(ops, workload, seed):
    digests = checker.load_digests(workload, seed)
    failures = []
    for op in ops:
        digest = digests[op.case.index] if digests and op.case.index < len(digests) else None
        why = checker.check_output(op.case, op.rc, op.out, digest)
        if why:
            failures.append((op.case, why))
    return failures, digests is not None


def end_to_end(ops, elapsed, setup_spans, ref: ReferenceClock, peak_rss_mb):
    """Normalized end-to-end metrics, printing the raw figures beside them."""
    scales = [ref.scale(op.t0, op.t1) for op in ops]
    walls = [op.wall * w for op, (w, _c) in zip(ops, scales)]
    cpus = [op.cpu * c for op, (_w, c) in zip(ops, scales)]
    setups = [(t1 - t0) * ref.scale(t0, t1)[0] for t0, t1 in setup_spans]
    raw_walls = [op.wall for op in ops]
    n = len(ops)
    if n >= P90_MIN_OPS:
        p90 = (f"{1e3 * statistics.quantiles(walls, n=10)[-1]:.4f} ms "
               f"(raw {1e3 * statistics.quantiles(raw_walls, n=10)[-1]:.4f} ms)")
    else:
        p90 = "absent"
    print(f"op_p90_ms {p90}, {n} ops")
    print(f"raw: fans_per_s {n / elapsed:.6g} 1/s, op_p50_ms {1e3 * statistics.median(raw_walls):.6g} ms, "
          f"cpu_ms_per_fan {1e3 * sum(op.cpu for op in ops) / n:.6g} ms, "
          f"setup_s {statistics.median(t1 - t0 for t0, t1 in setup_spans):.6g} s; "
          f"reference chunk median {1e3 * statistics.median(ref.wall):.4f} ms over {len(ref.wall)} samples")
    return {
        "fans_per_s": (n / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "cpu_ms_per_fan": (1e3 * sum(cpus) / n, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_workload(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ref = ReferenceClock()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tc, rounds, files, setup_spans = setup(args.workload, args.seed, workdir, ref)
        if args.trace:
            tracer = Tracer(tc)
            ops, totals, overhead = run_traced(tc, rounds, files, args.seconds, tracer, ref)
        else:
            ops, elapsed = run_untraced(tc, rounds, files, args.seconds, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, digests_checked = check_ops(ops, args.workload, args.seed)
    attempted, failed = len(ops), len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops over {len({op.case.index for op in ops})} distinct fans")
    print(f"failed_frac {failed / attempted:.4g} ({failed}/{attempted}); "
          f"seed-{checker.DIGEST_SEED} digests {'checked' if digests_checked else 'not checked'}")
    for case, why in failures[:10]:
        print(f"  FAILED {case.file} {case.command} {case.spec}: {why}")

    if args.trace:
        out_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        n_spans = tracer.write_spans(out_path)
        print(f"traced {totals.ops} ops, {n_spans} spans -> {out_path.relative_to(ROOT)}; "
              f"max |sum(self) - wall| per op {totals.max_sum_error:.2e} s "
              f"(tolerance {SELF_SUM_TOLERANCE_S:g} s)")
        for line in totals.table():
            print(line)
        metrics = totals.metrics(overhead)
    else:
        metrics = end_to_end(ops, elapsed, setup_spans, ref, peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (each gets its own peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toriccsm" / "__init__.py").is_file():
        print(f"perfbench: no toriccsm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
