"""condflow benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; condflow is imported from ./src.
The workload's operations run one at a time, in passes, until the next
pass would end after S seconds (at least one pass).  With --trace 1 each
operation of a pass runs twice, untraced and traced back to back, so a
traced run takes about twice as long.  Every output is checked, and every
pass must reproduce the first pass's output digest.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
metrics of the traced passes, with the spans written to perfbench/out/.
BENCHMARK.json names every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread everywhere, set before numpy or condflow load
os.environ["CONDFLOW_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9


def _import_condflow() -> None:
    """Import condflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "condflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no condflow sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import condflow

    if Path(condflow.__file__).resolve().parent != (src / "condflow").resolve():
        sys.exit(f"perfbench: imported condflow from {condflow.__file__}, not {src}")


def _workdir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup_probe(workload: str, seed: int, sizes) -> None:
    """Child process body for setup_s: imports plus input construction."""
    work = _workdir("probe")
    try:
        workloads.build(workload, seed, work, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure_setup(args) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0", "--seconds", "1"]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pass:
    """One pass over the operations: wall times, outcomes, digest."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.outcomes = []
        self.op_walls = {}

    def run(self, op) -> None:
        t_op = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a crash is a wrong outcome, not a harness error
            outcome = workloads.Outcome(False, f"{op.name}: {type(exc).__name__}: {exc}")
        self.op_walls[op.name] = time.perf_counter() - t_op
        self.outcomes.append(outcome)
        self._digest.update(f"{op.name}\0{outcome.output}\0".encode())

    @property
    def wall(self) -> float:
        return sum(self.op_walls.values())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def solved(self) -> int:
        return sum(o.solved for o in self.outcomes)

    @property
    def wrong(self) -> list[str]:
        return [o.wrong for o in self.outcomes if o.wrong]


def _plain_pass(ops) -> Pass:
    p = Pass()
    for op in ops:
        p.run(op)
    return p


def _repeat(deadline: float, run_pass) -> None:
    """Call `run_pass` until the next call would likely end after
    `deadline`; at least once."""
    walls = []
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(ops, setup_s: float, deadline: float):
    passes = []
    _repeat(deadline, lambda: passes.append(_plain_pass(ops)))
    metrics = {
        "wall_s": _metric(statistics.median(p.wall for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "solved_frac": _metric(sum(p.solved for p in passes) / (len(ops) * len(passes)), "frac"),
    }
    extra = {"pass_wall_s": [p.wall for p in passes], "op_wall_s": [p.op_walls for p in passes]}
    return passes, metrics, extra, []


def _per_layer(ops, deadline: float):
    """Each operation runs untraced and traced back to back, the order
    alternating from one operation (and pass) to the next.  A pair is
    seconds apart, so drift in machine speed and the cost of a cold first
    call fall on both sides alike instead of showing as tracing overhead."""
    plain, traced, layer_runs, spans = [], [], [], []

    def paired_pass():
        p, t, tracer = Pass(), Pass(), tracing.Tracer()
        for i, op in enumerate(ops):
            plain_first = (i + len(traced)) % 2 == 0
            if plain_first:
                p.run(op)
            with tracing.instrument(tracer):
                root = tracer.open(op.name, "bench")
                try:
                    t.run(op)
                finally:
                    tracer.close(root)
            if not plain_first:
                p.run(op)
        layer_runs.append(tracing.layer_metrics(tracer.spans))
        spans[:] = tracer.spans
        plain.append(p)
        traced.append(t)

    _repeat(deadline, paired_pass)
    passes = plain + traced
    # time-weighted over every pair of the run
    overhead = sum(t.wall for t in traced) / sum(p.wall for p in plain) - 1.0
    metrics = {}
    for name, unit, _better in tracing.PER_LAYER:
        values = [run.get(name, 0.0) for run in layer_runs]
        metrics[name] = _metric(statistics.median(values), unit)
    metrics["trace.overhead_frac"] = _metric(overhead, "frac")
    problems = []
    for name in tracing.EXACT_COUNTS:
        values = {run.get(name, 0) for run in layer_runs}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    extra = {"pass_wall_s": [p.wall for p in plain], "traced_pass_wall_s": [t.wall for t in traced],
             "op_wall_s": [p.op_walls for p in plain], "traced_op_wall_s": [t.op_walls for t in traced],
             "spans": [s.as_dict() for s in spans]}
    return passes, metrics, extra, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    _import_condflow()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    sizes = workloads.TINY if args.tiny else workloads.Sizes()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, sizes)
        return 0

    setup_s = _measure_setup(args) if not args.trace else None
    work = _workdir(args.workload)
    try:
        ops = workloads.build(args.workload, args.seed, work, sizes)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            passes, metrics, extra, problems = _per_layer(ops, deadline)
        else:
            passes, metrics, extra, problems = _end_to_end(ops, setup_s, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append("output digest differs between passes of one run")
    wrong = [w for p in passes for w in p.wrong]
    for line in problems + wrong:
        print(f"perfbench: {line}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "digest": passes[0].digest, "passes": len(passes),
              "unsolved": [op.name for op, o in zip(ops, passes[0].outcomes) if not o.solved],
              "elapsed_s": time.perf_counter() - t_start, "problems": problems + wrong,
              "metrics": metrics, **extra}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"digest {args.workload} seed={args.seed} {passes[0].digest}")
    print(json.dumps({
        "correct": not problems and not wrong,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": len(wrong),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
