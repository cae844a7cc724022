"""Benchmark harness for icbounds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats whole rounds of the workload's operations, after one untimed
warm-up round for the in-process workloads: at least three timed rounds, and
as many as fit in ``--seconds``.  It checks every output and prints one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, taken from
spans around the library's public functions (``spans.py``), plus the
tracing overhead.  Results and spans are also written under ``bench/out/``.
See README.md for the workloads, the metrics and their expected movements.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# One thread per process: numpy's BLAS must not start a pool of its own.
# Set before numpy is first imported, and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("bound-large", "maxbias", "search-small", "cli-mix")
MIN_ROUNDS = 3
# A traced run needs fewer: its per-layer figures have no bound.
MIN_TRACED_ROUNDS = 2
# In-process workloads first run one round whose outputs are checked and
# counted but whose times are dropped: the first calls fault in pages and
# warm numpy's caches (1.27 s against 0.84 s for max_bias(Index(16), 2)).
# cli-mix needs none, as every invocation is a fresh process.
WARMUP_ROUNDS = 1
SETUP_PROBES = 7
IMPORT_PROBES = 5
# cli_tail_ms, nearest rank.  cli-mix runs at least MIN_ROUNDS * 24 = 72
# invocations; at 72 the 85th percentile is the highest with ten above it.
TAIL_PERCENTILE = 85


def load_program():
    """Import icbounds from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import icbounds
    except ImportError as exc:
        raise SystemExit(f"cannot import icbounds from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(icbounds.__file__))) != SRC:
        raise SystemExit(f"icbounds was imported from {icbounds.__file__}, not from {SRC}")


def scratch_dir(workload: str) -> str:
    path = os.path.join(OUT, workload)
    os.makedirs(path, exist_ok=True)
    return path


def build_workload(name: str, seed: int, in_process: bool = False):
    load_program()
    import workloads
    return workloads.make(name, seed, ROOT, scratch_dir(name), in_process)


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from process start to the first timed operation, each
    sample a fresh interpreter importing the package and making the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"set-up probe {argv} exited with {proc.returncode}")
    return statistics.median(samples)


def import_ms() -> float:
    """Median time a fresh interpreter takes to import the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import icbounds; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120, check=True)
        samples.append(float(proc.stdout) * 1e3)
    return statistics.median(samples)


class Run:
    """Whole rounds of a workload's operations, with what they did.

    ``times[kind][op]`` holds the wall time of each repeat of an operation,
    for kind "plain" (untraced) and "traced"; "warmup" rounds are timed too
    but their times are not reported.
    """

    def __init__(self, workload, traced: bool):
        self.workload = workload
        self.kinds = ("plain", "traced") if traced else ("plain",)
        self.warmup = WARMUP_ROUNDS if workload.runner is None else 0
        self.times = {kind: {} for kind in ("warmup",) + self.kinds}
        self.layer_rounds = []  # per-layer metrics of each traced round
        self.last_spans = None  # spans of the last traced round
        self.attempted = self.failed = 0
        self.checked_rounds = 0
        self.correct = True
        self.tracer = None
        if traced:
            from spans import Tracer, layer_metrics
            self.tracer = Tracer()
            self._layer_metrics = layer_metrics

    def measure(self, seconds: float) -> "Run":
        """The warm-up rounds, then timed rounds: at least MIN_ROUNDS, and
        more while the next one, taken to last as long as the longest so
        far, still ends within ``seconds`` of the start.  Traced runs
        alternate the two kinds, at least MIN_TRACED_ROUNDS of each."""
        for _ in range(self.warmup):
            self._round("warmup")
        needed = MIN_ROUNDS if self.tracer is None else 2 * MIN_TRACED_ROUNDS
        rounds = 0
        longest = 0.0
        start = time.perf_counter()
        while rounds < needed or time.perf_counter() - start + longest <= seconds:
            began = time.perf_counter()
            self._round(self.kinds[rounds % len(self.kinds)])
            longest = max(longest, time.perf_counter() - began)
            rounds += 1
        if not self.checked_rounds:
            self.correct = False
        return self

    def _round(self, kind: str) -> None:
        times = self.times[kind]
        tracer = self.tracer if kind == "traced" else None
        results = {}
        # Every round starts with the same garbage-collector state, so that
        # a collection left over from the previous round lands in no call.
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            for op in self.workload.ops:
                self.attempted += 1
                start = time.perf_counter()
                try:
                    result = op.fn()
                except Exception as exc:  # counted as a failed operation
                    sys.stderr.write(f"{op.name}: {type(exc).__name__}: {exc}\n")
                    result = None
                times.setdefault(op.name, []).append(time.perf_counter() - start)
                if result is None or not op.ok(result):
                    self.failed += 1
                else:
                    results[op.name] = result
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.last_spans = tracer.take()
                self.layer_rounds.append(self._layer_metrics(self.last_spans))
        self._check(results)

    def _check(self, results: dict) -> None:
        if any(op.name not in results for op in self.workload.ops if op.expect_refusal is not True):
            return
        try:
            errors = self.workload.check(results)
        except Exception as exc:  # a malformed output fails the check
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.checked_rounds += 1
        for error in errors:
            sys.stderr.write(f"CHECK FAILED ({self.workload.name}): {error}\n")
            self.correct = False


def job_seconds(times: dict) -> float:
    """Sum over operations of the median of that operation's repeats."""
    return sum(statistics.median(samples) for samples in times.values())


def end_to_end(args, workload) -> tuple:
    run = Run(workload, traced=False).measure(args.seconds)
    plain = run.times["plain"]
    if workload.runner is not None:
        calls = sorted(t for ts in plain.values() for t in ts)
        p50 = statistics.median(calls)
        tail = calls[math.ceil(TAIL_PERCENTILE / 100 * len(calls)) - 1]
        peak_kib = workload.runner.peak_kib
    else:
        # In-process calls are unequal (10 ms to 1 s), so a percentile over
        # them would only say which call sits at that rank.  Report the
        # typical call, as the geometric mean of the per-operation medians,
        # and for the tail the length of the call in progress at a random
        # moment of a round: each median weighted by itself.  That follows
        # the slow calls, but rests on the few slowest rather than on one.
        per_op = [statistics.median(ts) for ts in plain.values()]
        p50 = statistics.geometric_mean(per_op)
        tail = sum(t * t for t in per_op) / sum(per_op)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_s": job_seconds(plain),
        "cli_p50_ms": p50 * 1e3,
        "cli_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, run, None


def per_layer(args, workload) -> tuple:
    run = Run(workload, traced=True).measure(args.seconds)
    metrics = {name: statistics.median(r[name] for r in run.layer_rounds) for name in run.layer_rounds[0]}
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_s"] = job_seconds(run.times["traced"]) - job_seconds(run.times["plain"])
    return metrics, run, run.last_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the package and make the inputs, then exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if args.setup_probe:
        build_workload(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workload = build_workload(args.workload, args.seed, in_process=bool(args.trace))
    try:
        if args.trace:
            metrics, run, spans = per_layer(args, workload)
        else:
            metrics, run, spans = end_to_end(args, workload)
            metrics["setup_s"] = setup_s
    finally:
        workload.close()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        declared = json.load(spec)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1)
    if spans is not None:
        run.tracer.write(stem + "-spans.csv", spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
