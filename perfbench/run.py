"""utilcheck benchmark: seeded CLI workloads, time to verdict, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid-coincide --seed 0 --seconds 25 --trace 0

An op is one in-process call to ``utilcheck.cli.main(argv)`` with ``--json``
and stdout captured: what a user's command costs, without interpreter
start-up.  One caller runs ops back to back (a closed loop, one thread).  The
workload's ops run in whole cycles until the time is used up, so every run
measures the same mix.  Every output is checked outside the timed region; an
op that raises, exits 2, or prints a wrong verdict or witness is failed and
its latency counts as +inf.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and with spans recorded around the package's public
functions, and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

try:
    import utilcheck.cli as cli  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import utilcheck from {SRC}: {exc}")
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"perfbench: utilcheck came from {cli.__file__}, not from {SRC}")

import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

#: Tail percentile per workload: the highest that leaves at least
#: ``TAIL_BEYOND`` ops above it once the run has its minimum cycle count.
TAIL_PERCENTILE = {
    "grid-coincide": 75,
    "sqrt-coincide": 75,
    "lottery-recover": 95,
    "witness-validate": 90,
}
TAIL_BEYOND = 10

#: Set-up repeats; ``setup_s`` is the median import plus the median build.
SETUP_REPEATS = 5
_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import utilcheck.cli; print(time.perf_counter() - t)"
)

#: Shared hosts change speed by tens of percent within seconds, in CPU time
#: as much as in wall time.  So a fixed pure-Python loop is timed between
#: every two timed steps, and each step's time is reported at the speed where
#: that loop takes ``PROBE_NOMINAL_S``: measured * PROBE_NOMINAL_S / median of
#: the probes within ``PROBE_WINDOW_S`` of the step (at least the probes
#: right before and right after it).
PROBE_NOMINAL_S = 0.010
PROBE_WINDOW_S = 1.0


def probe() -> float:
    """Seconds the speed loop takes now."""
    start = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Speed probes taken between timed steps, and the rescaling they imply."""

    def __init__(self):
        self.times: list[float] = []  # probe midpoints
        self.samples: list[float] = []

    def _probe(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.times.append(start + seconds / 2)
        self.samples.append(seconds)

    def around(self, step):
        """Run ``step()`` between two probes; return (its result, start, end)."""
        if not self.samples:
            self._probe()
        start = time.perf_counter()
        result = step()
        end = time.perf_counter()
        self._probe()
        return result, start, end

    def factor(self, start: float, end: float) -> float:
        """Rescaling for a step that ran from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        return PROBE_NOMINAL_S / statistics.median(self.samples[lo:hi])


def import_seconds() -> float:
    """Seconds to import ``utilcheck.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, SRC], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def min_cycles(ops_per_cycle: int, p: float) -> int:
    """Fewest whole cycles that leave ``TAIL_BEYOND`` ops above percentile p."""
    m = 1
    while m * ops_per_cycle - math.ceil(p / 100 * m * ops_per_cycle) < TAIL_BEYOND:
        m += 1
    return m


class Outcome:
    """One op run: when it ran, its time as measured and speed-scaled, and why it failed if it did."""

    __slots__ = ("op", "start", "end", "raw", "seconds", "error", "wrong")

    def __init__(self, op, start: float, end: float, raw: float, error: str | None = None,
                 wrong: bool = False):
        self.op, self.start, self.end = op, start, end
        self.raw = self.seconds = raw
        self.error, self.wrong = error, wrong

    @property
    def latency(self) -> float:
        return math.inf if self.error else self.seconds


def call(op) -> tuple[float, object, str, str | None]:
    """Time one ``cli.main(argv)`` call on a collected heap.

    Returns (seconds, exit code, stdout, error); error is set when the call
    raised or exited 2.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
    if error is None and code == 2:
        error = "exit 2: " + err.getvalue().strip()
    return seconds, code, out.getvalue(), error


def run_op(op, pinned: dict, speed: Speed) -> Outcome:
    """One timed call between speed probes, then its output checked against the planted truth."""
    (seconds, code, stdout, error), start, end = speed.around(lambda: call(op))
    if error is not None:
        return Outcome(op, start, end, seconds, error)
    try:
        verdicts.check(op, code, stdout, pinned.get(op.id))
    except (verdicts.Miss, KeyError, TypeError, ValueError) as exc:
        return Outcome(op, start, end, seconds, f"wrong output: {exc!r}", wrong=True)
    return Outcome(op, start, end, seconds)


def rescale(outcomes, speed: Speed) -> None:
    """Put every op's time at the nominal speed, once the probes after it exist."""
    for o in outcomes:
        o.seconds = o.raw * speed.factor(o.start, o.end)


def run_cycles(ops, pinned: dict, speed: Speed, *, seconds: float = 0.0, least: int = 1):
    """Whole cycles over ``ops``: at least ``least``, then as many as fit in ``seconds``."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < least or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        outcomes.extend(run_op(op, pinned, speed) for op in ops)
        last = time.perf_counter() - t
        done += 1
    rescale(outcomes, speed)
    return outcomes, done


def run_traced(ops, pinned: dict, speed: Speed, *, seconds: float):
    """Whole cycles in which each op runs untraced and traced, back to back.

    The pair's order alternates, so a drift in machine speed cancels out of
    the tracing overhead.  Returns (untraced, traced, tracer, cycles).
    """
    tracer = tracing.Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.perf_counter()
    done, last = 0, 0.0
    while done == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        for i, op in enumerate(ops):
            for with_trace in ((True, False) if (i + done) % 2 else (False, True)):
                if not with_trace:
                    plain.append(run_op(op, pinned, speed))
                    continue
                tracer.op_id = f"{op.id}#{done}"
                tracer.install()
                try:
                    traced.append(run_op(op, pinned, speed))
                finally:
                    tracer.close()
        last = time.perf_counter() - t
        done += 1
    rescale(plain + traced, speed)
    return plain, traced, tracer, done


def load_pinned(workload: str, seed: int) -> dict:
    """Digests of the default seed's outputs at the parent commit, for ops that succeeded."""
    if seed != workloads.DEFAULT_SEED:
        return {}
    with open(os.path.join(HERE, "expected_default_seed.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    return {k: v for k, v in pinned.items() if k.startswith(workload + "/") and v is not None}


def end_to_end(outcomes, workload: str, setup_s: float) -> dict:
    latencies = [o.latency for o in outcomes]
    return {
        "command_s.p50": (percentile(latencies, 50), "s"),
        "command_s.tail": (percentile(latencies, TAIL_PERCENTILE[workload]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced, tracer) -> dict:
    """Layer metrics of the traced ops, and the tracing overhead against the plain ops.

    Self times are rescaled by the traced ops' overall speed factor.
    """
    scale = sum(o.seconds for o in traced) / sum(o.raw for o in traced)
    metrics = {}
    for name, value in tracer.layer_metrics(len(traced)).items():
        if name.endswith("_s"):
            metrics[name] = (value * scale, "s")
        else:
            metrics[name] = (value, "share" if name.endswith("_share") else "count")
    plain_s = sum(o.seconds for o in plain) / len(plain)
    traced_s = sum(o.seconds for o in traced) / len(traced)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1, "share")
    return metrics


def result_line(outcomes, metrics: dict) -> str:
    return json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    speed = Speed()

    def build():
        start = time.perf_counter()
        return workloads.build(args.workload, args.seed, workdir), time.perf_counter() - start

    try:
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(speed.around(import_seconds))
            builds.append(speed.around(build))
        ops = builds[-1][0][0]
        setup_s = statistics.median(s * speed.factor(a, b) for s, a, b in imports) + statistics.median(
            s * speed.factor(a, b) for (_, s), a, b in builds)
        pinned = load_pinned(args.workload, args.seed)
        # Long-lived benchmark state stays out of the collector's way.
        gc.collect()
        gc.freeze()
        p = TAIL_PERCENTILE[args.workload]
        if args.trace == 0:
            least = min_cycles(len(ops), p)
            outcomes, cycles = run_cycles(ops, pinned, speed, seconds=args.seconds, least=least)
            metrics = end_to_end(outcomes, args.workload, setup_s)
        else:
            plain, traced, tracer, cycles = run_traced(ops, pinned, speed, seconds=args.seconds)
            tracer.write(os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = per_layer(plain, traced, tracer)
            outcomes = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.error]
    for op_id, error in sorted({o.op.id: o.error for o in failed}.items()):
        print(f"failed {op_id}: {error[:300]}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per cycle, {cycles} cycles, "
          f"{len(outcomes)} ops, tail percentile p{p}, failed_share {len(failed) / len(outcomes):.4f}, "
          f"speed probe median {statistics.median(speed.samples):.4f} s, "
          f"unscaled p50 {percentile([math.inf if o.error else o.raw for o in outcomes], 50):.4f} s")
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
