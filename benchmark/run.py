"""gnfkit benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload compile|answer|model-theory \\
        --seed N --seconds S --trace 0|1

Run from the repository root; gnfkit is imported from ``src/`` next to this
directory and nowhere else.  The run sets up the workload, repeats its fixed
batch of library calls for three quarters of ``--seconds`` and its
``gnfkit`` commands for the rest, checks every output, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``run_s``, ``peak_rss_mb``,
``cli_p50_ms``); with ``--trace 1`` they are the per-layer ones, and the
spans go to ``benchmark/out/``.  Every time is reported at reference speed
(see ``RefClock``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LIBRARY_SHARE = 3 / 4  # of --seconds; the CLI commands get the rest
MIN_BATCHES = 3        # so that every call is repeated at least three times
MIN_CLI_RUNS = 12
SETUP_SAMPLES = 5      # fresh processes timed for setup_s
IMPORT_SAMPLES = 5     # fresh interpreters timed for cli.import_ms
CHILD_TIMEOUT = 120    # a set-up process
CLI_TIMEOUT = 20       # one gnfkit invocation on the small CLI inputs
# nominal times of the reference computations (reference.py): a time is
# reported as its share of the reference measured around it times these
REF_LOOP_S = 0.003
REF_PROCESS_S = 0.15


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "answer", "model-theory"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (times setup_s)")
    return ap.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def timed_child(argv: list[str], timeout: float = CHILD_TIMEOUT
                ) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def reference_process_seconds() -> float:
    dt, proc = timed_child([sys.executable, os.path.join(HERE, "reference.py")])
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed:\n{proc.stderr}")
    return dt


class RefClock:
    """Scales times to reference speed.  A time is divided by the mean of two
    runs of a reference computation, one right before it and one right
    after, and multiplied by that computation's nominal time.  On a shared
    host the speed of the CPU swings by up to a factor of two for seconds to
    minutes, and the reference swings with it; see README.md."""

    def __init__(self, measure, nominal: float):
        self.measure = measure
        self.nominal = nominal
        self.last = measure()

    def scale(self, elapsed: float) -> float:
        """``elapsed``, of the work that just ended, at reference speed."""
        now = self.measure()
        before, self.last = self.last, now
        return elapsed * self.nominal / ((before + now) / 2)


def loop_clock() -> RefClock:
    return RefClock(reference.loop_seconds, REF_LOOP_S)


def process_clock() -> RefClock:
    return RefClock(reference_process_seconds, REF_PROCESS_S)


def setup_seconds(args) -> float:
    """Median time of fresh processes that start, import gnfkit, set the
    workload up (parse, build, compile, warm up) and exit, each at reference
    speed."""
    clock = process_clock()
    samples = []
    for _ in range(SETUP_SAMPLES):
        dt, proc = timed_child([sys.executable, os.path.abspath(__file__),
                                "--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(clock.scale(dt))
    return statistics.median(samples)


def clear_library_caches() -> None:
    """Empty every functools cache in gnfkit, so each batch pays for what a
    single call from a fresh process would."""
    for name, mod in list(sys.modules.items()):
        if name == "gnfkit" or name.startswith("gnfkit."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, label: str, ok: bool | None) -> None:
        """ok: True correct, False wrong output, None raised."""
        self.attempted += 1
        if ok is not True:
            self.failed += 1
            self.wrong += ok is False
            print(f"FAILED ({'wrong output' if ok is False else 'error'}): {label}",
                  file=sys.stderr)


def run_op(op, tally: Tally, clock: RefClock) -> float:
    """Time one library call at reference speed, then check its result
    outside the timing."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        elapsed = clock.scale(time.perf_counter() - start)
        traceback.print_exc()
        tally.record(op.name, None)
        return elapsed
    elapsed = clock.scale(time.perf_counter() - start)
    try:
        ok = bool(op.check(result))
    except Exception:
        traceback.print_exc()
        ok = False
    tally.record(op.name, ok)
    return elapsed


def run_batches(workload, budget: float, tally: Tally, tracer,
                clock: RefClock) -> list[list[float]]:
    """Whole batches until the budget is spent, at least MIN_BATCHES.
    Returns each batch's list of call times."""
    ops = workload.ops()
    batches: list[list[float]] = []
    batch_times: list[float] = []
    start = time.perf_counter()
    while True:
        clear_library_caches()
        if tracer is not None:
            tracer.begin_phase("batch")
        batch_start = time.perf_counter()
        batches.append([run_op(op, tally, clock) for op in ops])
        batch_times.append(time.perf_counter() - batch_start)
        elapsed = time.perf_counter() - start
        if (len(batches) >= MIN_BATCHES
                and elapsed + statistics.median(batch_times) > budget):
            return batches


def batch_seconds(batches: list[list[float]]) -> float:
    """The batch as one sum over its calls, each call at the median of its
    repetitions in this run."""
    return sum(statistics.median(times) for times in zip(*batches))


def run_cli(workload, budget: float, tally: Tally) -> tuple[list[float], list[float]]:
    """Whole rounds of the workload's commands until the budget is spent.
    stdout must repeat byte for byte and pass the command's check.  Returns
    each invocation's wall time and its time at reference speed."""
    commands = workload.cli_commands()
    first_out: dict[int, str] = {}
    times: list[float] = []
    scaled: list[float] = []
    clock = process_clock()
    attempts = 0
    start = time.perf_counter()
    while attempts < MIN_CLI_RUNS or time.perf_counter() - start < budget:
        for i, cmd in enumerate(commands):
            label = "gnfkit " + " ".join(cmd.argv)
            attempts += 1
            try:
                dt, proc = timed_child([sys.executable, "-m", "gnfkit", *cmd.argv],
                                       CLI_TIMEOUT)
            except subprocess.TimeoutExpired:
                tally.record(label, None)
                continue
            times.append(dt)
            scaled.append(clock.scale(dt))
            try:
                ok = (first_out.setdefault(i, proc.stdout) == proc.stdout
                      and bool(cmd.check(proc.returncode, proc.stdout)))
            except Exception:
                traceback.print_exc()
                ok = False
            tally.record(label, ok)
    return times, scaled


def cli_import_ms() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        dt, proc = timed_child([sys.executable, "-c", "import gnfkit.cli"])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        samples.append(dt * 1000)
    return statistics.median(samples)


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten invocations beyond it, and
    that percentile (the maximum, at 100, when there are ten or fewer)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gnfkit", "__init__.py")):
        print(f"error: no gnfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports gnfkit from SRC

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(args.seed)
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown: set-up ends here

    tracer = None
    setup_s = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_phase("setup")
    else:
        setup_s = setup_seconds(args)
    workload.setup(args.seed)

    tally = Tally()
    clock = loop_clock()
    budget = args.seconds * LIBRARY_SHARE
    batches = run_batches(workload, budget, tally, tracer, clock)
    if tracer is not None:
        tracer.begin_phase("checks")
    for op in workload.final_checks():
        run_op(op, tally, clock)
    if tracer is not None:
        tracer.uninstall()
    cli_wall, cli_scaled = run_cli(workload, args.seconds - budget, tally)
    if not cli_wall:
        raise RuntimeError("no gnfkit command completed")
    cli_times = [t * 1000 for t in cli_wall]

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (batch_seconds(batches), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_p50_ms": (statistics.median(cli_scaled) * 1000, "ms"),
        }
    else:
        layer = tracing.layer_metrics(tracer)
        tail_ms, tail_pct = tail(cli_times)
        layer.update({"cli.import_ms": cli_import_ms(), "cli.tail_ms": tail_ms,
                      "cli.tail_pct": tail_pct, "cli.invocations": len(cli_times),
                      "traced.run_s": batch_seconds(batches)})
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
