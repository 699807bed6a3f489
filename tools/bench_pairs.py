"""Compare two checkouts on the benchmark in alternating pairs.

Usage: python tools/bench_pairs.py --parent DIR --change DIR --workload W
           --seed N --pairs P --seconds S

Runs ``benchmark/run.py --trace 0`` in each checkout, one run at a time: the
parent goes first in the odd pairs (1, 3, ...) and the change in the even
ones.  Prints one JSON object: per end-to-end metric of the change's
``BENCHMARK.json``, each side's median, quartiles and run count and the
number of pairs in which the change was lower, in the shape of the
``end_to_end`` entries of the ``BENCH_*.json`` files; then whether every run
was correct, and each run that was not correct, had failed operations or
printed no result; then a verdict per metric (see ``verdict``).  Quartiles
interpolate linearly between the sorted runs (``statistics.quantiles`` with
``method="inclusive"``).  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

USAGE = ("usage: python tools/bench_pairs.py --parent DIR --change DIR --workload W "
         "--seed N --pairs P --seconds S")


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": len(values)}


def value(result: dict | None, name: str) -> float | None:
    """A metric's value in one run's result line ``{"metrics": {name:
    {"value", "unit"}}, ...}``."""
    return (result or {}).get("metrics", {}).get(name, {}).get("value")


def bad_run(result: dict | None) -> bool:
    return result is None or not result.get("correct") or result.get("failed", 0) > 0


def summarize(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> dict:
    """The summary of (parent result, change result) pairs, each the JSON
    result line of one run (None when the run printed none), for the metrics
    ``{"name", "unit"}`` that some run reports."""
    out: dict = {}
    for m in metrics:
        vals = [tuple(value(r, m["name"]) for r in pair) for pair in pairs]
        parent = [p for p, _ in vals if p is not None]
        change = [c for _, c in vals if c is not None]
        both = [(p, c) for p, c in vals if p is not None and c is not None]
        if parent or change:
            lower = sum(c < p for p, c in both)
            out[m["name"]] = {"unit": m["unit"],
                              "parent": spread(parent) if parent else None,
                              "change": spread(change) if change else None,
                              "change_lower_in_pairs": f"{lower}/{len(both)}"}
    bad = [{"pair": i + 1, "side": side,
            **({"correct": r.get("correct"), "attempted": r.get("attempted"),
                "failed": r.get("failed")} if r else {"result": None})}
           for i, pair in enumerate(pairs) for side, r in zip(("parent", "change"), pair)
           if bad_run(r)]
    out["all_runs_correct"] = not bad
    if bad:
        out["bad_runs"] = bad
    return out


def verdict(vals: list[tuple[float | None, float | None]], bound: float, better: str) -> str:
    """The verdict on one end-to-end metric, from its (parent, change) value
    in each pair (None where a run reported none), its bound, a fraction of
    the parent's median, and whether ``lower`` or ``higher`` is better:

    - ``gain``: the change is better in at least nine tenths of the pairs,
      ties counting for neither, and its median is better than the parent's
      by more than the parent's interquartile range;
    - ``worse``: the change's median is past the parent's by more than the
      bound;
    - ``unresolved``: the parent's interquartile range is wider than the
      bound, or a side reported no value;
    - ``level`` otherwise."""
    parent = [p for p, _ in vals if p is not None]
    change = [c for _, c in vals if c is not None]
    if not parent or not change:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    both = [(p, c) for p, c in vals if p is not None and c is not None]
    won = sum(sign * (p - c) > 0 for p, c in both)
    p, c = spread(parent), spread(change)
    gained, iqr = sign * (p["median"] - c["median"]), p["q3"] - p["q1"]
    if both and won >= 0.9 * len(both) and gained > iqr:
        return "gain"
    if -gained > bound * p["median"]:
        return "worse"
    if iqr > bound * p["median"]:
        return "unresolved"
    return "level"


def verdicts(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> dict:
    """``verdict`` per metric ``{"name", "bound", "better"}`` that some run
    reports, from the pairs' result lines."""
    out = {}
    for m in metrics:
        vals = [tuple(value(r, m["name"]) for r in pair) for pair in pairs]
        if any(v is not None for pair in vals for v in pair):
            out[m["name"]] = verdict(vals, m["bound"], m["better"])
    return out


def run_once(checkout: Path, args: argparse.Namespace) -> dict | None:
    """The last JSON line one benchmark run prints, or None."""
    argv = [sys.executable, "benchmark/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The options; a missing or malformed one prints the usage line and
    exits with status 2."""
    ap = argparse.ArgumentParser(usage=USAGE.removeprefix("usage: "), add_help=False)
    for flag in ("--parent", "--change", "--workload"):
        ap.add_argument(flag, required=True)
    for flag in ("--seed", "--pairs"):
        ap.add_argument(flag, type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    missing = [d for d in (args.parent, args.change)
               if not (Path(d) / "benchmark" / "run.py").is_file()]
    if missing:
        print(USAGE, file=sys.stderr)
        print("\n".join(f"no benchmark/run.py under: {d}" for d in missing), file=sys.stderr)
        return 2
    metrics = json.loads((Path(args.change) / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            got[side] = run_once(Path(getattr(args, side)), args)
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  + ", ".join(f"{m['name']} {value(got[side], m['name'])}" for m in metrics),
                  file=sys.stderr)
        pairs.append((got["parent"], got["change"]))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "seconds": args.seconds, "end_to_end": summarize(pairs, metrics),
                      "verdicts": verdicts(pairs, metrics)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
