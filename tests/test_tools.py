"""Tests for the scripts under tools/."""

import json
import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import bench_pairs  # noqa: E402
import code_lines  # noqa: E402
import random_sweep  # noqa: E402
import uncovered  # noqa: E402


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], [__file__, "--help"]])
def test_code_lines_prints_usage_on_options(argv, capsys):
    assert code_lines.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: python tools/code_lines.py")


def test_code_lines_names_a_missing_path(tmp_path, capsys):
    missing = tmp_path / "absent.py"
    assert code_lines.main([__file__, str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"no such file: {missing}\n"


def test_code_lines_counts_code_only(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text('"""doc"""\n\n# comment\nx = 1\n')
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     1  {path}\n     1  total\n"


def test_uncovered_names_the_statements_a_run_misses(tmp_path, capsys):
    package = tmp_path / "uncovered_sample"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        '"""doc"""\n'
        "\n"
        "def sign(x):\n"
        '    """doc"""\n'
        "    if x < 0:\n"
        "        return -1\n"
        "    return (1 if x\n"
        "            else 0)\n")
    test = tmp_path / "test_sample.py"
    test.write_text("from uncovered_sample.mod import sign\n\n"
                    "def test_sign():\n    assert sign(0) == 0\n")
    assert uncovered.main(["--source", str(package), "-q", "-p", "no:cacheprovider",
                           str(test)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"{os.path.relpath(package / 'mod.py')}:6: return -1",
                        "1 of 5 statements never ran"]


def test_random_sweep_prints_its_counts(capsys):
    assert random_sweep.main(["--seed", "0", "--theories", "2", "--max-arity", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theories"] == 2 and out["mismatches"] == []
    assert out["max_query_atoms"] == 2 and out["max_query_vars"] == 3
    assert out["decided"] + out["undecided"] == 4 * out["compiles"] > 0


def test_random_sweep_runs_the_fg_sweep(capsys, monkeypatch):
    calls = []
    real = random_sweep.fg_sweep
    monkeypatch.setattr(random_sweep, "fg_sweep", lambda *args: calls.append(args) or real(*args))
    assert random_sweep.main(["--seed", "0", "--theories", "10", "--max-arity", "2", "--fg"]) == 0
    assert calls == [(0, 10, 2)]
    out = json.loads(capsys.readouterr().out)
    assert out["fg"] and out["mismatches"] == []
    assert out["decided"] + out["undecided"] == 4 * out["compiles"] > 0


def test_random_sweep_runs_the_dl_sweep(capsys, monkeypatch):
    calls = []
    real = random_sweep.dl_sweep
    monkeypatch.setattr(random_sweep, "dl_sweep", lambda *args: calls.append(args) or real(*args))
    assert random_sweep.main(["--seed", "0", "--theories", "3", "--max-arity", "2", "--dl"]) == 0
    assert calls == [(0, 3)]
    out = json.loads(capsys.readouterr().out)
    assert out["dl"] and not out["fg"] and out["mismatches"] == []
    assert out["compiles"] == 6
    assert out["decided"] + out["undecided"] == 4 * out["compiles"]


def test_random_sweep_draws_queries_of_the_given_atoms(capsys, monkeypatch):
    calls = []
    real = random_sweep.sweep
    monkeypatch.setattr(random_sweep, "sweep", lambda *args: calls.append(args) or real(*args))
    argv = ["--seed", "0", "--theories", "2", "--max-arity", "2"]
    assert random_sweep.main([*argv, "--max-query-atoms", "3"]) == 0
    assert calls == [(0, 2, 2, 3, 3)]
    out = json.loads(capsys.readouterr().out)
    assert out["max_query_atoms"] == 3 and out["mismatches"] == []
    assert out["decided"] + out["undecided"] == 4 * out["compiles"] > 0


def test_random_sweep_draws_queries_of_the_given_variables(capsys, monkeypatch):
    calls = []
    real = random_sweep.sweep
    monkeypatch.setattr(random_sweep, "sweep", lambda *args: calls.append(args) or real(*args))
    argv = ["--seed", "0", "--theories", "2", "--max-arity", "2", "--max-query-atoms", "4"]
    assert random_sweep.main([*argv, "--max-query-vars", "4"]) == 0
    assert calls == [(0, 2, 2, 4, 4)]
    out = json.loads(capsys.readouterr().out)
    assert out["max_query_vars"] == 4 and out["mismatches"] == []
    assert out["decided"] + out["undecided"] == 4 * out["compiles"] > 0


def _result(run_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": 20.0, "unit": "MB"}}}


def test_bench_pairs_summarizes_result_lines():
    pairs = [(_result(1.0), _result(0.8)), (_result(1.2), _result(0.9)),
             (_result(1.1), _result(1.3, failed=1)), (_result(1.4), None)]
    metrics = [{"name": "setup_s", "unit": "s"}, {"name": "run_s", "unit": "s"},
               {"name": "peak_rss_mb", "unit": "MB"}]
    assert bench_pairs.summarize(pairs, metrics) == {
        "run_s": {"unit": "s",
                  "parent": {"median": 1.15, "q1": 1.075, "q3": 1.25, "runs": 4},
                  "change": {"median": 0.9, "q1": 0.85, "q3": 1.1, "runs": 3},
                  "change_lower_in_pairs": "2/3"},
        "peak_rss_mb": {"unit": "MB",
                        "parent": {"median": 20.0, "q1": 20.0, "q3": 20.0, "runs": 4},
                        "change": {"median": 20.0, "q1": 20.0, "q3": 20.0, "runs": 3},
                        "change_lower_in_pairs": "0/3"},
        "all_runs_correct": False,
        "bad_runs": [{"pair": 3, "side": "change", "correct": True, "attempted": 4,
                      "failed": 1},
                     {"pair": 4, "side": "change", "result": None}],
    }


def test_bench_pairs_summarizes_one_correct_pair():
    summary = bench_pairs.summarize([(_result(1.0), _result(0.5))],
                                    [{"name": "run_s", "unit": "s"}])
    assert summary == {"run_s": {"unit": "s",
                                 "parent": {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": 1},
                                 "change": {"median": 0.5, "q1": 0.5, "q3": 0.5, "runs": 1},
                                 "change_lower_in_pairs": "1/1"},
                       "all_runs_correct": True}


def _pairs(parent, change):
    return list(zip(parent, change))


def test_bench_pairs_verdict_gain_needs_nine_pairs_in_ten_and_the_parent_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 0.82, 0.79]
    assert bench_pairs.verdict(_pairs(parent, faster), 0.25, "lower") == "gain"
    # the same values, read as a metric where higher is better
    assert bench_pairs.verdict(_pairs(faster, parent), 0.25, "higher") == "gain"
    # 8 of 10 pairs won is not a gain, and the medians are within the bound
    slower_twice = faster[:8] + [1.05, 1.06]
    assert bench_pairs.verdict(_pairs(parent, slower_twice), 0.25, "lower") == "level"
    # every pair won, by less than the parent's interquartile range (0.03)
    nudged = [p - 0.01 for p in parent]
    assert bench_pairs.verdict(_pairs(parent, nudged), 0.25, "lower") == "level"


def test_bench_pairs_verdict_names_a_layout_offset_level_and_a_regression_worse():
    parent = [0.50, 0.51, 0.49, 0.50, 0.50, 0.52, 0.49, 0.50, 0.51, 0.50]
    offset = [p * 1.07 for p in parent]  # a repeatable 7 % offset, inside a 0.25 bound
    assert bench_pairs.verdict(_pairs(parent, offset), 0.25, "lower") == "level"
    slower = [p * 1.3 for p in parent]
    assert bench_pairs.verdict(_pairs(parent, slower), 0.25, "lower") == "worse"
    fewer = [p * 0.7 for p in parent]
    assert bench_pairs.verdict(_pairs(parent, fewer), 0.25, "higher") == "worse"


def test_bench_pairs_verdict_is_unresolved_past_the_parent_spread_or_without_values():
    parent = [0.4, 1.0, 0.5, 0.9, 0.6, 0.8, 0.45, 0.95, 0.7, 0.55]  # IQR 0.33, median 0.65
    change = [p * 1.05 for p in parent]
    assert bench_pairs.verdict(_pairs(parent, change), 0.25, "lower") == "unresolved"
    assert bench_pairs.verdict([(1.0, None), (1.1, None)], 0.25, "lower") == "unresolved"


def test_bench_pairs_prints_a_verdict_per_reported_metric():
    pairs = [(_result(1.0), _result(0.5))] * 10
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    assert bench_pairs.verdicts(pairs, metrics) == {"run_s": "gain", "peak_rss_mb": "level"}


def test_bench_pairs_names_a_missing_checkout(tmp_path, capsys):
    repo = os.path.join(os.path.dirname(__file__), os.pardir)
    missing = tmp_path / "absent"
    argv = ["--parent", str(missing), "--change", repo, "--workload", "compile",
            "--seed", "1", "--pairs", "1", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [bench_pairs.USAGE, f"no benchmark/run.py under: {missing}"]
    assert err.startswith("usage: python tools/bench_pairs.py")


def test_bench_pairs_prints_usage_on_a_missing_option(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "."])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: python tools/bench_pairs.py")


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_FILES = sorted(f for f in os.listdir(ROOT) if f.startswith("BENCH_") and f.endswith(".json"))


@pytest.mark.parametrize("filename", BENCH_FILES)
def test_bench_files_carry_pair_spreads_in_the_tool_shape(filename):
    """Each BENCH_*.json names the change, the layer it moved, its parent and
    its method, and every end-to-end metric entry of each of its groups has
    the parent's and the change's spreads in ``bench_pairs.summarize``'s
    shape."""
    with open(os.path.join(ROOT, filename), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key in ("change", "layer_moved", "parent", "method"):
        assert isinstance(bench.get(key), str) and bench[key], key
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    shape = set(bench_pairs.spread([1.0, 2.0]))
    groups = bench.get("end_to_end")
    assert isinstance(groups, dict) and groups
    for group, entries in groups.items():
        found = [name for name in entries if name in metrics]
        assert found, group
        for name in found:
            entry = entries[name]
            assert set(entry) == {"unit", "parent", "change", "change_lower_in_pairs"}, (group, name)
            assert entry["unit"] == metrics[name], (group, name)
            for side in ("parent", "change"):
                spread = entry[side]
                assert set(spread) == shape, (group, name, side)
                assert isinstance(spread["runs"], int) and spread["runs"] > 0, (group, name, side)
                assert spread["q1"] <= spread["median"] <= spread["q3"], (group, name, side)
            lower, pairs = map(int, entry["change_lower_in_pairs"].split("/"))
            assert 0 <= lower <= pairs, (group, name)
