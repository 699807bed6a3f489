"""Command-line surface: pipelines, exit codes, deterministic output."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import gnfkit
from gnfkit.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main
from gnfkit.syntax import parse_instance

EX_THEORY = """\
rel R/2.
rel U/1.
rel S/2.
rel T/1.
tgd R(x,y), U(y) -> U(x).
tgd U(x) -> exists z: S(x,z).
tgd S(x,y) -> T(x).
"""

EX_INSTANCE = "R(a,b). U(b).\n"

C3 = "E(n1,n2). E(n2,n3). E(n3,n1).\n"
C4 = "E(n1,n2). E(n2,n3). E(n3,n4). E(n4,n1).\n"

Q_TRI = "exists x,y,z: E(x,y), E(y,z), E(z,x)"


@pytest.fixture
def ex_files(tmp_path):
    theory = tmp_path / "ex.gdt"
    inst = tmp_path / "ex.gdi"
    theory.write_text(EX_THEORY)
    inst.write_text(EX_INSTANCE)
    return str(theory), str(inst)


def run_cli(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# the running-example pipeline


def test_certain_running_example(capsys, ex_files):
    theory, inst = ex_files
    rc, out = run_cli(capsys, "certain", "--theory", theory,
                      "--instance", inst, "--query", "T(x)")
    assert rc == EXIT_OK
    assert "complete: yes" in out
    assert "T: a, b" in out


def test_chase_running_example(capsys, ex_files):
    theory, inst = ex_files
    rc, out = run_cli(capsys, "chase", "--theory", theory, "--instance", inst)
    assert rc == EXIT_OK
    assert "status: terminated" in out
    body = out.split("\n\n", 1)[1]
    result = parse_instance(body)
    names = {(f.rel, tuple(v.name for v in f.args)) for f in result.facts}
    assert ("U", ("a",)) in names and ("T", ("a",)) in names and ("T", ("b",)) in names


def test_rewrite_then_eval_datalog(capsys, ex_files, tmp_path):
    theory, inst = ex_files
    rc, out = run_cli(capsys, "rewrite", "--mode", "cq",
                      "--theory", theory, "--query", "T(x)")
    assert rc == EXIT_OK
    assert "completeness: complete_within_caps" in out
    goal = next(line.split(": ")[1] for line in out.splitlines()
                if line.startswith("goal: "))
    program_text = out.split("\n\n", 1)[1]
    prog_file = tmp_path / "ex.gdl"
    prog_file.write_text(program_text)
    rc2, out2 = run_cli(capsys, "eval-datalog", "--program", str(prog_file),
                        "--instance", inst)
    assert rc2 == EXIT_OK
    assert f"{goal}: a, b" in out2


def test_rewrite_fg_on_a_guarded_theory_prints_the_cq_program(capsys, ex_files):
    theory, _ = ex_files
    outs = [run_cli(capsys, "rewrite", "--mode", mode, "--theory", theory, "--query", "T(x)")
            for mode in ("cq", "fg")]
    assert outs[0] == outs[1]
    assert "goal: Goal\n" in outs[1][1]


def test_rewrite_rejects_a_negative_max_vars(capsys, ex_files):
    # a negative k is a bad argument, not a budget that ran out (exit 2)
    theory, _ = ex_files
    rc, out = run_cli(capsys, "rewrite", "--mode", "cq", "--max-vars", "-1",
                      "--theory", theory, "--query", "T(x)")
    assert rc == EXIT_PRECONDITION
    assert out == ""


REWRITE_ARGS = ["rewrite", "--mode", "atomic", "--theory", "ex.gdt", "--query", "T(x)"]


@pytest.mark.parametrize("argv", [REWRITE_ARGS + ["--bogus"], ["chase", "--max-rounds", "x"],
                                  ["no-such-command"], REWRITE_ARGS + ["--jobs", "2"]],
                         ids=["unknown-option", "bad-int", "unknown-command", "rewrite-jobs"])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own exit code, 2, means here that a budget ran out
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_PRECONDITION
    assert out == "" and err.startswith("usage: gnfkit")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rewrite", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_OK
    assert out.startswith("usage: gnfkit rewrite") and err == ""
    assert "--jobs" not in out


def test_importing_the_cli_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(gnfkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, gnfkit.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout == "[]\n"


def test_rewrite_atomic_rejects_non_atomic_query(capsys, ex_files):
    theory, _ = ex_files
    rc, _ = run_cli(capsys, "rewrite", "--mode", "atomic",
                    "--theory", theory, "--query", "ans(x) :- S(x,y), T(x).")
    assert rc == EXIT_PRECONDITION


def test_chase_budget_exit(capsys, tmp_path):
    theory = tmp_path / "chain.gdt"
    theory.write_text("tgd A(x) -> exists y: R(x,y). tgd R(x,y) -> A(y).")
    inst = tmp_path / "chain.gdi"
    inst.write_text("A(a).")
    rc, out = run_cli(capsys, "chase", "--theory", str(theory),
                      "--instance", str(inst), "--max-rounds", "3")
    assert rc == EXIT_BUDGET
    assert "status: budget_exhausted" in out


# ---------------------------------------------------------------------------
# evaluation and classification


def test_eval_cq_triangle(capsys, tmp_path):
    c3 = tmp_path / "c3.gdi"
    c4 = tmp_path / "c4.gdi"
    c3.write_text(C3)
    c4.write_text(C4)
    rc, out = run_cli(capsys, "eval-cq", "--query", Q_TRI, "--instance", str(c3))
    assert rc == EXIT_OK and "answers: true" in out
    rc, out = run_cli(capsys, "eval-cq", "--query", Q_TRI, "--instance", str(c4))
    assert rc == EXIT_OK and "answers: false" in out


def test_eval_cq_tuples_sorted(capsys, tmp_path):
    inst = tmp_path / "i.gdi"
    inst.write_text("E(b,c). E(a,b).")
    rc, out = run_cli(capsys, "eval-cq", "--query", "E(x,y)", "--instance", str(inst))
    assert rc == EXIT_OK
    assert "E: (a,b), (b,c)" in out


def test_classify_theory(capsys, ex_files):
    theory, _ = ex_files
    rc, out = run_cli(capsys, "classify", "--theory", theory)
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("rule ")]) == 3
    assert all("guarded=yes" in l for l in lines if l.startswith("rule "))
    assert "theory: guarded=yes frontier_guarded=yes" in out


def test_classify_program(capsys, tmp_path):
    prog = tmp_path / "p.gdl"
    prog.write_text("edb R/2. edb U/1. goal G/1.\n"
                    "G(x) :- U(x). G(x) :- R(x,y), G(y).")
    rc, out = run_cli(capsys, "classify", "--program", str(prog))
    assert rc == EXIT_OK
    assert "program: guarded=yes" in out


def test_classify_formula(capsys):
    rc, out = run_cli(capsys, "classify", "--formula", "exists x. (U(x) & !V(x))")
    assert rc == EXIT_OK
    assert "formula: gnf=yes" in out
    rc, out = run_cli(capsys, "classify", "--formula", "forall x. U(x)")
    assert rc == EXIT_OK
    assert "gnf=no gfo=yes" in out


def test_classify_needs_exactly_one_input(capsys, ex_files):
    theory, _ = ex_files
    rc, _ = run_cli(capsys, "classify", "--theory", theory, "--formula", "U(x)")
    assert rc == EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# bisimulation, product, squid, treeify, specialize, countermodel


def test_bisim_guarded_cycles(capsys, tmp_path):
    c3 = tmp_path / "c3.gdi"
    c4 = tmp_path / "c4.gdi"
    c3.write_text(C3)
    c4.write_text(C4)
    rc, out = run_cli(capsys, "bisim", "--kind", "guarded",
                      "--left", str(c3), "--right", str(c4))
    assert rc == EXIT_OK and "witness: found" in out
    rc, out = run_cli(capsys, "bisim", "--kind", "strong-gn",
                      "--left", str(c3), "--right", str(c4))
    assert rc == EXIT_OK and "witness: none" in out
    rc, _ = run_cli(capsys, "bisim", "--kind", "strong-gn",
                    "--left", str(c3), "--right", str(c4), "--max-size", "2")
    assert rc == EXIT_BUDGET


def test_rewrite_compiles_a_four_atom_cycle_complete(capsys, tmp_path):
    # the default k is the query's 4 variables, and one goal rule joins the
    # four edges
    theory = tmp_path / "e.gdt"
    theory.write_text("rel E/2.\n")
    rc, out = run_cli(capsys, "rewrite", "--mode", "cq", "--theory", str(theory),
                      "--query", "exists x,y,z,w: E(x,y), E(y,z), E(z,w), E(w,x)")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "completeness: complete_within_caps"


def test_bisim_signature_mismatch(capsys, tmp_path):
    a = tmp_path / "a.gdi"
    b = tmp_path / "b.gdi"
    a.write_text("E(x,y).")
    b.write_text("U(x).")
    rc, _ = run_cli(capsys, "bisim", "--kind", "guarded",
                    "--left", str(a), "--right", str(b))
    assert rc == EXIT_PRECONDITION


def test_product(capsys, tmp_path):
    c3 = tmp_path / "c3.gdi"
    c3.write_text(C3)
    rc, out = run_cli(capsys, "product", "--left", str(c3), "--right", str(c3))
    assert rc == EXIT_OK
    assert "facts: 9" in out
    assert parse_instance(out.split("\n\n", 1)[1]).sig.arities == {"E": 2}


def test_squid(capsys, tmp_path):
    base = tmp_path / "base.gdi"
    ext = tmp_path / "ext.gdi"
    base.write_text("E(a,b).")
    ext.write_text("E(a,b). E(b,c).")
    rc, out = run_cli(capsys, "squid", "--base", str(base), "--extension", str(ext))
    assert rc == EXIT_OK
    assert "check: ok" in out


def test_treeify_triangle(capsys, tmp_path):
    theory = tmp_path / "edge.gdt"
    theory.write_text("rel R/2.")
    rc, out = run_cli(capsys, "treeify",
                      "--query", "ans() :- R(x,y), R(y,z), R(z,x).",
                      "--max-atoms", "3", "--max-vars", "3",
                      "--theory", str(theory))
    assert rc == EXIT_OK
    assert "members: 1" in out
    assert "ans() :- R(v0,v0)." in out  # canonical serialization of exists x: R(x,x)


def test_treeify_requires_answer_guarded(capsys):
    rc, _ = run_cli(capsys, "treeify", "--query", "ans(x,y) :- R(x,z), R(z,y).",
                    "--max-atoms", "2", "--max-vars", "3")
    assert rc == EXIT_PRECONDITION


def test_specialize(capsys, tmp_path):
    theory = tmp_path / "t.gdt"
    theory.write_text("tgd R(x,y), U(y) -> U(x).")
    rc, out = run_cli(capsys, "specialize", "--theory", str(theory))
    assert rc == EXIT_OK
    assert "failed: 0" in out
    assert "tgd " in out


@pytest.mark.parametrize("theory,rule", [
    ("rel U/1. rel R/2.\ntgd U(v0) -> exists z: R(v0,z).",
     "tgd U(v0) -> exists v1: R(v0,v1)."),
    ("rel U/1. rel R/2. rel S/1.\ntgd U(x), S(v0) -> exists z: R(x,z).",
     "tgd S(v0), U(x) -> exists v1: R(x,v1)."),
], ids=["frontier-variable", "body-only-variable"])
def test_specialize_never_renames_onto_a_rule_variable(capsys, tmp_path, theory, rule):
    path = tmp_path / "t.gdt"
    path.write_text(theory)
    rc, out = run_cli(capsys, "specialize", "--theory", str(path))
    assert rc == EXIT_OK
    assert rule in out.splitlines()


def test_treeify_never_renames_onto_an_answer_variable(capsys):
    rc, out = run_cli(capsys, "treeify", "--query", "exists y: R(v0,y), S(y)",
                      "--max-atoms", "2", "--max-vars", "2")
    assert rc == EXIT_OK
    assert out.splitlines() == ["members: 1", "ans(v0) :- R(v0,v1), S(v1)."]


def test_search_countermodel(capsys):
    rc, out = run_cli(capsys, "search-countermodel", "--formula", "forall x. U(x)",
                      "--max-size", "3")
    assert rc == EXIT_OK
    assert "countermodel: found" in out
    rc, out = run_cli(capsys, "search-countermodel",
                      "--formula", "!(exists x. (U(x) & !U(x)))", "--max-size", "3")
    assert rc == EXIT_BUDGET
    assert "countermodel: none within size 3" in out


# the sentences of benchmark/inputs/sentences.txt, with their stdout at size 3
PINNED_COUNTERMODEL_STDOUT = {
    "!(exists x. exists y. E(x,y) & !E(x,y))": "countermodel: none within size 3\n",
    "(exists x. P(x)) | !(exists x. P(x))": "countermodel: none within size 3\n",
    "!(exists x. exists y. E(x,y) & P(x) & !(exists z. E(x,z)))":
        "countermodel: none within size 3\n",
    "exists x. E(x,x)": "countermodel: found\ndomain: e1\n\nrel E/2.\n",
    "!(exists x. exists y. E(x,y) & !E(y,x))":
        "countermodel: found\ndomain: e1, e2\n\nrel E/2.\nE(e1,e2).\n",
    "exists x. exists y. E(x,y) & P(y) & !P(x)":
        "countermodel: found\ndomain: e1\n\nrel E/2.\nrel P/1.\n",
    "!(exists x. P(x) & !(exists y. E(x,y) & P(y)))":
        "countermodel: found\ndomain: e1\n\nrel E/2.\nrel P/1.\nP(e1).\n",
}


@pytest.mark.parametrize("sentence", list(PINNED_COUNTERMODEL_STDOUT))
def test_search_countermodel_output_is_pinned(capsys, sentence):
    rc, out = run_cli(capsys, "search-countermodel", "--formula", sentence, "--max-size", "3")
    assert out == PINNED_COUNTERMODEL_STDOUT[sentence]
    assert rc == (EXIT_OK if "found" in out else EXIT_BUDGET)


def test_search_countermodel_rejects_open_formula(capsys):
    rc, _ = run_cli(capsys, "search-countermodel", "--formula", "U(x)")
    assert rc == EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# error channels and determinism


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gdt"
    bad.write_text("tgd R(x,y -> U(x).")
    inst = tmp_path / "i.gdi"
    inst.write_text("R(a,b).")
    rc, _ = run_cli(capsys, "chase", "--theory", str(bad), "--instance", str(inst))
    assert rc == EXIT_PARSE


@pytest.mark.parametrize("theory, position", [
    ("const c.\ntgd U(x) -> exists c: R(x,c).", "2:20"),  # binder named like a constant
    ("rel R/2. const R.\ntgd R(x,y) -> R(y,x).", "1:16"),  # constant named like a relation
], ids=["binder", "constant"])
def test_name_clashes_in_a_theory_are_parse_errors(capsys, tmp_path, theory, position):
    path = tmp_path / "t.gdt"
    path.write_text(theory)
    inst = tmp_path / "i.gdi"
    inst.write_text("U(a).")
    rc = main(["chase", "--theory", str(path), "--instance", str(inst)])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE
    assert captured.out == ""
    assert f"parse error: {position}: " in captured.err


def test_missing_file_is_precondition(capsys, tmp_path):
    inst = tmp_path / "i.gdi"
    inst.write_text("R(a,b).")
    rc, _ = run_cli(capsys, "chase", "--theory", str(tmp_path / "nope.gdt"),
                    "--instance", str(inst))
    assert rc == EXIT_PRECONDITION


def test_subprocess_determinism(tmp_path):
    theory = tmp_path / "ex.gdt"
    inst = tmp_path / "ex.gdi"
    theory.write_text(EX_THEORY)
    inst.write_text(EX_INSTANCE)
    cmd = [sys.executable, "-m", "gnfkit.cli", "certain", "--theory", str(theory),
           "--instance", str(inst), "--query", "T(x)"]
    # the child imports the same gnfkit as this process, also when pytest
    # itself put it on the path
    src = os.path.dirname(os.path.dirname(gnfkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # under two hash seeds: no output may depend on how strings hash
    first, second = (subprocess.run(cmd, capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
                     for seed in ("1", "2"))
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "T: a, b" in first.stdout
    assert "time:" in first.stderr
