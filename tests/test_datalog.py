"""Tests for Datalog programs: validation, guard classes, fixpoint evaluation."""

from __future__ import annotations

import random

import pytest

from gnfkit.datalog import (
    DatalogProgram,
    Rule,
    classify_datalog,
    eval_datalog,
    eval_datalog_fixpoint,
)
from gnfkit.model import Fact, Instance, Signature, const, elem
from gnfkit.query import Atom, Cst, Var, atom

from oracles import naive_eval_datalog
from randgen import random_datalog_program, random_instance
from shapes import path

EDB_EX = Signature([("R", 2), ("U", 1), ("S", 2), ("T", 1)])
IDB_EX = Signature([("UReach", 1), ("Goal", 1)])

P_EX = DatalogProgram(
    EDB_EX,
    IDB_EX,
    (
        Rule(atom("UReach", "x"), (atom("U", "x"),)),
        Rule(atom("UReach", "x"), (atom("R", "x", "y"), atom("UReach", "y"))),
        Rule(atom("Goal", "x"), (atom("UReach", "x"),)),
        Rule(atom("Goal", "x"), (atom("T", "x"),)),
        Rule(atom("Goal", "x"), (atom("S", "x", "y"),)),
    ),
    "Goal",
)

I_EX = Instance(EDB_EX, [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])


# ---------------------------------------------------------------- validation


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule(atom("G", "x"), ())
    with pytest.raises(ValueError):
        Rule(atom("G", "z"), (atom("E", "x", "y"),))
    r = Rule(atom("G", "x"), (atom("E", "x", "y"),))
    assert str(r) == "G(x) :- E(x,y)."


def test_program_validation():
    edb = Signature([("E", 2)])
    idb = Signature([("G", 1)])
    rules = (Rule(atom("G", "x"), (atom("E", "x", "y"),)),)
    with pytest.raises(ValueError):
        DatalogProgram(edb, Signature([("E", 1), ("G", 1)]), rules, "G")  # overlap
    with pytest.raises(ValueError):
        DatalogProgram(edb, idb, rules, "H")  # goal not idb
    with pytest.raises(ValueError):
        DatalogProgram(edb, idb, (Rule(atom("E", "x", "x"), (atom("G", "x"),)),), "G")
    with pytest.raises(ValueError):
        DatalogProgram(edb, idb, (Rule(atom("G", "x"), (atom("F", "x"),)),), "G")


def test_goal_may_feed_other_rules():
    edb = Signature([("E", 2)])
    idb = Signature([("G", 1), ("H", 1)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("G", "x"), (atom("E", "x", "y"),)),
        Rule(atom("H", "x"), (atom("G", "x"),)),
    ), "G")
    i = Instance(edb, [Fact("E", (elem("a"), elem("b")))])
    assert eval_datalog(p, i) == {(elem("a"),)}


# ---------------------------------------------------------------- the worked program


def test_worked_program_answers():
    assert eval_datalog(P_EX, I_EX) == {(elem("a"),), (elem("b"),)}
    fix = eval_datalog_fixpoint(P_EX, I_EX)
    assert fix["UReach"] == {(elem("a"),), (elem("b"),)}


def test_worked_program_uses_every_goal_route():
    i = Instance(EDB_EX, [
        Fact("R", (elem("a"), elem("b"))),
        Fact("U", (elem("b"),)),
        Fact("T", (elem("c"),)),
        Fact("S", (elem("d"), elem("e"))),
    ])
    assert eval_datalog(P_EX, i) == {(elem(x),) for x in "abcd"}


def test_worked_program_is_guarded():
    c = classify_datalog(P_EX)
    assert c.guarded and c.internally_guarded and c.frontier_guarded


# ---------------------------------------------------------------- guard classes


def test_internally_guarded_but_not_guarded():
    edb = Signature([("E", 2)])
    idb = Signature([("G", 2)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("G", "x", "z"), (atom("E", "x", "y"), atom("E", "y", "z"))),
    ), "G")
    c = classify_datalog(p)
    assert not c.guarded
    assert c.internally_guarded  # the only unguarded rule is goal-headed
    assert not c.frontier_guarded


def test_frontier_guarded_but_not_internally_guarded():
    edb = Signature([("E", 2)])
    idb = Signature([("I", 1), ("G", 1)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("I", "x"), (atom("E", "x", "y"), atom("E", "y", "z"))),
        Rule(atom("G", "x"), (atom("I", "x"),)),
    ), "G")
    c = classify_datalog(p)
    assert not c.guarded
    assert not c.internally_guarded
    assert c.frontier_guarded


def test_idb_atoms_are_eligible_guards():
    edb = Signature([("E", 2)])
    idb = Signature([("I", 1), ("G", 1)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("I", "x"), (atom("E", "x", "x"),)),
        Rule(atom("G", "x"), (atom("I", "x"),)),
    ), "G")
    assert classify_datalog(p).guarded


# ---------------------------------------------------------------- evaluation


def test_transitive_closure():
    edb = Signature([("E", 2)])
    idb = Signature([("Tc", 2)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("Tc", "x", "y"), (atom("E", "x", "y"),)),
        Rule(atom("Tc", "x", "z"), (atom("E", "x", "y"), atom("Tc", "y", "z"))),
    ), "Tc")
    got = eval_datalog(p, path(4))
    want = {(elem(f"p{i}"), elem(f"p{j}")) for i in range(1, 5) for j in range(i + 1, 5)}
    assert got == want
    # deep recursion: closure of a 20-element chain
    assert len(eval_datalog(p, path(20))) == 19 * 20 // 2


def test_rule_with_two_idb_atoms():
    edb = Signature([("E", 2)])
    idb = Signature([("Tc", 2), ("Mutual", 2)])
    p = DatalogProgram(edb, idb, (
        Rule(atom("Tc", "x", "y"), (atom("E", "x", "y"),)),
        Rule(atom("Tc", "x", "z"), (atom("E", "x", "y"), atom("Tc", "y", "z"))),
        Rule(atom("Mutual", "x", "y"), (atom("Tc", "x", "y"), atom("Tc", "y", "x"))),
    ), "Mutual")
    from shapes import cycle

    got = eval_datalog(p, cycle(3))
    assert len(got) == 9  # every ordered pair of a 3-cycle is mutually reachable


def test_constants_in_heads_and_bodies():
    edb = Signature([("E", 2)], ("c",))
    idb = Signature([("G", 1), ("Hit", 1)])
    p = DatalogProgram(edb, idb, (
        Rule(Atom("G", (Cst("c"),)), (atom("E", "x", "y"),)),
        Rule(atom("Hit", "x"), (Atom("E", (Cst("c"), Var("x"))),)),
    ), "G")
    i = Instance(edb, [Fact("E", (const("c"), elem("a")))])
    fix = eval_datalog_fixpoint(p, i)
    assert fix["G"] == {(const("c"),)}
    assert fix["Hit"] == {(elem("a"),)}
    empty = Instance(edb, [])
    assert eval_datalog(p, empty) == set()


def test_ruleless_program_derives_nothing():
    p = DatalogProgram(Signature([("E", 2)]), Signature([("G", 1)]), (), "G")
    i = Instance(Signature([("E", 2)]), [Fact("E", (elem("a"), elem("b")))])
    assert eval_datalog(p, i) == set()


def test_instance_signature_must_cover_the_edb():
    p = DatalogProgram(Signature([("E", 2)]), Signature([("G", 1)]),
                       (Rule(atom("G", "x"), (atom("E", "x", "y"),)),), "G")
    bad = Instance(Signature([("E", 1)]), [Fact("E", (elem("a"),))])
    with pytest.raises(ValueError):
        eval_datalog(p, bad)


# ---------------------------------------------------------------- oracle agreement


def test_semi_naive_agrees_with_naive_on_random_programs():
    rng = random.Random(71)
    for _ in range(200):
        p, i = random_datalog_program(rng)
        assert eval_datalog_fixpoint(p, i) == naive_eval_datalog(p, i)


def test_evaluation_is_monotone_in_the_input():
    rng = random.Random(73)
    for _ in range(60):
        p, i = random_datalog_program(rng)
        extra = random_instance(rng, p.edb, max_elems=4, max_facts=4)
        bigger = Instance(p.edb, i.facts | extra.facts)
        assert eval_datalog(p, i) <= eval_datalog(p, bigger)
