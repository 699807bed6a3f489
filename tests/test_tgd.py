"""Tests for TGD classes, head decomposition, and specialization to guarded shapes."""

from __future__ import annotations

import random

import pytest

from gnfkit.model import Signature
from gnfkit.query import Atom, ConjunctiveQuery, Var, atom, cq, cst
from gnfkit.tgd import (
    DisjunctiveTgd,
    Tgd,
    canonical_tgd,
    classify,
    decompose_components,
    disjunctive_holds_in,
    holds_in,
    is_quasi_frontier_guarded,
    make_tgd,
    select_disjunct,
    specialize_to_fg,
    specializations,
    tgd_graph,
    tgd_signature,
    to_acyclic_fg,
)

from randgen import random_guarded_tgd, random_instance, random_signature
from shapes import cycle, path


# ---------------------------------------------------------------- construction


def test_make_tgd_infers_frontier_and_existentials():
    t = make_tgd([atom("R", "x", "y")], [atom("S", "y", "z")])
    assert t.body.free_vars == ("x", "y")
    assert t.frontier() == ("y",)
    assert t.head.exist_vars == ("z",)
    assert str(t) == "R(x,y) -> exists z: S(y,z)"


def test_tgd_validation():
    body = cq(["x"], [atom("U", "x")])
    with pytest.raises(ValueError):
        Tgd(cq([], [atom("U", "x")]), body)  # quantified body
    with pytest.raises(ValueError):
        Tgd(body, cq(["y"], [atom("U", "y")]))  # frontier not in body
    with pytest.raises(ValueError):
        Tgd(body, cq(["x"], [atom("R", "x", "x")] if False else []))  # empty head


def test_tgd_signature_collects_all_relations():
    t = make_tgd([atom("R", "x", "y")], [atom("S", "y", "z")])
    sig = tgd_signature([t])
    assert sig.arities == {"R": 2, "S": 2}
    with pytest.raises(ValueError):
        tgd_signature([])


# ---------------------------------------------------------------- classification


def test_classify_guarded_existential_rule():
    t = make_tgd([atom("U", "x")], [atom("S", "x", "z")])
    c = classify(t)
    assert not c.full
    assert c.guarded and c.frontier_guarded and c.acyclic_frontier_guarded
    assert c.quasi_frontier_guarded


def test_classify_frontier_guarded_but_not_guarded():
    t = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")], [atom("U", "x")])
    c = classify(t)
    assert c.full
    assert not c.guarded
    assert c.frontier_guarded and c.acyclic_frontier_guarded


def test_classify_unguarded_frontier():
    t = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")], [atom("T", "x", "z")])
    c = classify(t)
    assert c.full
    assert not c.guarded and not c.frontier_guarded
    assert not c.quasi_frontier_guarded


def test_classify_quasi_frontier_guarded_but_not_frontier_guarded():
    t = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                 [atom("U", "x"), atom("U", "z")])
    c = classify(t)
    assert not c.frontier_guarded
    assert c.quasi_frontier_guarded


def test_classify_cyclic_body_is_not_acyclic_frontier_guarded():
    t = make_tgd([atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")],
                 [atom("U", "x")])
    c = classify(t)
    assert c.frontier_guarded
    assert not c.acyclic_frontier_guarded


# ---------------------------------------------------------------- decomposition


def test_head_components_split_on_shared_existentials():
    t = make_tgd([atom("U", "x")],
                 [atom("S", "x", "z"), atom("S", "z", "w"), atom("T", "x")])
    assert tgd_graph(t) == [(0, 1)]
    parts = decompose_components(t)
    assert len(parts) == 2
    strs = sorted(str(p) for p in parts)
    assert strs == ["U(x) -> T(x)", "U(x) -> exists z,w: S(x,z), S(z,w)"]


def test_decomposition_preserves_satisfaction():
    rng = random.Random(53)
    t = make_tgd([atom("E", "x", "y")],
                 [atom("E", "y", "z"), atom("E", "z", "w"), atom("E", "x", "x")])
    parts = decompose_components(t)
    for _ in range(40):
        i = random_instance(rng, Signature([("E", 2)]), max_elems=4, max_facts=9)
        assert holds_in(t, i) == all(holds_in(p, i) for p in parts)


def test_quasi_frontier_guardedness_direct():
    ok = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                  [atom("U", "x"), atom("U", "z")])
    assert is_quasi_frontier_guarded(ok)
    bad = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                   [Atom("S", (Var("x"), Var("w"))), Atom("S", (Var("z"), Var("w")))])
    assert not is_quasi_frontier_guarded(bad)


# ---------------------------------------------------------------- model checking


def test_holds_in_cycle_but_not_path():
    t = make_tgd([atom("E", "x", "y")], [atom("E", "y", "z")])
    assert holds_in(t, cycle(3))
    assert not holds_in(t, path(2))


def test_disjunctive_holds_in():
    body = cq(["x", "y"], [atom("E", "x", "y")])
    d = DisjunctiveTgd(body, (cq(["y"], [atom("E", "y", "z")]),
                              cq(["x"], [atom("E", "x", "x")])))
    assert disjunctive_holds_in(d, cycle(3))
    assert not disjunctive_holds_in(d, path(3))


# ---------------------------------------------------------------- canonical form


def test_canonical_tgd_identifies_alphabetic_variants():
    t1 = make_tgd([atom("U", "x")], [atom("S", "x", "z"), atom("T", "z", "w")])
    t2 = make_tgd([atom("U", "x")], [atom("S", "x", "w"), atom("T", "w", "v")])
    assert str(canonical_tgd(t1)) == str(canonical_tgd(t2))


# ---------------------------------------------------------------- specialization


def test_specializations_pin_existentials():
    t = make_tgd([atom("U", "x")], [atom("R", "x", "z")])
    out = specializations(t, constants=["c"])
    strs = sorted(str(s) for s in out)
    assert strs == [
        "U(x) -> R(x,c)",
        "U(x) -> R(x,x)",
        "U(x) -> exists v0: R(x,v0)",
    ]


def test_specializations_entail_the_original():
    rng = random.Random(59)
    for _ in range(25):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        t = random_guarded_tgd(rng, sig)
        specs = specializations(t)
        for _ in range(5):
            i = random_instance(rng, sig, max_elems=3, max_facts=6)
            for s in specs:
                if holds_in(s, i):
                    assert holds_in(t, i)


def test_select_disjunct_picks_an_entailed_head():
    rules = [make_tgd([atom("A", "x")], [atom("B", "x")])]
    d = DisjunctiveTgd(cq(["x"], [atom("A", "x")]),
                       (cq(["x"], [atom("C", "x")]), cq(["x"], [atom("B", "x")])))
    assert select_disjunct(rules, d) == 1
    d2 = DisjunctiveTgd(cq(["x"], [atom("A", "x")]),
                        (cq(["x"], [atom("C", "x")]),))
    assert select_disjunct(rules, d2) is None


def test_select_disjunct_skips_a_head_over_other_variables():
    # B(y) would be entailed if y were read as existential, but y is an
    # answer variable that the body does not bind
    rules = [make_tgd([atom("A", "x")], [atom("B", "w")])]
    d = DisjunctiveTgd(cq(["x"], [atom("A", "x")]), (cq(["y"], [atom("B", "y")]),))
    assert select_disjunct(rules, d) is None


def test_select_disjunct_keeps_freshened_existentials_apart():
    # z clashes with a body variable; its fresh name must not be z0, the other existential
    rules = [make_tgd([atom("A", "x"), atom("B", "z")],
                      [atom("R", "x", "u"), atom("S", "u", "w")])]
    d = DisjunctiveTgd(cq(["x", "z"], [atom("A", "x"), atom("B", "z")]),
                       (cq(["x"], [atom("R", "x", "z"), atom("S", "z", "z0")]),))
    assert select_disjunct(rules, d) == 0


def test_specialize_to_fg_pins_shared_existential_to_a_constant():
    # S(x,c) is derivable for every A-element, so the shared witness can be pinned to c
    sigma_c = make_tgd([atom("A", "x")], [Atom("S", (Var("x"), cst("c")))])
    sigma_nq = make_tgd([atom("A", "x"), atom("A", "z")],
                        [Atom("S", (Var("x"), Var("w"))), Atom("S", (Var("z"), Var("w")))])
    assert not is_quasi_frontier_guarded(sigma_nq)
    res = specialize_to_fg([sigma_c, sigma_nq], constants=["c"])
    assert res.ok
    assert all(classify(t).frontier_guarded for t in res.rules)
    assert len(res.rules) == 3


def test_specialize_to_fg_reports_failures():
    sigma_nq = make_tgd([atom("A", "x"), atom("A", "z")],
                        [Atom("S", (Var("x"), Var("w"))), Atom("S", (Var("z"), Var("w")))])
    res = specialize_to_fg([sigma_nq])
    assert not res.ok
    assert res.failed == [sigma_nq]


# ---------------------------------------------------------------- acyclic rewriting


def test_to_acyclic_fg_keeps_acyclic_rules():
    t = make_tgd([atom("U", "x")], [atom("S", "x", "z")])
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert res.ok and res.rules == [t] and not res.capped


def test_to_acyclic_fg_rewrites_a_cyclic_body():
    t = make_tgd([atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")],
                 [atom("T", "x")])
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert res.ok
    # the weakest acyclic body entailing "x lies on a triangle" within the bounds:
    # a loop element seen from x in both directions (strictly weaker than E(x,x))
    assert [str(r) for r in res.rules] == ["E(v0,v0), E(v0,x), E(x,v0) -> T(x)"]
    assert all(classify(r).acyclic_frontier_guarded for r in res.rules)
    # soundness: every model of the original rule satisfies the rewritten one
    rng = random.Random(61)
    sig = Signature([("E", 2), ("T", 1)])
    for _ in range(40):
        i = random_instance(rng, sig, max_elems=4, max_facts=9)
        if holds_in(t, i):
            assert all(holds_in(r, i) for r in res.rules)


def test_to_acyclic_fg_flags_non_frontier_guarded_rules():
    t = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")], [atom("T", "x", "z")])
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert not res.ok and res.failed == [t]


def test_to_acyclic_fg_fails_when_no_acyclic_head_is_entailed():
    # the head's acyclic approximations all need a loop, which the chase of
    # U(x) never builds: no disjunct is entailed, and no cap decided that
    t = make_tgd([atom("U", "x")], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")])
    assert not classify(t).acyclic_frontier_guarded
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert res.failed == [t] and res.rules == [] and not res.capped


def test_to_acyclic_fg_fails_a_head_that_is_not_answer_guarded_without_capping():
    # frontier-guarded by G, but no head atom holds both x and y
    t = make_tgd([atom("G", "x", "y", "w")], [atom("R", "x", "z"), atom("S", "y", "z")])
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert res.rules == [] and res.failed == [t] and not res.capped


def test_to_acyclic_fg_fails_a_rule_with_a_constant_without_capping():
    # treeify has no member for a query with a constant, at any bound
    t = make_tgd([atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")],
                 [Atom("T", (Var("x"), cst("c")))])
    res = to_acyclic_fg([t], max_atoms=3, max_vars=3)
    assert res.rules == [] and res.failed == [t] and not res.capped


def test_to_acyclic_fg_reports_capping():
    t = make_tgd([atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")],
                 [atom("S", "x", "y")])
    res = to_acyclic_fg([t], max_atoms=2, max_vars=1)
    assert not res.ok and res.capped
