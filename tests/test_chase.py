"""Tests for the chase engine: rounds, termination, entailment oracle, saturation."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import gnfkit
from gnfkit.chase import (
    BUDGET_EXHAUSTED,
    NO,
    TERMINATED,
    UNKNOWN,
    YES,
    ChaseConfig,
    TypeClosure,
    chase,
    chase_entails_cq,
    entails_tgd,
    is_fact_saturated,
    is_guardedly_fact_saturated,
    tentacle_decomposition,
)
from gnfkit.model import (
    Fact,
    Instance,
    Signature,
    active_domain,
    const,
    elem,
    null,
    serialize_facts,
    squid_check,
    weak_substructure,
)
from gnfkit.query import Atom, Cst, Var, atom, canon_inst, cq, query_signature
from gnfkit.rewrite import _derivation_space, _prepare
from gnfkit.tgd import all_hold_in, classify, make_tgd, tgd_signature

from corpus import COMPILE_QUERIES, PROBLEMS, compile_problem

from oracles import naive_chase
from randgen import (random_frontier_guarded_tgd, random_full_tgd, random_guarded_tgd,
                     random_instance, random_signature)

SIG_EX = Signature([("R", 2), ("U", 1), ("S", 2), ("T", 1)])

RULES_EX = [
    make_tgd([atom("R", "x", "y"), atom("U", "y")], [atom("U", "x")]),
    make_tgd([atom("U", "x")], [atom("S", "x", "z")]),
    make_tgd([atom("S", "x", "y")], [atom("T", "x")]),
]

I_EX = Instance(SIG_EX, [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])


def chase_ex():
    return chase(I_EX, RULES_EX)


# ---------------------------------------------------------------- the worked run


def test_chase_terminates_with_the_expected_facts():
    res = chase_ex()
    assert res.status == TERMINATED
    assert res.rounds_executed == 3
    assert serialize_facts(res.result) == (
        "R(a,b). S(a,_n2). S(b,_n1). T(a). T(b). U(a). U(b)."
    )


def test_chase_result_extends_input_and_models_the_rules():
    res = chase_ex()
    assert weak_substructure(I_EX, res.result)
    assert all_hold_in(RULES_EX, res.result)


def test_chase_is_deterministic():
    a = chase_ex()
    b = chase_ex()
    assert serialize_facts(a.result) == serialize_facts(b.result)
    assert a.rounds_executed == b.rounds_executed


def test_full_rules_terminate_without_nulls():
    rules = [make_tgd([atom("R", "x", "y")], [atom("R", "y", "x")])]
    i = Instance(SIG_EX, [Fact("R", (elem("a"), elem("b")))])
    res = chase(i, rules)
    assert res.status == TERMINATED
    assert serialize_facts(res.result) == "R(a,b). R(b,a)."
    assert active_domain(res.result) == {elem("a"), elem("b")}


def test_nonterminating_theory_exhausts_the_round_budget():
    sig = Signature([("A", 1), ("R", 2)])
    rules = [
        make_tgd([atom("A", "x")], [atom("R", "x", "y")]),
        make_tgd([atom("R", "x", "y")], [atom("A", "y")]),
    ]
    i = Instance(sig, [Fact("A", (elem("a"),))])
    res = chase(i, rules, ChaseConfig(max_rounds=3))
    assert res.status == BUDGET_EXHAUSTED
    assert res.rounds_executed == 3
    nulls = {v for v in active_domain(res.result) if v.name.startswith("_n")}
    assert len(nulls) == 2  # round 3 only re-derives A on the last null


def test_fact_budget_stops_the_chase_after_the_overshooting_trigger():
    sig = Signature([("U", 1), ("R", 2)])
    rules = [make_tgd([atom("U", "x")], [atom("R", "x", "y"), atom("U", "y")])]
    i = Instance(sig, [Fact("U", (elem("a"),))])
    for max_facts, rounds, n_facts in ((4, 2, 5), (5, 3, 7)):
        res = chase(i, rules, ChaseConfig(max_facts=max_facts))
        assert (res.status, res.rounds_executed, len(res.result.facts)) == \
            (BUDGET_EXHAUSTED, rounds, n_facts), max_facts
    config = ChaseConfig(max_facts=5)
    assert is_fact_saturated(i, rules, config).verdict == UNKNOWN
    assert chase_entails_cq(i, rules, cq([], [atom("R", "x", "x")]), (), config) == UNKNOWN


def test_restricted_mode_skips_satisfied_triggers():
    sig = Signature([("U", 1), ("S", 2)])
    rules = [make_tgd([atom("U", "x")], [atom("S", "x", "z")])]
    i = Instance(sig, [Fact("U", (elem("a"),)), Fact("S", (elem("a"), elem("b")))])
    res = chase(i, rules)
    assert res.status == TERMINATED
    assert res.result.facts == i.facts  # S(a,b) already witnesses the head


def test_a_trigger_fired_earlier_in_the_round_satisfies_a_later_one():
    sig = Signature([("R", 2), ("S", 2)])
    rules = [make_tgd([atom("R", "x", "y")], [atom("S", "x", "z")])]
    i = Instance(sig, [Fact("R", (elem("a"), elem("b"))), Fact("R", (elem("a"), elem("c"))),
                       Fact("S", (elem("d"), elem("e")))])
    res = chase(i, rules)
    assert (res.status, res.rounds_executed) == (TERMINATED, 1)
    # R(a,b) fires first; its S(a,_n1) witnesses the head of the R(a,c) trigger
    assert serialize_facts(res.result) == "R(a,b). R(a,c). S(a,_n1). S(d,e)."


def test_oblivious_mode_fires_every_trigger_once():
    sig = Signature([("U", 1), ("S", 2)])
    rules = [make_tgd([atom("U", "x")], [atom("S", "x", "z")])]
    i = Instance(sig, [Fact("U", (elem("a"),)), Fact("S", (elem("a"), elem("b")))])
    res = chase(i, rules, ChaseConfig(mode="oblivious_dedup"))
    assert res.status == TERMINATED
    assert len(res.result.facts) == 3  # a fresh S fact despite the existing witness


def test_fresh_nulls_follow_the_input_nulls():
    # the input already holds _n3, so the first fresh null is _n4
    inst = Instance(Signature([("U", 1), ("R", 2)]),
                    [Fact("U", (null("_n3"),)), Fact("U", (elem("a"),))])
    res = chase(inst, [make_tgd([atom("U", "x")], [atom("R", "x", "z")])])
    assert serialize_facts(res.result) == "R(_n3,_n4). R(a,_n5). U(_n3). U(a)."


def test_chase_rejects_undeclared_relations():
    with pytest.raises(ValueError):
        chase(I_EX, [make_tgd([atom("Q", "x")], [atom("U", "x")])])


# ---------------------------------------------------------------- entailment oracle


def test_certain_membership_from_the_chase():
    q_t = cq(["x"], [atom("T", "x")])
    assert chase_entails_cq(I_EX, RULES_EX, q_t, (elem("a"),)) == YES
    q_s = cq(["x", "y"], [atom("S", "x", "y")])
    assert chase_entails_cq(I_EX, RULES_EX, q_s, (elem("a"), elem("b"))) == NO


def test_unknown_on_exhausted_budget():
    sig = Signature([("A", 1), ("R", 2), ("B", 1)])
    rules = [
        make_tgd([atom("A", "x")], [atom("R", "x", "y")]),
        make_tgd([atom("R", "x", "y")], [atom("A", "y")]),
    ]
    i = Instance(sig, [Fact("A", (elem("a"),))])
    q = cq([], [atom("B", "x")])
    assert chase_entails_cq(i, rules, q, (), ChaseConfig(max_rounds=2)) == UNKNOWN


def test_answer_tuple_validation():
    q = cq(["x"], [atom("T", "x")])
    with pytest.raises(ValueError):
        chase_entails_cq(I_EX, RULES_EX, q, ())
    with pytest.raises(ValueError):
        chase_entails_cq(I_EX, RULES_EX, q, (elem("zz"),))


def test_entails_tgd_frozen_examples():
    assert entails_tgd(RULES_EX, make_tgd([atom("U", "x")], [atom("T", "x")])) == YES
    assert entails_tgd(RULES_EX, make_tgd([atom("T", "x")], [atom("U", "x")])) == NO
    for t in RULES_EX:
        assert entails_tgd(RULES_EX, t) == YES


def test_no_verdict_produces_a_countermodel():
    # on a "no", the chase result itself is a model of the rules falsifying the query
    res = chase(I_EX, RULES_EX)
    q_s = cq(["x", "y"], [atom("S", "x", "y")])
    from gnfkit.query import eval_cq

    assert (elem("a"), elem("b")) not in eval_cq(q_s, res.result)
    assert all_hold_in(RULES_EX, res.result)


# ---------------------------------------------------------------- saturation


def test_fact_saturation_of_the_worked_example():
    rep = is_fact_saturated(I_EX, RULES_EX)
    assert rep.verdict == NO
    assert rep.witness == Fact("U", (elem("a"),))


def test_closure_is_fact_saturated():
    closed = Instance(SIG_EX, [
        Fact("R", (elem("a"), elem("b"))),
        Fact("U", (elem("b"),)),
        Fact("U", (elem("a"),)),
        Fact("T", (elem("a"),)),
        Fact("T", (elem("b"),)),
    ])
    assert is_fact_saturated(closed, RULES_EX).verdict == YES


def test_empty_instance_is_fact_saturated():
    empty = Instance(SIG_EX, [])
    assert is_fact_saturated(empty, RULES_EX).verdict == YES


def test_guarded_saturation_of_the_worked_example():
    rep = is_guardedly_fact_saturated(I_EX, RULES_EX)
    assert rep.verdict == NO
    assert rep.witness == Fact("U", (elem("a"),))


def test_guarded_saturation_ignores_unguarded_candidates():
    # d and b never share a fact, so V(d,b) is not a guarded candidate
    sig = Signature([("R", 2), ("V", 2)])
    rules = [make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                      [atom("V", "z", "x")])]
    i = Instance(sig, [Fact("R", (elem("b"), elem("c"))), Fact("R", (elem("c"), elem("d")))])
    assert is_fact_saturated(i, rules).verdict == NO
    assert is_fact_saturated(i, rules).witness == Fact("V", (elem("d"), elem("b")))
    assert is_guardedly_fact_saturated(i, rules).verdict == YES


# ---------------------------------------------------------------- tentacles


def test_tentacles_of_the_worked_example_pass_the_squid_conditions():
    res = chase_ex()
    tentacles = tentacle_decomposition(res, I_EX)
    assert sorted(sorted(str(f) for f in t) for t in tentacles) == [
        ["S(a,_n2)"],
        ["S(b,_n1)"],
    ]
    assert squid_check(I_EX, res.result, tentacles)


def test_single_rule_tentacles():
    sig = Signature([("U", 1), ("S", 2)])
    rules = [make_tgd([atom("U", "x")], [atom("S", "x", "z")])]
    i = Instance(sig, [Fact("U", (elem("a"),)), Fact("U", (elem("b"),))])
    res = chase(i, rules)
    tentacles = tentacle_decomposition(res, i)
    assert sorted(sorted(str(f) for f in t) for t in tentacles) == [
        ["S(a,_n1)"],
        ["S(b,_n2)"],
    ]
    assert squid_check(i, res.result, tentacles)


def test_full_rules_produce_no_tentacles():
    rules = [make_tgd([atom("R", "x", "y")], [atom("R", "y", "x")])]
    i = Instance(SIG_EX, [Fact("R", (elem("a"), elem("b")))])
    res = chase(i, rules)
    assert tentacle_decomposition(res, i) == []


def test_tentacle_decomposition_requires_frontier_guarded_rules():
    sig = Signature([("R", 2), ("V", 2)])
    rules = [make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                      [atom("V", "x", "z")])]
    i = Instance(sig, [Fact("R", (elem("a"), elem("b")))])
    res = chase(i, rules)
    assert not res.rules_frontier_guarded
    with pytest.raises(ValueError):
        tentacle_decomposition(res, i)


# ---------------------------------------------------------------- random contracts


def test_chase_contracts_on_random_inputs():
    rng = random.Random(67)
    fg_checked = 0
    for _ in range(60):
        sig = random_signature(rng, max_rels=3, max_arity=2)
        rules = [random_frontier_guarded_tgd(rng, sig) if rng.random() < 0.7
                 else random_full_tgd(rng, sig)
                 for _ in range(rng.randint(1, 2))]
        i = random_instance(rng, sig, max_elems=3, max_facts=5)
        res = chase(i, rules, ChaseConfig(max_rounds=6, max_facts=400))
        assert weak_substructure(i, res.result)
        if res.status != TERMINATED:
            continue
        assert all_hold_in(rules, res.result)
        if all(classify(t).frontier_guarded for t in rules):
            tentacles = tentacle_decomposition(res, i)
            assert squid_check(i, res.result, tentacles)
            fg_checked += 1
    assert fg_checked >= 20


def test_chase_agrees_with_the_naive_chase():
    # the naive chase re-enumerates every trigger of every round by full scans
    rng = random.Random(4242)
    makers = (random_guarded_tgd, random_frontier_guarded_tgd, random_full_tgd)
    stops = {"terminated": 0, "rounds": 0, "facts": 0}
    for _ in range(90):
        sig = random_signature(rng, max_rels=3, max_arity=3)
        rules = [rng.choice(makers)(rng, sig) for _ in range(rng.randint(1, 3))]
        inst = random_instance(rng, sig, max_elems=4, max_facts=8)
        for mode in ("restricted", "oblivious_dedup"):
            for config in (ChaseConfig(mode, max_rounds=rng.randint(1, 3), max_facts=300),
                           ChaseConfig(mode, max_facts=len(inst.facts) + rng.randint(1, 4))):
                want = naive_chase(inst, rules, config)
                got = chase(inst, rules, config)
                assert serialize_facts(got.result) == serialize_facts(want.result), \
                    (rules, inst, config)
                assert (got.rounds_executed, got.status, got.rules_frontier_guarded) == \
                    (want.rounds_executed, want.status, want.rules_frontier_guarded)
                assert got.tentacle_map == want.tentacle_map
                if got.status == TERMINATED:
                    stops["terminated"] += 1
                elif len(got.result.facts) > config.max_facts:
                    stops["facts"] += 1
                else:
                    stops["rounds"] += 1
    assert min(stops.values()) >= 20, stops


# ---------------------------------------------------------------- the type closure


def _over_input(res, inst):
    """The chase's facts over the input's values and the constants."""
    allowed = active_domain(inst) | inst.const_values()
    return {f for f in res.result.facts if set(f.args) <= allowed}


def _corpus_closures():
    """Each guarded rule set that the corpus and the compile manifest certify
    under, with its signature and the canonical instances of its distinct
    candidate bodies."""
    problems = list(PROBLEMS) + [compile_problem(name, text)
                                 for name, _, text in COMPILE_QUERIES]
    out: dict[tuple, tuple] = {}
    for p in problems:
        sig = tgd_signature(p.rules, query_signature(p.query))
        space, _ = _derivation_space(p.rules, sig, p.query)
        insts = out.setdefault(tuple(space.rules), (sig, {}))[1]
        for *_, closure in _prepare(space.bodies).values():
            insts.setdefault(closure.key, canon_inst(cq([], list(closure.atoms)), sig)[0])
    return [(list(rules), sig, list(insts.values())) for rules, (sig, insts) in out.items()]


def test_type_closure_agrees_with_the_chase_on_the_certified_bodies():
    """On every candidate body that the corpus and the compile manifest
    certify, the closure holds the chase's facts over the body.  Where the
    chase stops at its budget, the closure must hold at least those; on
    these bodies the chase has by then derived every fact over the body
    that the closure holds, so the two are equal there too."""
    counts = {"terminated": 0, "stopped": 0}
    for rules, sig, insts in _corpus_closures():
        types = TypeClosure(rules, Instance(sig, ()).const_interp)
        for inst in insts:
            res = chase(inst, rules)
            assert types.closure(inst).facts == _over_input(res, inst), (rules, inst)
            counts["terminated" if res.status == TERMINATED else "stopped"] += 1
    # 626 and 261, over 13 rule sets
    assert counts["terminated"] >= 600 and counts["stopped"] >= 250, counts


def test_type_closure_agrees_with_the_chase_on_random_guarded_rules():
    # the oblivious chase fires every trigger, so it stops at its budget more often
    rng = random.Random(3131)
    counts = {"terminated": 0, "stopped": 0}
    for _ in range(120):
        sig = random_signature(rng, max_rels=3, max_arity=3)
        rules = [random_guarded_tgd(rng, sig) for _ in range(rng.randint(2, 4))]
        types = TypeClosure(rules, {})
        for mode in ("restricted", "oblivious_dedup"):
            inst = random_instance(rng, sig, max_elems=4, max_facts=6)
            res = chase(inst, rules, ChaseConfig(mode, max_rounds=8, max_facts=2000))
            got = types.closure(inst).facts
            want = _over_input(res, inst)
            assert got >= want, (rules, inst)
            if res.status == TERMINATED:
                assert got == want, (rules, inst)
                counts["terminated"] += 1
            else:
                counts["stopped"] += 1
    # at this seed: 211 and 29
    assert counts["terminated"] >= 200 and counts["stopped"] >= 25, counts


def test_type_closure_of_a_self_feeding_axiom():
    # the chase of A(a) never ends; the closure is what every chase derives over a
    sig = Signature([("A", 1), ("R", 2), ("C", 1), ("E", 1)])
    rules = [make_tgd([atom("A", "x")], [atom("R", "x", "y"), atom("A", "y")]),
             make_tgd([atom("R", "x", "y"), atom("A", "y")], [atom("C", "x")]),
             make_tgd([atom("R", "x", "x")], [atom("E", "x")])]
    inst = Instance(sig, [Fact("A", (elem("a"),))])
    res = chase(inst, rules)
    assert res.status == BUDGET_EXHAUSTED
    got = TypeClosure(rules, {}).closure(inst)
    assert serialize_facts(got) == "A(a). C(a)."
    assert _over_input(res, inst) == got.facts


def test_type_closure_through_a_memo_cycle():
    # R(a,b)'s child over b has the type {Q(#0), R(#0,z)}, and so does its own
    # child over z: the entry reads itself, and still derives no P
    sig = Signature([("R", 2), ("P", 1), ("Q", 1)])
    rules = [make_tgd([atom("R", "x", "y")], [atom("R", "y", "z")]),
             make_tgd([atom("R", "x", "y")], [atom("Q", "y")]),
             make_tgd([atom("R", "x", "y"), atom("P", "y")], [atom("P", "x")])]
    inst = Instance(sig, [Fact("R", (elem("a"), elem("b")))])
    types = TypeClosure(rules, {})
    assert serialize_facts(types.closure(inst)) == "Q(b). R(a,b)."
    assert any(key in (k for k, _ in node.readers) for key, node in types._nodes.items())
    # a P at the input flows back along R only
    inst = Instance(sig, [Fact("R", (elem("a"), elem("b"))), Fact("P", (elem("b"),))])
    assert serialize_facts(types.closure(inst)) == "P(a). P(b). Q(b). R(a,b)."


def test_type_closure_with_a_constant():
    # a child derives T(c), a fact over the constant alone, and the root
    # reads it through a body atom with the constant
    sig = Signature([("A", 1), ("R", 2), ("S", 2), ("T", 1), ("D", 1)], ["c"])
    rules = [make_tgd([atom("A", "x")], [atom("R", "x", "y"), Atom("S", (Var("y"), Cst("c")))]),
             make_tgd([atom("S", "y", "z")], [atom("T", "z")]),
             make_tgd([atom("A", "x"), Atom("T", (Cst("c"),))], [atom("D", "x")])]
    inst = Instance(sig, [Fact("A", (elem("a"),))])
    res = chase(inst, rules)
    assert res.status == TERMINATED
    got = TypeClosure(rules, inst.const_interp).closure(inst)
    assert serialize_facts(got) == "A(a). D(a). T(c)."
    assert _over_input(res, inst) == got.facts


def test_type_closure_reads_a_child_again_when_its_frontier_grows():
    # A(a)'s R-child derives nothing until B(a) holds, and B(a) comes from
    # b's T-child through E(a,b), which the R-child does not inherit: the
    # R-trigger reads the type with B(#0) too, which derives C(y), then D(a)
    sig = Signature([("A", 1), ("B", 1), ("C", 1), ("D", 1), ("G", 1), ("K", 1),
                     ("E", 2), ("R", 2), ("T", 2)])
    rules = [make_tgd([atom("A", "x")], [atom("R", "x", "y")]),
             make_tgd([atom("R", "x", "y"), atom("B", "x")], [atom("C", "y")]),
             make_tgd([atom("R", "x", "y"), atom("C", "y")], [atom("D", "x")]),
             make_tgd([atom("G", "x")], [atom("T", "x", "z")]),
             make_tgd([atom("T", "x", "z")], [atom("K", "x")]),
             make_tgd([atom("E", "x", "y"), atom("K", "y")], [atom("B", "x")])]
    inst = Instance(sig, [Fact("A", (elem("a"),)), Fact("E", (elem("a"), elem("b"))),
                          Fact("G", (elem("b"),))])
    res = chase(inst, rules)
    assert res.status == TERMINATED
    got = TypeClosure(rules, {}).closure(inst)
    assert serialize_facts(got) == "A(a). B(a). D(a). E(a,b). G(b). K(b)."
    assert _over_input(res, inst) == got.facts


def test_type_closure_of_a_frontier_at_a_constant():
    # the frontier of A(c)'s trigger is the constant c, which a child keeps
    # as itself, so its R(c,y) meets the body atom R(c,y)
    sig = Signature([("A", 1), ("R", 2), ("M", 1), ("D", 1)], ["c"])
    rules = [make_tgd([atom("A", "x")], [atom("R", "x", "y")]),
             make_tgd([Atom("R", (Cst("c"), Var("y")))], [atom("M", "y")]),
             make_tgd([atom("R", "x", "y"), atom("M", "y")], [atom("D", "x")])]
    inst = Instance(sig, [Fact("A", (const("c"),))])
    res = chase(inst, rules)
    assert res.status == TERMINATED
    got = TypeClosure(rules, inst.const_interp).closure(inst)
    assert serialize_facts(got) == "A(c). D(c)."
    assert _over_input(res, inst) == got.facts


def test_type_closure_refuses_what_it_cannot_close():
    sig = Signature([("R", 2)])
    with pytest.raises(ValueError, match="not guarded"):
        TypeClosure([make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                              [atom("R", "x", "z")])], {})
    with pytest.raises(ValueError, match="rule constant c not interpreted"):
        TypeClosure([make_tgd([atom("R", "x", "y")], [Atom("R", (Var("x"), Cst("c")))])], {})
    with pytest.raises(ValueError, match="constants interpreted as themselves"):
        TypeClosure([], {"c": elem("c")})
    with pytest.raises(ValueError, match="interprets the constants otherwise"):
        TypeClosure([], {}).closure(Instance(sig.extend(constants=["c"]), []))


def test_type_closure_is_the_same_under_every_hash_seed():
    code = (
        "import random, sys\n"
        "from gnfkit.chase import TypeClosure\n"
        "from gnfkit.model import serialize_facts\n"
        "from randgen import random_guarded_tgd, random_instance, random_signature\n"
        "rng = random.Random(77)\n"
        "for _ in range(40):\n"
        "    sig = random_signature(rng, max_rels=3, max_arity=3)\n"
        "    types = TypeClosure([random_guarded_tgd(rng, sig) for _ in range(3)], {})\n"
        "    for _ in range(3):\n"
        "        print(serialize_facts(types.closure(random_instance(rng, sig, 4, 6))))\n")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(gnfkit.__file__))
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    first, second = (subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": path,
                                         "PYTHONHASHSEED": seed}, check=True)
                     for seed in ("1", "2"))
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 120
