"""Tests for the chase engine: rounds, termination, entailment oracle, saturation."""

from __future__ import annotations

import random

import pytest

from gnfkit.chase import (
    BUDGET_EXHAUSTED,
    NO,
    TERMINATED,
    UNKNOWN,
    YES,
    ChaseConfig,
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
    elem,
    serialize_facts,
    squid_check,
    weak_substructure,
)
from gnfkit.query import atom, cq
from gnfkit.tgd import all_hold_in, classify, make_tgd

from randgen import random_frontier_guarded_tgd, random_full_tgd, random_instance, random_signature

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


def test_oblivious_mode_fires_every_trigger_once():
    sig = Signature([("U", 1), ("S", 2)])
    rules = [make_tgd([atom("U", "x")], [atom("S", "x", "z")])]
    i = Instance(sig, [Fact("U", (elem("a"),)), Fact("S", (elem("a"), elem("b")))])
    res = chase(i, rules, ChaseConfig(mode="oblivious_dedup"))
    assert res.status == TERMINATED
    assert len(res.result.facts) == 3  # a fresh S fact despite the existing witness


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
