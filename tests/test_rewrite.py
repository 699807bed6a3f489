"""Tests for compiling certain-answer problems into Datalog."""

import itertools
import random

import pytest

from shapes import cycle
from gnfkit.chase import ChaseConfig
from gnfkit.datalog import classify_datalog
from gnfkit.model import Fact, Instance, Signature, elem
from gnfkit.query import Atom, Var, atom, cq, cq_equivalent, query_signature
from gnfkit.rewrite import (CAPPED, COMPLETE_WITHIN_CAPS, ENTAILED, REJECTED,
                            RewriteConfig, _canonical_family_form, _default_k,
                            certain_answers_oracle,
                            derive_full_guarded,
                            enumerate_full_guarded_candidates,
                            evaluate_program, goal_rules,
                            guard_extension_axioms, query_generation_rules,
                            rewrite_atomic_guarded, rewrite_cq_guarded,
                            rewrite_fg)
from gnfkit.tgd import make_tgd, tgd_signature

SIG = Signature([("R", 2), ("U", 1), ("S", 2), ("T", 1)])
RULES = [
    make_tgd([atom("R", "x", "y"), atom("U", "y")], [atom("U", "x")]),
    make_tgd([atom("U", "x")], [atom("S", "x", "z")]),
    make_tgd([atom("S", "x", "y")], [atom("T", "x")]),
]
INST = Instance(SIG, [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])
Q_T = cq(["x"], [atom("T", "x")])
Q_TRI = cq([], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")])

AB = {(elem("a"),), (elem("b"),)}


# ---------------------------------------------------------------------------
# query families

def test_family_forms_agree_on_renamed_queries():
    # every query of one or two atoms over three variables, two of them named
    # like the fresh names, with every choice of answer variables
    names = ("x", "v0", "f1")
    pool = ([atom("R", s, t) for s in names for t in names] + [atom("S", s) for s in names])
    rng = random.Random(53)
    for n in (1, 2):
        for body in itertools.combinations(pool, n):
            used = list(dict.fromkeys(v for a in body for v in a.vars()))
            for k in range(len(used) + 1):
                for free in itertools.combinations(used, k):
                    q = cq(free, body)
                    key, canonq, order = _canonical_family_form(q)
                    # canonical answer position i holds the original variable order[i]
                    assert cq_equivalent(canonq, cq(order, body))
                    ren = dict(zip(used, rng.sample(("y", "v1", "f0", "f2", "w"), len(used))))
                    renamed = cq([ren[x] for x in free],
                                 [Atom(a.rel, tuple(Var(ren[t.name]) for t in a.args))
                                  for a in body])
                    assert _canonical_family_form(renamed) == (key, canonq,
                                                               [ren[x] for x in order])


# ---------------------------------------------------------------------------
# candidate enumeration

def test_enumeration_is_deterministic_and_canonical():
    s1 = enumerate_full_guarded_candidates(SIG)
    s2 = enumerate_full_guarded_candidates(SIG)
    assert [str(t) for t in s1.candidates] == [str(t) for t in s2.candidates]
    assert len({str(t) for t in s1.candidates}) == len(s1.candidates)
    assert not s1.capped


def test_enumeration_head_relation_filter():
    space = enumerate_full_guarded_candidates(SIG, head_rel="T")
    assert space.candidates
    assert all(t.head.atoms[0].rel == "T" for t in space.candidates)


def test_enumeration_rejects_unknown_head_relation():
    with pytest.raises(ValueError):
        enumerate_full_guarded_candidates(SIG, head_rel="Z")


def test_enumeration_relation_cap_flags_capped():
    space = enumerate_full_guarded_candidates(SIG, config=RewriteConfig(max_relations=2))
    assert space.capped
    used = {a.rel for t in space.candidates for a in (*t.body.atoms, *t.head.atoms)}
    assert used <= {"R", "U"}


def test_enumerated_candidates_are_guarded_and_full():
    from gnfkit.tgd import classify
    space = enumerate_full_guarded_candidates(SIG)
    for t in space.candidates:
        c = classify(t)
        assert c.full and c.guarded


# ---------------------------------------------------------------------------
# derived full guarded rules

def test_derive_includes_expected_consequences():
    d = derive_full_guarded(RULES, sig=SIG)
    have = {str(t) for t in d.rules}
    assert "U(v0) -> T(v0)" in have
    assert "R(v0,v1), U(v1) -> U(v0)" in have
    assert "R(v0,v1), U(v1) -> T(v0)" in have
    assert not d.capped


def test_derive_only_trivial_rules_without_input_rules():
    d = derive_full_guarded([], sig=Signature([("A", 1), ("B", 1)]))
    for t in d.rules:
        assert t.head.atoms[0] in set(t.body.atoms)


def test_derive_composes_transitively():
    rules = [make_tgd([atom("A", "x")], [atom("B", "x")]),
             make_tgd([atom("B", "x")], [atom("C", "x")])]
    d = derive_full_guarded(rules)
    assert "A(v0) -> C(v0)" in {str(t) for t in d.rules}


def test_derive_rejects_non_consequences():
    d = derive_full_guarded(RULES, sig=SIG)
    have = {str(t) for t in d.rules}
    # nothing implies U from T alone
    assert "T(v0) -> U(v0)" not in have
    rejected = {r.candidate for r in d.certification if r.verdict == REJECTED}
    assert "T(v0) -> U(v0)" in rejected


def test_derive_certifies_every_kept_rule():
    d = derive_full_guarded(RULES, sig=SIG)
    entailed = {r.candidate for r in d.certification if r.verdict == ENTAILED}
    assert all(str(t) in entailed for t in d.rules)


def test_derive_is_monotone_in_caps():
    prev = set()
    sizes = []
    for extra in (0, 1, 2):
        cfg = RewriteConfig(max_extra_body_atoms=extra)
        got = {str(t) for t in derive_full_guarded(RULES, cfg, SIG).rules}
        assert prev <= got
        sizes.append(len(got))
        prev = got
    assert sizes[0] < sizes[1] < sizes[2]


def test_derive_matches_between_sequential_and_parallel():
    seq = derive_full_guarded(RULES, RewriteConfig(jobs=1), SIG)
    par = derive_full_guarded(RULES, RewriteConfig(jobs=2), SIG)
    assert [str(t) for t in seq.rules] == [str(t) for t in par.rules]
    # every scheme certifies through the same step, so it too must not care
    for scheme, rules, q in ((rewrite_cq_guarded, RULES, Q_T),
                             (rewrite_fg, FG_RULES, FG_Q)):
        seq = scheme(rules, q, RewriteConfig(jobs=1))
        par = scheme(rules, q, RewriteConfig(jobs=2))
        assert str(seq.program) == str(par.program)
        assert seq.certification == par.certification


# ---------------------------------------------------------------------------
# the reference oracle

def test_oracle_on_running_example():
    answers, complete = certain_answers_oracle(RULES, Q_T, INST)
    assert set(answers) == AB
    assert complete


def test_oracle_keeps_only_input_values():
    # the chase invents a witness for S, but it is not a certain answer value
    q = cq(["x", "y"], [atom("S", "x", "y")])
    answers, complete = certain_answers_oracle(RULES, q, INST)
    assert complete
    assert answers == frozenset()


def test_oracle_reports_incomplete_on_budget():
    growing = [make_tgd([atom("R", "x", "y")], [atom("R", "y", "z")])]
    inst = Instance(Signature([("R", 2)]), [Fact("R", (elem("a"), elem("b")))])
    q = cq(["x"], [atom("R", "x", "x")])
    cfg = RewriteConfig(oracle=ChaseConfig(max_rounds=3))
    answers, complete = certain_answers_oracle(growing, q, inst, cfg)
    assert not complete
    assert answers == frozenset()


# ---------------------------------------------------------------------------
# atomic queries under guarded rules

def test_atomic_rewrite_answers_match_oracle_on_example():
    art = rewrite_atomic_guarded(RULES, Q_T)
    assert evaluate_program(art, INST) == AB
    cls = classify_datalog(art.program)
    assert cls.guarded
    assert art.completeness == COMPLETE_WITHIN_CAPS


def test_atomic_rewrite_runs_over_relation_copies():
    art = rewrite_atomic_guarded(RULES, Q_T)
    prog = art.program
    assert set(prog.edb.arities) == set(SIG.arities)
    assert prog.goal == "T'"
    heads = {r.head.rel for r in prog.rules}
    assert heads <= set(prog.idb.arities)
    # the transcribed derived rule U'(x) -> T'(x) is present
    assert any(r.head.rel == "T'" and [a.rel for a in r.body] == ["U'"]
               for r in prog.rules)


def test_atomic_rewrite_certificates_cover_program_rules():
    art = rewrite_atomic_guarded(RULES, Q_T)
    entailed = {r.candidate for r in art.certification if r.verdict == ENTAILED}

    def back(rel):  # program relations are primed copies of input relations
        return rel[:-1] if rel.endswith("'") else rel

    for r in art.program.rules:
        tgd_text = (", ".join(str(Atom(back(a.rel), a.args)) for a in r.body)
                    + " -> " + str(Atom(back(r.head.rel), r.head.args)))
        # import rules are certified under their own text, derived rules
        # under the untranscribed rule they were certified as
        assert str(r) in entailed or tgd_text in entailed


def test_atomic_rewrite_projection_follows_free_variable_order():
    sig = Signature([("R", 2)])
    q = cq(["y", "x"], [atom("R", "x", "y")])
    art = rewrite_atomic_guarded([make_tgd([atom("R", "x", "y")],
                                           [atom("R", "x", "y")])], q)
    inst = Instance(sig, [Fact("R", (elem("a"), elem("b")))])
    assert evaluate_program(art, inst) == {(elem("b"), elem("a"))}


def test_atomic_rewrite_validates_inputs():
    with pytest.raises(ValueError):
        rewrite_atomic_guarded(RULES, cq(["x"], [atom("R", "x", "x")]))
    with pytest.raises(ValueError):
        rewrite_atomic_guarded(RULES, cq(["x"],
                                         [atom("R", "x", "y"), atom("U", "y")]))
    unguarded = [make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                          [atom("R", "x", "z")])]
    with pytest.raises(ValueError):
        rewrite_atomic_guarded(unguarded, cq(["x"], [atom("U", "x")]))


# ---------------------------------------------------------------------------
# conjunctive queries under guarded rules

def test_cq_rewrite_on_running_example():
    art = rewrite_cq_guarded(RULES, Q_T)
    assert evaluate_program(art, INST) == AB
    assert classify_datalog(art.program).internally_guarded
    assert art.completeness == COMPLETE_WITHIN_CAPS


def test_cq_rewrite_triangle_on_cycles():
    art = rewrite_cq_guarded([], Q_TRI)
    assert art.boolean_goal
    assert art.caps["k"] == 3
    assert classify_datalog(art.program).internally_guarded
    assert evaluate_program(art, cycle(3)) == {()}
    assert evaluate_program(art, cycle(4)) == set()


def test_cq_rewrite_path_query_with_free_endpoints():
    # Q(x,z) = exists y: E(x,y), E(y,z) over a plain edge relation
    q = cq(["x", "z"], [atom("E", "x", "y"), atom("E", "y", "z")])
    art = rewrite_cq_guarded([], q)
    inst = cycle(4)
    got = evaluate_program(art, inst)
    want, complete = certain_answers_oracle([], q, inst)
    assert complete and got == set(want)
    assert (elem("n1"), elem("n3")) in got


def test_cq_rewrite_with_rules_and_join_query():
    # Q(x) = exists y: R(x,y), T(y); T spreads along U via the rules
    q = cq(["x"], [atom("R", "x", "y"), atom("T", "y")])
    art = rewrite_cq_guarded(RULES, q)
    got = evaluate_program(art, INST)
    want, complete = certain_answers_oracle(RULES, q, INST)
    assert complete and got == set(want)
    assert got == {(elem("a"),)}


def test_cq_rewrite_is_deterministic():
    p1 = rewrite_cq_guarded(RULES, Q_T).program
    p2 = rewrite_cq_guarded(RULES, Q_T).program
    assert str(p1) == str(p2)


def test_cq_rewrite_requires_guarded_rules():
    unguarded = [make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                          [atom("R", "x", "z")])]
    with pytest.raises(ValueError):
        rewrite_cq_guarded(unguarded, Q_T)


def test_cq_rewrite_flags_small_k_as_capped():
    art = rewrite_cq_guarded([], Q_TRI, RewriteConfig(k=2))
    assert art.capped
    assert art.completeness == CAPPED
    # with too few variables the triangle cannot be recognized
    assert evaluate_program(art, cycle(3)) == set()


# ---------------------------------------------------------------------------
# query generation and goal rules

def test_query_rules_include_guard_and_derived_bodies():
    res = query_generation_rules(RULES, Q_T)
    assert res.query_predicates == {"Q0": "(f0) T(f0)"}
    have = {str(t) for t in res.rules}
    assert "T(v0) -> Q0(v0)" in have  # the query is its own guard
    assert "U(v0) -> Q0(v0)" in have  # derived via the rules
    entailed = {r.candidate for r in res.certification if r.verdict == ENTAILED}
    assert all(str(t) in entailed for t in res.rules)


def test_query_rules_reject_unsupported_bodies():
    res = query_generation_rules(RULES, Q_T)
    rejected = {r.candidate for r in res.certification if r.verdict == REJECTED}
    assert "R(v0,v1) -> Q0(v0)" in rejected


def test_goal_rules_for_atomic_query():
    res = goal_rules(Q_T)
    texts = {str(r) for r in res.rules}
    (qname,) = [n for n in res.query_predicates]
    assert f"Goal(x) :- {qname}(x)." in texts


def test_goal_rules_split_triangle_into_edges():
    res = goal_rules(Q_TRI, k=3)
    # some rule joins three premises, one per edge of the quotiented triangle
    assert any(len(r.body) == 3 for r in res.rules)
    # every emitted rule passed the containment check
    entailed = {r.candidate for r in res.certification if r.verdict == ENTAILED}
    assert all(str(r) in entailed for r in res.rules)


def test_goal_rules_respect_premise_cap():
    cfg = RewriteConfig(max_goal_premises=1)
    res = goal_rules(Q_TRI, k=3, config=cfg)
    assert all(len(r.body) <= 1 for r in res.rules)


def test_query_and_goal_rules_read_k_from_the_config():
    cfg = RewriteConfig(k=2)
    assert rewrite_cq_guarded([], Q_TRI, cfg).caps["k"] == 2
    assert query_generation_rules([], Q_TRI, config=cfg).caps["k"] == 2
    goals = goal_rules(Q_TRI, config=cfg)
    assert goals.rules == goal_rules(Q_TRI, k=2).rules
    assert len(goals.rules) == 12 and len(goal_rules(Q_TRI, k=3).rules) == 17
    # an explicit k still overrides the config
    assert query_generation_rules([], Q_TRI, k=3, config=cfg).caps["k"] == 3


def test_schemes_are_compositions_of_their_public_steps():
    cfg = RewriteConfig()
    q_join = cq(["x"], [atom("R", "x", "y"), atom("T", "y")])
    for rules, q in ((RULES, Q_T), (RULES, q_join), ([], Q_TRI)):
        sig = tgd_signature(rules, query_signature(q))
        k = _default_k(rules, q, cfg)
        art = rewrite_cq_guarded(rules, q, cfg)
        derived = derive_full_guarded(rules, cfg, sig)
        query_rules = query_generation_rules(rules, q, k, cfg)
        goals = goal_rules(q, k, cfg, goal_name=art.program.goal)
        steps = derived.certification + query_rules.certification + goals.certification
        assert tuple(r for r in art.certification if r.kind != "import") == steps
        assert list(art.query_predicates.items()) == list(query_rules.query_predicates.items())
    atomic = rewrite_atomic_guarded(RULES, Q_T, cfg)
    derived = derive_full_guarded(RULES, cfg, tgd_signature(RULES, query_signature(Q_T)))
    assert tuple(r for r in atomic.certification if r.kind != "import") == derived.certification


# ---------------------------------------------------------------------------
# guard extension predicates

def test_guard_extension_counts_for_binary_relation():
    ext = guard_extension_axioms(Signature([("R", 2)]))
    assert sorted(ext.predicates.values()) == ["R_p0", "R_p1", "R_p12", "R_p2"]
    assert len(ext.axioms) == 6


def test_guard_extension_full_position_set_needs_no_axioms():
    ext = guard_extension_axioms(Signature([("R", 2)]))
    full_name = ext.predicates[("R", (1, 2))]
    mentioned = {a.rel for t in ext.axioms
                 for a in (*t.body.atoms, *t.head.atoms)}
    assert full_name not in mentioned


def test_guard_extension_signature_and_projections():
    ext = guard_extension_axioms(Signature([("R", 2)]))
    assert "_unit" in ext.signature.constants
    assert ext.signature.arities["R_p1"] == 1
    assert ext.signature.arities["R_p0"] == 1
    # projection axioms both ways for position 1
    texts = {str(t) for t in ext.axioms}
    assert "R(x1,x2) -> R_p1(x1)" in texts
    assert "R_p1(x1) -> exists x2: R(x1,x2)" in texts


def test_guard_extension_names_avoid_clashes():
    ext = guard_extension_axioms(Signature([("R", 2), ("R_p1", 1)]))
    assert ext.predicates[("R", (1,))] != "R_p1"


# ---------------------------------------------------------------------------
# frontier-guarded rewriting

FG_SIG = Signature([("R", 2), ("P", 1)])
FG_RULES = [make_tgd([atom("R", "x", "y"), atom("R", "y", "z")],
                     [atom("P", "x")])]
FG_Q = cq(["x"], [atom("P", "x")])
FG_INST = Instance(FG_SIG, [Fact("R", (elem("a"), elem("b"))),
                            Fact("R", (elem("b"), elem("c")))])


def test_fg_rewrite_two_step_reachability_head():
    art = rewrite_fg(FG_RULES, FG_Q)
    assert classify_datalog(art.program).frontier_guarded
    assert evaluate_program(art, FG_INST) == {(elem("a"),)}
    want, complete = certain_answers_oracle(FG_RULES, FG_Q, FG_INST)
    assert complete and set(want) == {(elem("a"),)}


def test_fg_rewrite_handles_boolean_queries():
    q = cq([], [atom("P", "x")])
    art = rewrite_fg(FG_RULES, q)
    assert art.boolean_goal
    assert evaluate_program(art, FG_INST) == {()}
    empty = Instance(FG_SIG, [Fact("R", (elem("a"), elem("b")))])
    assert evaluate_program(art, empty) == set()


def test_fg_rewrite_rejects_non_answer_guarded_query():
    q = cq(["x", "z"], [atom("R", "x", "y"), atom("R", "y", "z")])
    with pytest.raises(ValueError):
        rewrite_fg(FG_RULES, q)


def test_fg_rewrite_rejects_non_frontier_guarded_rules():
    bad = [make_tgd([atom("R", "x", "y"), atom("R", "u", "v")],
                    [atom("R", "x", "u")])]
    with pytest.raises(ValueError):
        rewrite_fg(bad, FG_Q)


def test_fg_rewrite_agrees_with_oracle_on_guarded_example():
    art = rewrite_fg(RULES, Q_T)
    assert classify_datalog(art.program).frontier_guarded
    assert evaluate_program(art, INST) == AB


# ---------------------------------------------------------------------------
# evaluation plumbing

def test_evaluate_program_accepts_smaller_signatures():
    # instance lacking some edb relations still evaluates (no facts for them)
    art = rewrite_cq_guarded(RULES, Q_T)
    small = Instance(Signature([("R", 2), ("U", 1)]),
                     [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])
    assert evaluate_program(art, small) == AB
