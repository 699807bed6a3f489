"""Tests for compiling certain-answer problems into Datalog."""

import concurrent.futures
import dataclasses
import hashlib
import itertools
import random

import pytest

from corpus import (COMPILE_QUERIES, ORACLE_QUERIES, PROBLEMS, SCHEMES, compile_problem,
                    compiled_problem)
from oracles import naive_rule_candidates, naive_subsumes
from randgen import random_instance
from shapes import cycle
from gnfkit.chase import ChaseConfig
from gnfkit.datalog import DatalogProgram, classify_datalog
from gnfkit.model import Fact, Instance, Signature, elem
from gnfkit.query import (RENAMING_CAP, Atom, Cst, Var, atom, cq, cq_equivalent,
                          query_signature)
from gnfkit.rewrite import (CAPPED, COMPLETE_WITHIN_CAPS, ENTAILED, REJECTED, SUBSUMED,
                            RewriteConfig, _canonical_family_form, _default_k,
                            _inject_input_rules, _rule_candidates,
                            certain_answers_oracle,
                            derive_full_guarded,
                            enumerate_full_guarded_candidates,
                            evaluate_program, goal_rules,
                            guard_extension_axioms, query_generation_rules,
                            rewrite_atomic_guarded, rewrite_cq_guarded,
                            rewrite_fg)
from gnfkit.syntax import parse_datalog, print_datalog
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


def _random_body(rng: random.Random) -> tuple[tuple[Atom, ...], tuple[str, ...]]:
    # a guard atom plus up to two atoms over variables and constants, some of
    # either named like the fresh names v0, v1 (never both in one body)
    names = rng.sample(("x", "y", "z", "v0", "v1", "c"), 4)
    var_names, cst_names = names[:3], names[3:]

    def term(guard: bool):
        if guard or rng.random() < 0.8:
            return Var(rng.choice(var_names))
        return Cst(rng.choice(cst_names))

    rels = (("E", 2), ("U", 1), ("T", 3))
    guard_rel, guard_arity = rng.choice(rels)
    guard = Atom(guard_rel, tuple(term(True) for _ in range(guard_arity)))
    extra = []
    for _ in range(rng.randint(0, 2)):
        rel, arity = rng.choice(rels)
        extra.append(Atom(rel, tuple(term(False) for _ in range(arity))))
    return (guard, *extra), guard.vars()


def test_rule_candidates_agree_with_naming_each_candidate_whole():
    rng = random.Random(59)
    bodies = [_random_body(rng) for _ in range(150)]
    # bodies whose renamings tie, and one past the renaming cap
    bodies += [((atom("E", "x", "y"), atom("E", "y", "x")), ("x", "y")),
               ((atom("E", "v1", "v0"), atom("E", "v0", "v1"), atom("U", "v0")), ("v1", "v0"))]
    wide = [f"y{i}" for i in range(RENAMING_CAP + 1)]
    bodies.append(((Atom("W", tuple(Var(v) for v in wide)), atom("E", wide[3], wide[1])),
                   tuple(wide)))
    heads = [("E", 2, None), ("U", 1, None), ("H", 0, None),
             ("Q0", 1, cq(["f0"], [atom("E", "f0", "v0")])),
             ("Q1", 0, cq([], [atom("U", "v0")]))]
    got = _rule_candidates(bodies, heads)
    want = naive_rule_candidates(bodies, heads)
    assert list(got) == list(want)
    for key, cand in got.items():
        assert (cand.rule, cand.kind, cand.query) == want[key], key
    assert any(len(c.rule.body.free_vars) > RENAMING_CAP for c in got.values())
    assert any(isinstance(t, Cst) and t.name in ("v0", "v1")
               for c in got.values() for a in c.rule.body.atoms for t in a.args)


def test_full_rule_naming_keeps_head_constants_and_first_occurrence():
    # a head constant named like a fresh name is skipped by the renaming
    rule = make_tgd([atom("E", "x", "y")], [Atom("H", (Var("y"), Cst("v0")))])
    assert [str(t) for t in _inject_input_rules([rule], require_guarded=False)] \
        == ["E(v2,v1) -> H(v1,v0)"]
    # past the cap, variables are named by first occurrence in the head first
    wide = [f"y{i}" for i in range(RENAMING_CAP + 1)]
    rule = make_tgd([Atom("W", tuple(Var(v) for v in wide))], [atom("U", wide[5])])
    assert [str(t) for t in _inject_input_rules([rule], require_guarded=True)] \
        == ["W(v1,v2,v3,v4,v5,v0,v6,v7) -> U(v0)"]


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


def test_certification_starts_one_worker_per_chunk(monkeypatch):
    """The pool is sized by the chunks it gets, never by ``jobs`` alone; a
    stand-in pool maps in this process, so no process starts."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            self.chunks = list(args)
            return map(fn, self.chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    small = RewriteConfig(max_extra_body_atoms=0)
    seq = derive_full_guarded(RULES, small, SIG)
    assert pools == []
    for jobs in (2, 8):
        par = derive_full_guarded(RULES, dataclasses.replace(small, jobs=jobs), SIG)
        assert par == seq
        pool = pools.pop()
        closures = sum(len(chunk) for _, _, chunk, _ in pool.chunks)
        assert pool.max_workers == len(pool.chunks) == min(jobs, closures)
    assert 2 < closures < 8


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_must_be_positive(jobs):
    with pytest.raises(ValueError, match="jobs"):
        RewriteConfig(jobs=jobs)


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
        assert tuple(r for r in art.certification
                     if r.kind != "import" and r.verdict != SUBSUMED) == steps
        assert list(art.query_predicates.items()) == list(query_rules.query_predicates.items())
    atomic = rewrite_atomic_guarded(RULES, Q_T, cfg)
    derived = derive_full_guarded(RULES, cfg, tgd_signature(RULES, query_signature(Q_T)))
    assert tuple(r for r in atomic.certification
                 if r.kind != "import" and r.verdict != SUBSUMED) == derived.certification


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
# differential check against the oracle

COMPILES = [(i, name, scheme, text)
            for i, (name, schemes, text) in enumerate(COMPILE_QUERIES + ORACLE_QUERIES)
            for scheme in schemes]


def test_compile_queries_parse_over_the_corpus_rules():
    assert sum(len(schemes) for _, schemes, _ in COMPILE_QUERIES) == 23
    for _, name, _, text in COMPILES:
        problem = compile_problem(name, text)
        if len(problem.query.atoms) == 1:
            assert problem.query == next(p.query for p in PROBLEMS if p.name == name)


@pytest.mark.parametrize("index, name, scheme, text", COMPILES,
                         ids=[f"{name}-{scheme}-{i}" for i, name, scheme, _ in COMPILES])
def test_compiled_answers_agree_with_the_oracle(index, name, scheme, text):
    # compiled answers are sound; with every cap respected they are complete
    problem = compile_problem(name, text)
    art = SCHEMES[scheme](problem.rules, problem.query)
    sig = tgd_signature(problem.rules)
    rng = random.Random(index)
    decided = 0
    for _ in range(5):
        inst = random_instance(rng, sig)
        compiled = evaluate_program(art, inst)
        oracle, terminated = certain_answers_oracle(problem.rules, problem.query, inst)
        if terminated:
            decided += 1
            assert compiled <= oracle, inst
            if art.completeness == COMPLETE_WITHIN_CAPS:
                assert compiled == oracle, inst
    assert decided >= 3


# SHA-256 of each compile's printed program, completeness and certification
# records, as computed by the compilers before rule candidates were named per
# body and before subsumed rules were dropped; any change to the naming or
# enumeration shows up here
COMPILE_DIGESTS = {
    ("u-propagation", "atomic", "T(x)"):
        "fc57de8b37f29c7d2ad686cfadcd37b295a5d306cd9768b8e8629a453789a4fe",
    ("u-propagation", "cq", "T(x)"):
        "349ba991d7889313318ebae29db9f72c45ff4e7d363e5dc1aa486660b0a744f4",
    ("edge-endpoint", "atomic", "P(x)"):
        "d390ec15fc14734194609098a8efbc36f1efd062c6a7fd22104a90d742fc56ea",
    ("edge-endpoint", "cq", "P(x)"):
        "330eda271327a6388cf149b871ea8ef3fd98456dac656f72ce83b2513bd426cb",
    ("unary-cycle", "atomic", "C(x)"):
        "3cb5d153c96cd46f265a4ae35705a162a76e22dc5eee8a2c47bae947151fbb9e",
    ("unary-cycle", "cq", "C(x)"):
        "7206d9187ad07e436e04cea80f5169032c6b828e7b0008162de81c997d9604e0",
    ("unary-cycle", "fg", "C(x)"):
        "340984a97cd6bf0f35eb3e40fd1d38b493d5dd051382065e4bfc9168ce0272df",
    ("null-producer", "atomic", "V(x)"):
        "4578e994040495cae26c895ff70febd03981ce61a6615b08f743f961b2969ac3",
    ("null-producer", "cq", "V(x)"):
        "c11cff295be9a5b9e8cf1582833b35259457f45ec3144f2a345fe3ea20423abf",
    ("pair-marker", "atomic", "S(x,y)"):
        "cb13ff77eec0422048a141bbeac1d32a8f836b9f4a33da50ab1ed92c291a6c31",
    ("pair-marker", "cq", "S(x,y)"):
        "1ca37b3680c970f3946caf0df8f302c70fb0a68c46f24e4b92b7357d8fd85b84",
    ("symmetric-loop", "atomic", "L(x)"):
        "04111f94db3740694292a9ce0ded9cee013cf671d19964cb3176e8f705e4fe21",
    ("symmetric-loop", "cq", "L(x)"):
        "0de880d07c4784d3a8a740f25c66cd90046c0b592e5b47f2726750be0d51492e",
    ("symmetric-loop", "fg", "L(x)"):
        "f9b21ac488b80b8c0276b7a29a3c430f18cb633427fe7683043bd8521057f50c",
    ("mutual-unary", "atomic", "P(x)"):
        "35398f46b037ea1169afdfbcea0783efd27d290e0afc3241142edcd52d37b22a",
    ("mutual-unary", "cq", "P(x)"):
        "ff62c33bc58e7482ea90f44c061266413241cd91571d43ee6e7e9eec3b97c572",
    ("u-propagation", "cq", "exists y: R(x,y), U(y)"):
        "46dd87078331a8ba2a61351b576fa57a92dd6dc96b6beb7bb4dea467ecbc9e6e",
    ("mutual-unary", "cq", "exists y: E(x,y), Q(y)"):
        "dbad9e18294b8959205b274bfdbee44da49465dce7a937157522a9734f2e2aef",
    ("mutual-unary", "cq", "exists x: P(x), Q(x)"):
        "a8fda714407c7786f83d37c0918a5c935bc163e62ef0f52ae3a0ed9d5788cb8d",
    ("edge-endpoint", "cq", "exists x,y: E(x,y), P(y)"):
        "a133cfb0c0f05c4067d6033bad2add1522f923c64608b29e6a9bc33c2a7c2511",
    ("symmetric-loop", "cq", "exists x,y: E(x,y), E(y,x), L(x)"):
        "c44482c37b793e32b3770d5b2ef2c5df4f454aa70ae65a211ef8bf692c923a46",
    ("unary-cycle", "cq", "A(x), C(x)"):
        "9b2f99f67f979886a635b7b14f692b6258b6655c8eb02714dff3668a366d88b2",
    ("unary-cycle", "fg", "A(x), C(x)"):
        "417ebb18b7d81e6b5d73af2276910a2cdd2b63cac672e3224ec2d7b318f6f01a",
}


# the same digest over the emitted, subsumption-minimal programs and the full
# certification trail, subsumed records included
PRUNED_DIGESTS = {
    ("u-propagation", "atomic", "T(x)"):
        "d99d97dc9da5d70f6cfa4e45c856d6119bc3136dbe7e390764eacf777c4fd653",
    ("u-propagation", "cq", "T(x)"):
        "590e5fc9dc073451e8ba1bc46973283d49b64ba89306b6e6dc7b7fbdd1c0efa9",
    ("edge-endpoint", "atomic", "P(x)"):
        "35ed9769d4aebbf1daf7f533afdfe1a43f73732aa59f3df29ec90a8433fbef44",
    ("edge-endpoint", "cq", "P(x)"):
        "7a33419f654045626e57ac59aac6b3a2881adec30978d49470005fb72a21f206",
    ("unary-cycle", "atomic", "C(x)"):
        "a430d7fd295050567e20df639f2bf8b8c8baee5dd4c87402795df0fa5c9a9582",
    ("unary-cycle", "cq", "C(x)"):
        "ed2abcc6bbe2b3927711cb78daf0a5e245d393b24ac287667c04cbfb137a7492",
    ("unary-cycle", "fg", "C(x)"):
        "ef5fc3c114e1daf601369b89bc6510d6e14315f1158acfc61590f7295bdd4053",
    ("null-producer", "atomic", "V(x)"):
        "035b7b18dd5c0d0a3cd6de7d2f4756362e8129de77935ce92b89ecd2d4b73f6d",
    ("null-producer", "cq", "V(x)"):
        "32a49e4ceef04d7d6e32db22bfbfcda757c3433cf066ffd31d4f382e1504e8fe",
    ("pair-marker", "atomic", "S(x,y)"):
        "56e4f0792ca1c2dd932150e77ee7de46168f4a8a5054c313dd9bb31e888e18d3",
    ("pair-marker", "cq", "S(x,y)"):
        "5eb91b92fd4e488cb30af8a3b3f843cc6c5cdd45613cc89e3b90ae2bb3baf660",
    ("symmetric-loop", "atomic", "L(x)"):
        "11930b09aa9ac2da49fa7a17d4ebf56420a1989aabc636b4e73046ae766337e9",
    ("symmetric-loop", "cq", "L(x)"):
        "6ffe60837b001ca095521480873e6811eea4d7fdb6143f1123f238e82d055eea",
    ("symmetric-loop", "fg", "L(x)"):
        "8d785fe5eb2823351feb70148721fae322f06598e21d462224814da4557a6dad",
    ("mutual-unary", "atomic", "P(x)"):
        "a3eb5544e88a3e381a97bf7c38a6631a8076d492c34665e458f07f3f1353c5c2",
    ("mutual-unary", "cq", "P(x)"):
        "8c926b12af4c1e1ce72d100aad2b92dd8af03b8864fd0012f784cfde0198011c",
    ("u-propagation", "cq", "exists y: R(x,y), U(y)"):
        "2c8a1df3496787b49d41586eabd86b239913206585ceb90eac11d17b86d14ec4",
    ("mutual-unary", "cq", "exists y: E(x,y), Q(y)"):
        "9f93374eeab012f1b892ca12e1320e75daac85a389e7441e2d362fa625aae127",
    ("mutual-unary", "cq", "exists x: P(x), Q(x)"):
        "0af8059488bf2c18662591636047ae7ed4a724c37d83fef3ab214ca475415264",
    ("edge-endpoint", "cq", "exists x,y: E(x,y), P(y)"):
        "602168925c6e8b5144b651da7b15fe317bc8d02e864acf511eb57784e0439e00",
    ("symmetric-loop", "cq", "exists x,y: E(x,y), E(y,x), L(x)"):
        "deff131253a72cf2f3a251758727144000ebeb0322a38bd744f79fc51c09ce27",
    ("unary-cycle", "cq", "A(x), C(x)"):
        "781a2ace13a598a14401617f5bd983cc6a48042f6cc48b1647337ee8383e76bf",
    ("unary-cycle", "fg", "A(x), C(x)"):
        "da1dbfa4f96256ea7c14bc8c871e2aa856127599b4e2fa449ea78d706122623e",
}


def _compile_blob(program_text: str, completeness: str, records) -> str:
    return "\n".join([program_text, completeness,
                      *(f"{r.candidate} | {r.verdict} | {r.kind}" for r in records)])


def _unpruned_blob(art) -> str:
    """The digested text as it was before subsumed rules were dropped: the
    declarations, the kept and the subsumed rules in text order, the
    completeness and every record but the subsumed ones."""
    lines = print_datalog(art.program).splitlines()
    subsumed = [r for r in art.certification if r.verdict == SUBSUMED]
    rules = sorted([line for line in lines if ":-" in line] + [r.candidate for r in subsumed])
    program = "\n".join([line for line in lines if ":-" not in line] + rules) + "\n"
    return _compile_blob(program, art.completeness,
                         [r for r in art.certification if r.verdict != SUBSUMED])


def test_compiled_programs_and_records_are_unchanged():
    assert sorted(COMPILE_DIGESTS) == sorted((name, scheme, text)
                                             for name, schemes, text in COMPILE_QUERIES
                                             for scheme in schemes)
    assert sorted(PRUNED_DIGESTS) == sorted(COMPILE_DIGESTS)
    for (name, scheme, text), digest in COMPILE_DIGESTS.items():
        _, art = compiled_problem(name, scheme, text)
        unpruned = _unpruned_blob(art)
        assert hashlib.sha256(unpruned.encode()).hexdigest() == digest, (name, scheme, text)
        pruned = _compile_blob(print_datalog(art.program), art.completeness, art.certification)
        assert (hashlib.sha256(pruned.encode()).hexdigest()
                == PRUNED_DIGESTS[name, scheme, text]), (name, scheme, text)


# ---------------------------------------------------------------------------
# subsumption-minimal programs: the benchmark's compiles and the whole corpus

PRUNE_COMPILES = ([(name, scheme, text) for name, schemes, text in COMPILE_QUERIES
                   for scheme in schemes]
                  + [(p.name, scheme, None) for p in PROBLEMS for scheme in SCHEMES])
PRUNE_IDS = [f"{name}-{scheme}-{i}" for i, (name, scheme, _) in enumerate(PRUNE_COMPILES)]


def _with_subsumed(art) -> DatalogProgram:
    """The emitted program with its subsumed rules put back, parsed from text."""
    subsumed = [r.candidate for r in art.certification if r.verdict == SUBSUMED]
    program = parse_datalog(print_datalog(art.program) + "".join(s + "\n" for s in subsumed))
    assert sorted(map(str, program.rules)) == sorted([*map(str, art.program.rules), *subsumed])
    return program


@pytest.mark.parametrize("name, scheme, text", PRUNE_COMPILES, ids=PRUNE_IDS)
def test_emitted_programs_are_subsumption_minimal(name, scheme, text):
    _, art = compiled_problem(name, scheme, text)
    kept = art.program.rules
    dropped = [r for r in _with_subsumed(art).rules if r not in kept]
    for r in dropped:
        assert any(naive_subsumes(k, r) for k in kept), r
    for g, r in itertools.permutations(kept, 2):
        assert not naive_subsumes(g, r), (g, r)


@pytest.mark.parametrize("name, scheme, text", PRUNE_COMPILES, ids=PRUNE_IDS)
def test_dropping_subsumed_rules_keeps_the_answers(name, scheme, text):
    problem, art = compiled_problem(name, scheme, text)
    unpruned = dataclasses.replace(art, program=_with_subsumed(art))
    sig = tgd_signature(problem.rules)
    rng = random.Random(PRUNE_COMPILES.index((name, scheme, text)))
    for _ in range(3):
        inst = random_instance(rng, sig, max_facts=12)
        assert evaluate_program(art, inst) == evaluate_program(unpruned, inst), inst


# ---------------------------------------------------------------------------
# evaluation plumbing

def test_evaluate_program_accepts_smaller_signatures():
    # instance lacking some edb relations still evaluates (no facts for them)
    art = rewrite_cq_guarded(RULES, Q_T)
    small = Instance(Signature([("R", 2), ("U", 1)]),
                     [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])
    assert evaluate_program(art, small) == AB
