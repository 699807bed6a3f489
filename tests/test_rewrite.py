"""Tests for compiling certain-answer problems into Datalog."""

import dataclasses
import gc
import hashlib
import itertools
import random

import pytest

from corpus import (COMPILE_QUERIES, FG_QUERIES, ORACLE_QUERIES, PROBLEMS, SCHEMES,
                    compile_problem, compiled_problem, corpus_problem)
from differential import dl_sweep, fg_sweep, sweep
from oracles import naive_rule_candidates, naive_subsumes
from randgen import random_cq, random_instance, random_signature
from shapes import cycle
from gnfkit import rewrite
from gnfkit.chase import TERMINATED, ChaseConfig, chase
from gnfkit.datalog import DatalogProgram, Rule, classify_datalog
from gnfkit.model import Fact, Instance, Signature, elem
from gnfkit.query import (RENAMING_CAP, Atom, ConjunctiveQuery, Cst, Var, atom,
                          atom_homomorphisms, canon_inst, core_cq, cq, cq_contained,
                          cq_equivalent, first_occurrence_vars, is_answer_guarded,
                          query_signature, substitute)
from gnfkit.rewrite import (CAPPED, COMPLETE_WITHIN_CAPS, ENTAILED, REJECTED, SUBSUMED, UNKNOWN,
                            RewriteConfig, _canonical_family_form, _certify, _copy_map,
                            _derivation_space, _inject_input_rules, _prepare, _query_family,
                            _rule_candidates, _squids, certain_answers_oracle,
                            evaluate_program, guard_extension_axioms,
                            rewrite_atomic_guarded, rewrite_cq_guarded, rewrite_fg)
from gnfkit.syntax import parse_datalog, parse_instance, parse_query, parse_theory, print_datalog
from gnfkit.tgd import classify, make_tgd, tgd_signature

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


def test_answer_guarded_families_drop_the_other_subqueries():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "y", "z"), atom("F", "x", "z")])
    squids, _ = _squids(q, 3)
    family, _ = _query_family(squids, set())
    guarded, _ = _query_family(squids, set(), answer_guarded_only=True)
    assert sorted(set(family) - set(guarded)) == ["(f0,f1) exists v0: E(f0,v0), E(v0,f1)",
                                                  "(f0,f1) exists v0: E(f0,v0), F(f1,v0)"]
    assert set(guarded) < set(family)
    assert all(map(is_answer_guarded, guarded.values()))


def test_query_predicates_skip_a_relation_named_like_them():
    art = rewrite_cq_guarded([], cq(["x"], [atom("Q0", "x")]))
    assert art.query_predicates == {"Q1": "(f0) Q0(f0)"}


# ---------------------------------------------------------------------------
# candidate enumeration

def _every_relation(sig):
    """A Boolean query over every relation of the signature, to which every
    relation and every rule over the signature is relevant."""
    return cq([], [Atom(r, tuple(Var(f"x{i}") for i in range(a))) for r, a in sig.arities.items()])


def _derivation_candidates(rules, sig):
    """Every candidate of the full-rule stage, named."""
    space, capped = _derivation_space(rules, sig, _every_relation(sig))
    assert not space.given
    return _rule_candidates(space.bodies, space.heads, _prepare(space.bodies)), capped


def _certified(rules, sig):
    """The full-rule stage over the signature, certified: the certification,
    the entailed candidates it named that are not tautologies, and whether
    one it named is unknown."""
    space, _ = _derivation_space(rules, sig, _every_relation(sig))
    return _certify(sig, space, RewriteConfig())


def _rule(cand):
    """A candidate's named rule."""
    body, head = cand.named()
    return make_tgd(list(body), [head])


def test_enumeration_is_deterministic_and_canonical():
    cands, capped = _derivation_candidates([], SIG)
    assert list(cands) == list(_derivation_candidates([], SIG)[0])
    # each candidate is keyed by its own text, so no two share a text
    assert [str(_rule(c)) for c in cands.values()] == list(cands)
    assert not capped
    records, _ = _certified([], SIG)[0].trail()
    assert records == _certified([], SIG)[0].trail()[0]
    assert [r.candidate for r in records] == sorted(cands)


def test_enumeration_relation_cap_flags_capped(monkeypatch):
    monkeypatch.setattr(rewrite, "MAX_RELATIONS", 2)
    cands, capped = _derivation_candidates([], SIG)
    assert capped
    used = {a.rel for c in cands.values() for a in (*c.body, c.head)}
    assert used <= {"R", "U"}
    art = rewrite_atomic_guarded(RULES, Q_T)
    assert art.capped and art.caps["max_relations"] == 2


def test_a_compile_enumerates_only_the_relations_the_query_reaches():
    """Of eight relations, the query reaches A0, A1, A2 and R, through the
    two rules that derive them.  The atomic and cq schemes, and fg through
    cq, enumerate over those four and certify under those two rules, so no
    cap is hit and the program finds the oracle's answer.  Its edb and
    imports still cover all eight relations."""
    sig, rules = parse_theory("tgd B1(x) -> B2(x). tgd B2(x) -> B3(x). tgd B3(x) -> B4(x). "
                              "tgd A0(x) -> exists y: R(x,y), A1(y). "
                              "tgd R(x,y), A1(y) -> A2(x).")
    assert list(sig.arities).index("R") == 7
    query, inst = parse_query("A2(x)", sig), parse_instance("A0(a).")
    assert certain_answers_oracle(rules, query, inst) == (frozenset({(elem("a"),)}), True)
    for scheme in SCHEMES.values():
        art = scheme(rules, query)
        assert art.completeness == COMPLETE_WITHIN_CAPS and not art.capped
        assert evaluate_program(art, inst) == {(elem("a"),)}
        assert art.program.edb == sig
        assert {a.rel for r in art.program.rules for a in r.body if a.rel in sig.arities} == set(sig.arities)


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
    # bodies whose renamings tie
    bodies += [((atom("E", "x", "y"), atom("E", "y", "x")), ("x", "y")),
               ((atom("E", "v1", "v0"), atom("E", "v0", "v1"), atom("U", "v0")), ("v1", "v0"))]
    heads = [("E", 2, None), ("U", 1, None), ("H", 0, None),
             ("Q0", 1, cq(["f0"], [atom("E", "f0", "v0")])),
             ("Q1", 0, cq([], [atom("U", "v0")]))]
    got = _rule_candidates(bodies, heads, _prepare(bodies))
    want = naive_rule_candidates(bodies, heads)
    assert list(got) == list(want)
    for key, cand in got.items():
        assert (_rule(cand), cand.kind) == want[key][:2], key
    assert any(isinstance(t, Cst) and t.name in ("v0", "v1")
               for c in got.values() for a in c.body for t in a.args)


def test_full_rule_naming_keeps_head_constants_and_first_occurrence():
    # a head constant named like a fresh name is skipped by the renaming
    rule = make_tgd([atom("E", "x", "y")], [Atom("H", (Var("y"), Cst("v0")))])
    assert list(_inject_input_rules([rule])) == ["E(v2,v1) -> H(v1,v0)"]
    # past the cap, variables are named by first occurrence in the head first
    wide = [f"y{i}" for i in range(RENAMING_CAP + 1)]
    rule = make_tgd([Atom("W", tuple(Var(v) for v in wide))], [atom("U", wide[5])])
    assert list(_inject_input_rules([rule])) == ["W(v1,v2,v3,v4,v5,v0,v6,v7) -> U(v0)"]


def test_enumerated_bodies_stay_under_the_renaming_cap():
    """A guard has at most ``MAX_ARITY`` variables; atomic and cq extra atoms
    use only those, and fg's one extra atom adds at most ``MAX_ARITY`` fresh
    ones, so no body has more than 6 variables and each is named on text."""
    rels = [(f"R{i}", rewrite.MAX_ARITY) for i in range(rewrite.MAX_RELATIONS)]
    for max_extra, k in ((rewrite.MAX_EXTRA_BODY_ATOMS, 0), (rewrite.FG_MAX_EXTRA_BODY_ATOMS, 8)):
        bodies, _ = rewrite._guarded_bodies(rels, max_extra, k)
        widths = {len({v for a in body for v in a.vars()}) for body, _ in bodies}
        assert max(widths) <= 6 <= RENAMING_CAP


def test_enumerated_candidates_are_guarded_and_full():
    cands, _ = _derivation_candidates([], SIG)
    for cand in cands.values():
        c = classify(_rule(cand))
        assert c.full and c.guarded


def test_cq_compile_prepares_each_guarded_body_once(monkeypatch):
    # the full heads and the query heads are named in one pass over the bodies
    problem = compile_problem("mutual-unary", "exists y: E(x,y), Q(y)")
    sig = tgd_signature(problem.rules, query_signature(problem.query))
    rels, _ = rewrite._enumeration_relations(sig)
    bodies, _ = rewrite._guarded_bodies(rels, rewrite.MAX_EXTRA_BODY_ATOMS)
    distinct = {frozenset(body) for body, _ in bodies}
    calls = []
    real = rewrite.body_renamings
    monkeypatch.setattr(rewrite, "body_renamings",
                        lambda atoms, *args, **kw: calls.append(atoms) or real(atoms, *args, **kw))
    rewrite_cq_guarded(problem.rules, problem.query)
    assert {frozenset(atoms) for atoms in calls} == distinct
    assert len(calls) == len(distinct) == 36


def test_rule_candidates_pick_one_renaming_per_body(monkeypatch):
    # under the renaming cap a head is named on text alone: pick_renaming
    # names each distinct body's closure once and no (body, head) pair
    rels, _ = rewrite._enumeration_relations(SIG)
    bodies, _ = rewrite._guarded_bodies(rels, rewrite.MAX_EXTRA_BODY_ATOMS)
    assert all(len({v for a in body for v in a.vars()}) <= RENAMING_CAP for body, _ in bodies)
    distinct = {frozenset(body) for body, _ in bodies}
    calls = []
    real = rewrite.pick_renaming
    monkeypatch.setattr(rewrite, "pick_renaming",
                        lambda renamings, *args: calls.append(renamings[0]) or real(renamings, *args))
    cands = _rule_candidates(bodies, [(r, a, None) for r, a in rels], _prepare(bodies))
    assert len(cands) > len(distinct)
    assert {frozenset(atoms) for atoms in calls} == distinct
    assert len(calls) == len(distinct)


def test_rule_candidates_escape_braces_in_relation_names():
    # relation names are literal text in the head and body templates
    bodies = [((Atom("R{x}", (Var("x"), Var("y"))), atom("U}", "y")), ("x", "y")),
              ((Atom("R{x}", (Var("y"), Var("x"))), atom("H{0}", "x", "x")), ("y", "x")),
              ((atom("U}", "x"), Atom("R{x}", (Var("x"), Cst("{0}")))), ("x",))]
    heads = [("H{0}", 2, None), ("U}", 1, None), ("{}", 0, None),
             ("Q{1}", 1, cq(["f0"], [atom("U}", "f0")]))]
    got = _rule_candidates(bodies, heads, _prepare(bodies))
    want = naive_rule_candidates(bodies, heads)
    assert list(got) == list(want)
    for key, cand in got.items():
        assert (_rule(cand), cand.kind) == want[key][:2], key


# ---------------------------------------------------------------------------
# derived full guarded rules, read off the atomic compile's rule records

def _rule_verdicts(art) -> dict[str, set[str]]:
    """The full-rule candidates of a compile by verdict."""
    out: dict[str, set[str]] = {}
    for r in art.certification:
        if r.kind == "rule" and r.verdict != SUBSUMED:
            out.setdefault(r.verdict, set()).add(r.candidate)
    return out


def test_derive_includes_expected_consequences():
    # SIG is the signature of RULES
    art = rewrite_atomic_guarded(RULES, Q_T)
    have = _rule_verdicts(art)[ENTAILED]
    assert "U(v0) -> T(v0)" in have
    assert "R(v0,v1), U(v1) -> U(v0)" in have
    assert "R(v0,v1), U(v1) -> T(v0)" in have
    assert not art.capped


def test_derive_only_trivial_rules_without_input_rules():
    # the certified candidates kept for the program are the entailed ones
    # whose head is not in their body
    certification, kept, _ = _certified([], Signature([("A", 1), ("B", 1)]))
    assert kept == []
    assert any(r.verdict == ENTAILED for r in certification.trail()[0])


def test_derive_composes_transitively():
    rules = [make_tgd([atom("A", "x")], [atom("B", "x")]),
             make_tgd([atom("B", "x")], [atom("C", "x")])]
    art = rewrite_atomic_guarded(rules, cq(["x"], [atom("C", "x")]))
    assert "A(v0) -> C(v0)" in _rule_verdicts(art)[ENTAILED]


def test_derive_rejects_non_consequences():
    verdicts = _rule_verdicts(rewrite_atomic_guarded(RULES, Q_T))
    # nothing implies U from T alone
    assert "T(v0) -> U(v0)" not in verdicts[ENTAILED]
    assert "T(v0) -> U(v0)" in verdicts[REJECTED]


def test_derive_certifies_every_kept_rule():
    certification, kept, _ = _certified(RULES, SIG)
    entailed = {r.candidate for r in certification.trail()[0] if r.verdict == ENTAILED}
    assert kept and all(str(_rule(c)) in entailed for c in kept)


def test_derive_is_monotone_in_caps(monkeypatch):
    prev = set()
    sizes = []
    for extra in (0, 1, 2):
        monkeypatch.setattr(rewrite, "MAX_EXTRA_BODY_ATOMS", extra)
        got = _rule_verdicts(rewrite_atomic_guarded(RULES, Q_T))[ENTAILED]
        assert prev <= got
        sizes.append(len(got))
        prev = got
    assert sizes[0] < sizes[1] < sizes[2]


@pytest.mark.parametrize("jobs", [0, -1, 2])
def test_jobs_must_be_1(jobs):
    with pytest.raises(ValueError, match="jobs must be 1: certification runs in one process"):
        RewriteConfig(jobs=jobs)
    assert RewriteConfig(jobs=1) == RewriteConfig()


@pytest.mark.parametrize("k", [-1, -3])
def test_k_must_not_be_negative(k):
    with pytest.raises(ValueError, match="k must be at least 0"):
        RewriteConfig(k=k)
    assert RewriteConfig(k=0).k == 0


# ---------------------------------------------------------------------------
# the certification trail, named when it is read

# the count and SHA-256 of the unknown records' texts, one a line, of
# null-producer V(x) under each scheme, as every candidate was named eagerly
NULL_PRODUCER_UNKNOWN = {
    "atomic": (58, "c571e0fc938c0382"),
    "cq": (66, "9b4b38db4f0bec93"),
}


@pytest.mark.parametrize("scheme", ["atomic", "cq"])
def test_completeness_is_decided_without_reading_the_trail(scheme, monkeypatch):
    """null-producer is capped by unknown verdicts alone.  A compile decides
    that from the heads it names, every head of a body whose chase stopped
    at its budget, without producing its trail."""
    problem = compile_problem("null-producer", "V(x)")

    def refuse(*args):
        raise AssertionError("the trail was produced")

    monkeypatch.setattr(rewrite._Certification, "trail", refuse)
    art = SCHEMES[scheme](problem.rules, problem.query)
    assert not art.capped and art.completeness == CAPPED
    monkeypatch.undo()
    unknown = [r.candidate for r in art.certification if r.verdict == UNKNOWN]
    count, digest = NULL_PRODUCER_UNKNOWN[scheme]
    assert len(unknown) == count
    assert hashlib.sha256("\n".join(unknown).encode()).hexdigest()[:16] == digest
    assert art.certification is art.certification


def test_the_trail_keeps_no_named_candidate():
    """Until the trail is read, the compile keeps the certification it is
    produced from, not the candidates certification named: only the input
    rules, named already, are reachable from the producer."""
    problem = compile_problem("null-producer", "V(x)")
    art = rewrite_cq_guarded(problem.rules, problem.query)
    reached, stack, seen = [], [art._produce], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, rewrite._Candidate):
            reached.append(obj)
        if callable(obj) and hasattr(obj, "__closure__"):
            # a function is followed into its closure only, not its globals
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    assert reached and all(c.closure is None for c in reached)
    assert any(r.verdict == ENTAILED and r.kind == "rule" for r in art.certification)


def test_a_compile_names_only_the_heads_it_needs(monkeypatch):
    """Until the trail is read, a compile names the entailed heads that are
    not in their body and that no sub-body (the body less one atom beside
    its guard) entails too, and every head of a body whose chase stopped at
    its budget: the candidates its program and completeness need.  The
    trail still lists each skipped candidate as entailed and its program
    rule as subsumed."""
    problem = compile_problem("null-producer", "V(x)")
    named: list[str] = []
    real = rewrite._rule_candidates

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        named.extend(out)
        return out

    monkeypatch.setattr(rewrite, "_rule_candidates", spy)
    art = rewrite_atomic_guarded(problem.rules, problem.query)
    eager = set(named)
    verdicts = {r.candidate: r.verdict for r in art.certification}
    monkeypatch.undo()
    sig = tgd_signature(problem.rules, query_signature(problem.query))
    space, _ = _derivation_space(problem.rules, sig, problem.query)
    prepared = _prepare(space.bodies)
    every = _rule_candidates(space.bodies, space.heads, prepared)
    closures = {c.closure.key: c.closure.atoms for c in every.values()}
    stopped = {key for key, atoms in closures.items()
               if chase(canon_inst(cq([], list(atoms)), sig)[0], space.rules).status
               != TERMINATED}
    want = set()
    for body, gvars in space.bodies:
        # the sub-bodies' entailed heads, over the body's own variable names
        below = {c.head for i in range(1, len(body))
                 for t, c in _rule_candidates([(body[:i] + body[i + 1:], gvars)],
                                              space.heads, prepared).items()
                 if verdicts[t] == ENTAILED}
        want |= {s for s, c in _rule_candidates([(body, gvars)], space.heads, prepared).items()
                 if c.closure.key in stopped
                 or (verdicts[s] == ENTAILED and c.head not in c.body and c.head not in below)}
    assert stopped and set(closures) - stopped
    assert eager == want
    assert len(eager) < len(every)

    skipped = {s for s, c in every.items()
               if verdicts[s] == ENTAILED and c.head not in c.body} - eager
    copies = _copy_map(sig)
    records = {(r.candidate, r.verdict, r.kind) for r in art.certification}
    subsumed = {r.candidate for r in art.certification if r.verdict == SUBSUMED}
    assert skipped
    for s in skipped:
        assert (s, ENTAILED, "rule") in records
        body, head = every[s].named()
        rule = Rule(Atom(copies[head.rel], head.args),
                    tuple(Atom(copies[a.rel], a.args) for a in body))
        assert str(rule) in subsumed, s


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
    # at k=3 the triangle's quotients and subqueries all fit
    art = rewrite_cq_guarded([], Q_TRI, RewriteConfig(k=3))
    assert not art.capped and art.completeness == COMPLETE_WITHIN_CAPS
    assert evaluate_program(art, cycle(3)) == {()}


def test_a_k_below_the_query_variables_marks_each_stage_capped():
    # the squid decompositions drop the triangle's three-variable quotients
    # and say so
    assert _squids(Q_TRI, 2)[1]
    assert not _squids(Q_TRI, 3)[1]
    # the goal rules drop the three-variable quotient, so no goal rule joins
    # premises over three variables, and the compile says so
    for k in (2, 3):
        art = rewrite_cq_guarded([], Q_TRI, RewriteConfig(k=k))
        assert art.capped == (k == 2)
        widths = {len({v for a in r.body for v in a.vars()}) for r in _goal_rules(art)}
        assert (3 in widths) == (k == 3)


def test_a_k_bound_keeps_the_order_of_the_squids_within_it():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "y", "z"), atom("F", "z", "w")])
    every, _ = _squids(q, 4)
    sizes = set()
    for k in range(5):
        bounded, _ = _squids(q, k)
        rest = iter(every)
        assert all(s in rest for s in bounded)  # an ordered subsequence
        sizes.add(len(bounded))
    assert len(sizes) == 5


def test_squids_quotient_only_the_variables_in_atoms():
    # an existential variable in no atom neither counts toward k nor names a class
    loose = ConjunctiveQuery((), ("a", "y", "b", "z"), (atom("R", "y", "z"), atom("R", "z", "y")))
    tight = cq([], [atom("R", "y", "z"), atom("R", "z", "y")])
    assert _squids(loose, 2)[0] == _squids(tight, 2)[0]
    # nor toward either cap
    wide = ConjunctiveQuery(("x",), tuple("abcdefg"), (atom("R", "x", "x"),))
    squids, capped = _squids(wide, 1)
    assert not capped and [free for free, _ in squids] == [["x"]]
    # past the quotient cap the identity quotient stays within k
    chain = cq(["x"], [atom("R", s, t) for s, t in zip("xabcdef", "abcdefg")])
    assert _squids(chain, 7) == ([], True)
    squids, capped = _squids(chain, 8)
    assert capped and squids and all(free == ["x"] for free, _ in squids)


def test_an_existential_in_no_atom_does_not_cap_a_compile():
    for text in ("exists z: R(x)", "R(x)"):
        art = rewrite_cq_guarded([], parse_query(text), RewriteConfig(k=1))
        assert not art.capped and art.completeness == COMPLETE_WITHIN_CAPS


# ---------------------------------------------------------------------------
# query generation and goal rules

def _records(art, kind: str) -> dict[str, str]:
    """The verdict of each certified candidate of the kind, by its text."""
    return {r.candidate: r.verdict for r in art.certification
            if r.kind == kind and r.verdict != SUBSUMED}


def _goal_rules(art) -> list:
    """The compile's entailed goal rules, those the prune dropped included."""
    return [r for r in _with_subsumed(art).rules if r.head.rel == art.program.goal]


def test_query_rules_include_guard_and_derived_bodies():
    art = rewrite_cq_guarded(RULES, Q_T)
    assert art.query_predicates == {"Q0": "(f0) T(f0)"}
    query_rules = _records(art, "query-rule")
    assert query_rules["T(v0) -> Q0(v0)"] == ENTAILED  # the query is its own guard
    assert query_rules["U(v0) -> Q0(v0)"] == ENTAILED  # derived via the rules


def test_query_rules_reject_unsupported_bodies():
    art = rewrite_cq_guarded(RULES, Q_T)
    assert _records(art, "query-rule")["R(v0,v1) -> Q0(v0)"] == REJECTED


def test_goal_rules_for_atomic_query():
    art = rewrite_cq_guarded(RULES, Q_T)
    (qname,) = art.query_predicates
    assert _records(art, "goal-rule") == {f"Goal(x) :- {qname}(x).": ENTAILED}


def test_goal_rules_split_triangle_into_edges():
    art = rewrite_cq_guarded([], Q_TRI)
    goals = _goal_rules(art)
    # some rule joins three premises, one per edge of the quotiented triangle
    assert any(len(r.body) == 3 for r in goals)
    # every goal rule is recorded as entailed
    entailed = {s for s, v in _records(art, "goal-rule").items() if v == ENTAILED}
    assert {str(r) for r in goals} == entailed


def _unfolded_goal_rules(art, query) -> list:
    """Each goal rule of a compile, its subsumed ones included, as a query
    over its head's arguments: every premise replaced by the family member
    it names, with that member's own variables made fresh."""
    family, _ = _query_family(_squids(query, art.caps["k"])[0], set())
    out = []
    for rule in _goal_rules(art):
        atoms = []
        for i, premise in enumerate(rule.body):
            member = family[art.query_predicates[premise.rel]]
            sub = {v: Var(f"p{i}_{v}") for v in member.exist_vars}
            sub.update(zip(member.free_vars, premise.args))
            atoms += [substitute(a, sub) for a in member.atoms]
        out.append(cq([t.name for t in rule.head.args if isinstance(t, Var)], atoms))
    return out


def _random_goal_compiles():
    rng = random.Random(67)
    for _ in range(120):
        q = random_cq(rng, random_signature(rng, max_rels=3, max_arity=2),
                      max_atoms=4, max_vars=4)
        yield q, rewrite_cq_guarded([], q, RewriteConfig(k=rng.randint(1, 4)))
    for name, scheme, text in PRUNE_COMPILES:
        if scheme == "cq":
            problem, art = compiled_problem(name, scheme, text)
            yield problem.query, art


def test_goal_rule_premises_unfold_into_the_query():
    """A goal rule's premises, unfolded through the query predicates they
    name, are contained in the query: the goal rules are sound by their
    construction, which no compile checks."""
    unfolded = 0
    for query, art in _random_goal_compiles():
        for member in _unfolded_goal_rules(art, query):
            assert cq_contained(member, query), (query, member)
            unfolded += 1
    assert unfolded >= 400


def test_query_and_goal_rules_read_k_from_the_config():
    def entailed_goal_rules(k: int) -> int:
        art = rewrite_cq_guarded([], Q_TRI, RewriteConfig(k=k))
        assert art.caps["k"] == k
        return sum(v == ENTAILED for v in _records(art, "goal-rule").values())

    assert entailed_goal_rules(2) == 6 and entailed_goal_rules(3) == 11


def test_a_four_atom_cycle_compiles_complete_at_its_own_k():
    """The 4-cycle query needs a goal rule with four premises, one per edge:
    its squid decomposition whose head holds every variable.  The default
    ``k`` is the query's 4 variables, and the program finds the oracle's
    answer on the 4-cycle."""
    q = cq([], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "w"),
                atom("E", "w", "x")])
    c4 = cycle(4)
    assert certain_answers_oracle([], q, c4) == (frozenset({()}), True)
    art = rewrite_cq_guarded([], q)
    assert art.caps["k"] == 4 and art.completeness == COMPLETE_WITHIN_CAPS
    assert any(len(r.body) == 4 for r in _goal_rules(art))
    assert evaluate_program(art, c4) == {()}


def test_scheme_trails_extend_the_full_rule_stage():
    """The cq scheme certifies the full guarded candidates record for record
    as the atomic scheme does over the same signature, whose trail holds
    nothing else; the cq scheme's trail goes on with all its query rules,
    then all its goal rules."""
    q_join = cq(["x"], [atom("R", "x", "y"), atom("T", "y")])
    q_edge = cq(["x", "y"], [atom("E", "x", "y")])
    for rules, q, atomic in ((RULES, Q_T, Q_T), (RULES, q_join, Q_T), ([], Q_TRI, q_edge)):
        full, trail = ([r for r in scheme(rules, query).certification
                        if r.kind != "import" and r.verdict != SUBSUMED]
                       for scheme, query in ((rewrite_atomic_guarded, atomic),
                                             (rewrite_cq_guarded, q)))
        assert full and all(r.kind == "rule" for r in full)
        assert [r for r in trail if r.kind == "rule"] == full
        assert trail[:len(full)] == full
        assert ([kind for kind, _ in itertools.groupby(r.kind for r in trail[len(full):])]
                == ["query-rule", "goal-rule"])


# ---------------------------------------------------------------------------
# guard extension predicates

def test_guard_extension_counts_for_binary_relation():
    ext = guard_extension_axioms(Signature([("R", 2)]))
    assert sorted(ext.predicates.values()) == ["R", "R_p0", "R_p1", "R_p2"]
    assert len(ext.axioms) == 6


def test_guard_extension_full_position_set_needs_no_axioms():
    # the relation itself is its full projection: no fresh name is declared
    ext = guard_extension_axioms(Signature([("R", 2)]))
    assert ext.predicates[("R", (1, 2))] == "R"
    assert sorted(ext.signature.arities) == ["R", "R_p0", "R_p1", "R_p2"]


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
    # the query is checked before guarded rules go to the cq scheme, which
    # would accept it
    for rules in (FG_RULES, RULES):
        with pytest.raises(ValueError, match="answer-guarded"):
            rewrite_fg(rules, q)


def test_fg_rewrite_rejects_non_frontier_guarded_rules():
    bad = [make_tgd([atom("R", "x", "y"), atom("R", "u", "v")],
                    [atom("R", "x", "u")])]
    with pytest.raises(ValueError):
        rewrite_fg(bad, FG_Q)


def test_fg_rewrite_agrees_with_oracle_on_guarded_example():
    art = rewrite_fg(RULES, Q_T)
    assert classify_datalog(art.program).frontier_guarded
    assert evaluate_program(art, INST) == AB


def _compile_record(art) -> tuple:
    return print_datalog(art.program), art.completeness, art.certification


@pytest.mark.parametrize("name", [p.name for p in PROBLEMS])
def test_fg_rewrite_is_the_cq_scheme_on_guarded_rules(name):
    assert (_compile_record(compiled_problem(name, "fg", None)[1])
            == _compile_record(compiled_problem(name, "cq", None)[1]))


def test_fg_rewrite_passes_its_unclamped_k_to_the_cq_scheme():
    # four query variables: the one default k is 4 under both schemes, past
    # MAX_K, so neither clamps the query
    q = cq([], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "w"),
                atom("E", "w", "x")])
    art = rewrite_fg([], q)
    assert art.caps["k"] == 4 and rewrite_cq_guarded([], q).caps["k"] == 4
    assert _compile_record(art) == _compile_record(rewrite_cq_guarded([], q))


def test_fg_compile_reports_its_known_miss_as_capped():
    """The pool cap drops the body fg needs on join-witness: the oracle
    answers P(e1) on this input, and the compiled program misses it.  The
    answers stay sound, and a miss is allowed only with the compile capped."""
    problem, art = compiled_problem("join-witness", "fg", "P(x)")
    inst = parse_instance("R(e1,e0). S(e0,e4).")
    oracle, terminated = certain_answers_oracle(problem.rules, problem.query, inst)
    assert terminated and oracle == {(elem("e1"),)}
    compiled = evaluate_program(art, inst)
    assert compiled <= oracle
    assert compiled == oracle or art.completeness == CAPPED


def test_fg_compile_enumerates_only_the_relations_the_answer_reaches():
    # join-witness behind three rules over relations the answer cannot
    # reach, declared first: fg's own construction compiles only what Ans
    # reaches, so the program is join-witness's plus the imports of B1-B4
    chain = [make_tgd([atom(f"B{i}", "x")], [atom(f"B{i + 1}", "x")]) for i in (1, 2, 3)]
    problem, plain = compiled_problem("join-witness", "fg", "P(x)")
    art = rewrite_fg(chain + list(problem.rules), problem.query)
    imports = {f"B{i}'": 1 for i in (1, 2, 3, 4)}
    assert len(plain.program.rules) == 55
    assert ([r for r in art.program.rules if r.head.rel not in imports]
            == list(plain.program.rules))
    assert art.program.idb.arities == {**plain.program.idb.arities, **imports}


def test_fg_programs_declare_only_relations_their_rules_mention():
    for name, _, text in FG_QUERIES:
        program = compiled_problem(name, "fg", text)[1].program
        mentioned = {a.rel for r in program.rules for a in (r.head, *r.body)}
        assert set(program.idb.arities) <= mentioned, (name, text)


def test_fg_names_avoid_the_copies_of_input_relations():
    # input relations Ans and R_p1 have the copies Ans' and R_p1', which
    # the answer predicate and R's projection on position 1 would otherwise
    # be named; the input fact Ans(d) must not become an answer
    rules = [make_tgd([atom("R", "x", "y"), atom("S", "y", "z")], [atom("P", "x")]),
             make_tgd([atom("P", "x")], [atom("Ans", "x")]),
             make_tgd([atom("R_p1", "x")], [atom("R_p1", "x")])]
    q = cq(["x"], [atom("P", "x")])
    art = rewrite_fg(rules, q)
    imported = {r.head.rel for r in art.program.rules
                if len(r.body) == 1 and r.body[0].rel in art.program.edb.arities}
    assert art.program.goal not in imported
    assert len(imported) == len(art.program.edb.arities)
    inst = parse_instance("R(a,b). S(b,c). Ans(d). R_p1(e).")
    assert evaluate_program(art, inst) == {(elem("a"),)}


def test_fg_extension_construction_runs_only_on_unguarded_rules(monkeypatch):
    calls = []
    real = rewrite.guard_extension_axioms
    monkeypatch.setattr(rewrite, "guard_extension_axioms",
                        lambda sig: calls.append(sig) or real(sig))
    art = rewrite_fg(RULES, Q_T)
    assert calls == [] and art.program.goal == "Goal"
    art = rewrite_fg(FG_RULES, FG_Q)
    assert len(calls) == 1 and art.program.goal == "Ans"


# ---------------------------------------------------------------------------
# differential check against the oracle

COMPILES = [(i, name, scheme, text)
            for i, (name, schemes, text) in enumerate(COMPILE_QUERIES + ORACLE_QUERIES
                                                      + FG_QUERIES)
            for scheme in schemes]


def test_compile_queries_parse_over_the_corpus_rules():
    assert sum(len(schemes) for _, schemes, _ in COMPILE_QUERIES) == 23
    for _, name, _, text in COMPILES:
        problem = compile_problem(name, text)
        if len(problem.query.atoms) == 1 and not problem.query.exist_vars:
            assert problem.query == corpus_problem(name).query


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


def test_compiled_answers_agree_with_the_oracle_on_random_theories():
    # 20 seeded arity-2 theories, each with 3-4 compiles, checked on 4
    # instances; at seed 0 the oracle decides 312 of 316 comparisons
    result = sweep(seed=0, theories=20)
    assert result.mismatches == []
    assert result.compiles >= 70 and result.decided >= 300


def test_compiled_answers_agree_with_the_oracle_on_three_atom_queries():
    # the same sweep with queries of up to 3 atoms over 3 variables; at seed
    # 0 the oracle decides 312 of 316 comparisons
    result = sweep(seed=0, theories=20, max_query_atoms=3)
    assert result.mismatches == []
    assert result.compiles >= 70 and result.decided >= 300


def test_compiled_answers_agree_with_the_oracle_on_four_atom_queries():
    # queries of up to 4 atoms over 4 variables: the default k takes the
    # query's variables and the goal rules come from squid decompositions,
    # so no compile is capped; at seed 0 the oracle decides 304 of 304
    # comparisons of 76 compiles
    result = sweep(seed=0, theories=20, max_query_atoms=4, max_query_vars=4)
    assert result.mismatches == []
    assert result.decided >= 280 and result.capped == 0


def test_fg_construction_agrees_with_the_oracle_on_random_theories():
    # 100 seeded draws, of which the 21 with an unguarded rule and an
    # answer-guarded query are compiled by fg's own construction and checked
    # on 4 instances; at seed 0 the oracle decides 84 of 84 comparisons, and
    # 15 compiles are capped (18 when fg enumerated irrelevant relations)
    result = fg_sweep(seed=0, theories=100)
    assert result.mismatches == []
    assert result.compiles >= 20 and result.decided >= 80 and result.capped <= 15


def test_compiled_answers_agree_with_the_oracle_on_random_dl_tboxes():
    # 40 seeded TBoxes over 5-15 relations, each compiled under the atomic and
    # cq schemes and checked on 4 instances; at seed 0 the oracle decides 286
    # of 320 comparisons, and 26 of the 80 compiles are capped, 22 of them
    # because the query reaches more than MAX_RELATIONS relations
    result = dl_sweep(seed=0, theories=40)
    assert result.mismatches == []
    assert result.compiles == 80 and result.decided >= 280 and result.capped <= 26


# SHA-256 of each compile's printed program with its subsumed rules put back,
# completeness and certification records less the subsumed ones, with every
# candidate named over its body as enumerated; any change to the naming, the
# enumeration or the trail shows up here.  The fg entries of guarded problems
# equal the cq entries of the same problem and query, since fg compiles
# guarded rules through the cq scheme; the frontier-guarded problems' entries
# pin fg's own construction.
COMPILE_DIGESTS = {
    ("u-propagation", "atomic", "T(x)"):
        "233bbbbf74fa4c1310a8fc10e2f353aacbcaee1333357ee99105ddc768abc268",
    ("u-propagation", "cq", "T(x)"):
        "efc72abc8f56ddf87bb5408dcd48ec7ca9a2912b10da51ba57dab824766c4169",
    ("edge-endpoint", "atomic", "P(x)"):
        "ce4e89942a554183eb7fcb0247656dab9b6fd03af4fb82e971cd0eeb818680f2",
    ("edge-endpoint", "cq", "P(x)"):
        "fa0c57ee2ceed7c3dc23f95335ab6d1696be49e97ff2d85c9957980f78b937d4",
    ("unary-cycle", "atomic", "C(x)"):
        "3cb5d153c96cd46f265a4ae35705a162a76e22dc5eee8a2c47bae947151fbb9e",
    ("unary-cycle", "cq", "C(x)"):
        "7206d9187ad07e436e04cea80f5169032c6b828e7b0008162de81c997d9604e0",
    ("unary-cycle", "fg", "C(x)"):
        "7206d9187ad07e436e04cea80f5169032c6b828e7b0008162de81c997d9604e0",
    ("null-producer", "atomic", "V(x)"):
        "24158b504a68cdf9894f3626605a8547f181f17c1c7f3a36245f042156f6640e",
    ("null-producer", "cq", "V(x)"):
        "35a1205e0c95c1cc8cc236d0f5e59cb8daa09b71c4f9104642a1b73482e2fe69",
    ("pair-marker", "atomic", "S(x,y)"):
        "d774949c1e19b70727c2bd2feb04de46e32786e2667e652846284acaa25b149c",
    ("pair-marker", "cq", "S(x,y)"):
        "0524f66553cacaec7f42169e232b7b4857bbba26f58d3d7316291bed8fd8362e",
    ("symmetric-loop", "atomic", "L(x)"):
        "84ba046dcee0ea613a3bd259ca6980b821103d1a7cbfe1ba617cd1e37ea6c405",
    ("symmetric-loop", "cq", "L(x)"):
        "8c28819cc09f6f80e5079ea180db2493b9e0c21f2940fe24be15161d67200e9c",
    ("symmetric-loop", "fg", "L(x)"):
        "8c28819cc09f6f80e5079ea180db2493b9e0c21f2940fe24be15161d67200e9c",
    ("mutual-unary", "atomic", "P(x)"):
        "c023f0101914864d6d6ce08aa0cb4c6592f2b9de32c366b52f246beb7f2f2c94",
    ("mutual-unary", "cq", "P(x)"):
        "4129185f268dc12eee4ea386d7a4c460fb2200df3604a121a4e036c2b5f4e7c2",
    ("u-propagation", "cq", "exists y: R(x,y), U(y)"):
        "08dd36a3c758a2b97a8283ef0499daa43c3d05f540afe08681a2864c6a53d057",
    ("mutual-unary", "cq", "exists y: E(x,y), Q(y)"):
        "d263dcca1c0e3de902b2cb535807533ba927f5f9bc1d5e9adf1de73b4a30138e",
    ("mutual-unary", "cq", "exists x: P(x), Q(x)"):
        "e831c520abbb98ab6f1c18db61b79f56ceca3f41c7e40f76b3743097b09a0c48",
    ("edge-endpoint", "cq", "exists x,y: E(x,y), P(y)"):
        "d7c7a7b9bc436b5424ef7bc0c586ba535a1a3fdeea7a5f02613477ba4add5b14",
    ("symmetric-loop", "cq", "exists x,y: E(x,y), E(y,x), L(x)"):
        "e92b754a2ee2b24818af6d15e63e929829bfe2a4381dfa145baa2d89d59fff47",
    ("unary-cycle", "cq", "A(x), C(x)"):
        "8a797ae20d3743acf40834c708d5d6ecf7069741c430694d637e11e77f622bab",
    ("unary-cycle", "fg", "A(x), C(x)"):
        "8a797ae20d3743acf40834c708d5d6ecf7069741c430694d637e11e77f622bab",
    ("join-witness", "fg", "P(x)"):
        "123a21cccc90956b75e77128de650df82b1bf5a96b3bd80ba4f676c13108a160",
    ("join-witness", "fg", "exists w: T(x,w)"):
        "192dcc45bba4a42f22e37e0a4e617812c148769e34eebca3aa0d2af3fba076ca",
    ("two-step-witness", "fg", "A(x)"):
        "1698e6d62633b3a0392be2044d32447d74a425e243fd760331ff8cb8aeb93b5f",
    ("two-step-witness", "fg", "exists w: F(x,w)"):
        "aa827b85ea2123c44bde4ec013d2f9f2d505a9601c2b8d72ab53ad1072d02599",
}


# the same digest over the emitted, subsumption-minimal programs and the full
# certification trail, subsumed records included
PRUNED_DIGESTS = {
    ("u-propagation", "atomic", "T(x)"):
        "532a1a288dde237ad1bef1545dc6534cdc0a2da3c30c852cf32230b2d9a20ec0",
    ("u-propagation", "cq", "T(x)"):
        "b320b2299c64e49f6d9e591cc5efda981bf0a132fe3fc1f4f58d0a3fe91a048e",
    ("edge-endpoint", "atomic", "P(x)"):
        "32a92bbc15b7cc149aa2da7d2ca64c623c8e1bafb70725d5839543a312a0b436",
    ("edge-endpoint", "cq", "P(x)"):
        "c10bd46a834edf7f6bc92477211774c0e5a32395ae0cbdf9633555bca4ad866b",
    ("unary-cycle", "atomic", "C(x)"):
        "a430d7fd295050567e20df639f2bf8b8c8baee5dd4c87402795df0fa5c9a9582",
    ("unary-cycle", "cq", "C(x)"):
        "ed2abcc6bbe2b3927711cb78daf0a5e245d393b24ac287667c04cbfb137a7492",
    ("unary-cycle", "fg", "C(x)"):
        "ed2abcc6bbe2b3927711cb78daf0a5e245d393b24ac287667c04cbfb137a7492",
    ("null-producer", "atomic", "V(x)"):
        "fae12a4457e998309017c2d8565222bfa53fbf26006ae39ce64585e79bca5ae7",
    ("null-producer", "cq", "V(x)"):
        "fbbeac9909dbc144dd76698e6d6ecc2c7a44e1a09a6beee88c3ba24df607019b",
    ("pair-marker", "atomic", "S(x,y)"):
        "1889993fb6c6f0b6c9f6bf2eb4c020fce226e581fab8819b35791d36b8b2f9d7",
    ("pair-marker", "cq", "S(x,y)"):
        "fb0808729bd06058c73f4d3a3cce1b18e677c0a97250df87c260adfcfcea5297",
    ("symmetric-loop", "atomic", "L(x)"):
        "149cb03c734339e1965f765540c29e579274a2628e1c08e6b12eedf09812921c",
    ("symmetric-loop", "cq", "L(x)"):
        "8eb761845c7d3c0a682ca154c29e81b092af35494ed14bf6ce564abd1f17a103",
    ("symmetric-loop", "fg", "L(x)"):
        "8eb761845c7d3c0a682ca154c29e81b092af35494ed14bf6ce564abd1f17a103",
    ("mutual-unary", "atomic", "P(x)"):
        "570627bdf55ecdcfee71e8e97ee5bd72963799ba82b4a31af3c96c787e6265ab",
    ("mutual-unary", "cq", "P(x)"):
        "63d0832ea7ddcfb4c456b11f83fce1c6326cff076a4097e01948371d5dfa9eb1",
    ("u-propagation", "cq", "exists y: R(x,y), U(y)"):
        "4a60e45182d04b2e87aaf5edcd053b31dd318b8e02a312ac44c3179b318a8f46",
    ("mutual-unary", "cq", "exists y: E(x,y), Q(y)"):
        "6e36ee735c537386abc7826eba7d1466f64a2e0075b12cae90b93c320d5a4b1a",
    ("mutual-unary", "cq", "exists x: P(x), Q(x)"):
        "6561f4e8e8111a341c78a0af26824b8abb4aef4413f8a9204439addf4a2ce30d",
    ("edge-endpoint", "cq", "exists x,y: E(x,y), P(y)"):
        "3db9468dede011f20b7cbb53ffe115fb9a10e8aa922b3ec3c2f1f825282b886c",
    ("symmetric-loop", "cq", "exists x,y: E(x,y), E(y,x), L(x)"):
        "e0b8521d645589cf0dd58d02336740a325eb4f6753197f8d22cc054c32d1b30a",
    ("unary-cycle", "cq", "A(x), C(x)"):
        "3dd7856210257d82982b18eb7a7408f86e6e771c9aa76323d8490818793f02b2",
    ("unary-cycle", "fg", "A(x), C(x)"):
        "3dd7856210257d82982b18eb7a7408f86e6e771c9aa76323d8490818793f02b2",
    ("join-witness", "fg", "P(x)"):
        "8d4a0526cfe1d4e32732a4f0ec4f38614b6fdd5c24e51ee3eaa1276c79e0e3a8",
    ("join-witness", "fg", "exists w: T(x,w)"):
        "25a5078ee2fe8425d2d64178f723467da5c754e547643083dec3723bd30ae177",
    ("two-step-witness", "fg", "A(x)"):
        "48698fc5cdd09dd1ec19866516ba93c502dc4e97696cc2c6393900e4e1c9f5a9",
    ("two-step-witness", "fg", "exists w: F(x,w)"):
        "c4c97b52a800799e94d7191964ac828995125d8849a1173c01fa4a280e55d1ee",
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
    assert sorted(COMPILE_DIGESTS) == sorted((name, scheme, text) for name, schemes, text
                                             in COMPILE_QUERIES + FG_QUERIES
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
                  + [(p.name, scheme, None) for p in PROBLEMS for scheme in SCHEMES]
                  + [(name, scheme, text) for name, schemes, text in FG_QUERIES
                     for scheme in schemes])
PRUNE_IDS = [f"{name}-{scheme}-{i}" for i, (name, scheme, _) in enumerate(PRUNE_COMPILES)]

# SHA-256 of each compile's printed program and completeness alone, without
# the certification trail: the candidates and records may change while the
# emitted programs stay the same
PROGRAM_DIGESTS = {
    ("u-propagation", "atomic", "T(x)"):
        "f3dc26772a4dda2045e9f6a51e4838ecf3ad3c945750eb86fc911583c70985af",
    ("u-propagation", "cq", "T(x)"):
        "8ccca4e805dd7bc4e0a3bd6ea3b0ed9167e3a7e219c1d14855f433ee48ca3c7e",
    ("edge-endpoint", "atomic", "P(x)"):
        "cd4401b29964a9d844fc96cc463093aefd9516417de824a58866e48e34dc6422",
    ("edge-endpoint", "cq", "P(x)"):
        "98166d46302da915aa19315d6106650bc3f2bd6043ce2f10b6a13662aef217a4",
    ("unary-cycle", "atomic", "C(x)"):
        "7f6e4e8ef0011412da8c471c6cdfeee4b48dc7162af38d133518e61285c4725b",
    ("unary-cycle", "cq", "C(x)"):
        "356b378e861ba5f016d38b813d1148e317eeba93704e09269c6f861cf80108dd",
    ("unary-cycle", "fg", "C(x)"):
        "356b378e861ba5f016d38b813d1148e317eeba93704e09269c6f861cf80108dd",
    ("null-producer", "atomic", "V(x)"):
        "9430a0d8baef6b59f9e23b0999e267ffe8ebda928168ccfa3dbab141deb2e120",
    ("null-producer", "cq", "V(x)"):
        "27c3461f2754c175d14704d8fdea7ce82f568c651b802c60c5820ed63bd7e1e3",
    ("pair-marker", "atomic", "S(x,y)"):
        "88aabc2cd2741e8954da1939b09dd5343df39b71a5ed332eefd6c9c2e0c92177",
    ("pair-marker", "cq", "S(x,y)"):
        "969339ca7c59e214c10428ab58ad43ccf3109dd615ba4639c73297a06c1da139",
    ("symmetric-loop", "atomic", "L(x)"):
        "28ddeed375f064b017525535674bf077fb4fa41d52caaee3f5a2ad9b8b23497c",
    ("symmetric-loop", "cq", "L(x)"):
        "0b4b5bb20bbb1836db455f3c53b9d389a3ed081797d9ebfdb75b5e93065ba984",
    ("symmetric-loop", "fg", "L(x)"):
        "0b4b5bb20bbb1836db455f3c53b9d389a3ed081797d9ebfdb75b5e93065ba984",
    ("mutual-unary", "atomic", "P(x)"):
        "6f8305fd32456b19a4bfe3e887b8057bc5ec5a2c994e2ec5dce360ce8b38e233",
    ("mutual-unary", "cq", "P(x)"):
        "59a3680ed0a915809239c911f7d1477ac7eaa9682344ceacddf917913d2f7628",
    ("u-propagation", "cq", "exists y: R(x,y), U(y)"):
        "5d7b014069c6ff301e92a373605272376d0b9a4fd74048c6dcfee1b7723f4fba",
    ("mutual-unary", "cq", "exists y: E(x,y), Q(y)"):
        "347a4cb034caff131bdd7967e65fb52ec8a855bf5e10115a1a96d641d8df9bfb",
    ("mutual-unary", "cq", "exists x: P(x), Q(x)"):
        "600b78f9b8fc789a9b9d985dc87bcf94e90318a24cde7de502f61c880dbb0fee",
    ("edge-endpoint", "cq", "exists x,y: E(x,y), P(y)"):
        "1967bed9dd71f6134f683fb2794769ba3fe5d3089251892d136bb6f899c620fc",
    ("symmetric-loop", "cq", "exists x,y: E(x,y), E(y,x), L(x)"):
        "a977b7b52eb2c0b98ab41c250225b09b79bbca789ed9421558bb76bc63363fe0",
    ("unary-cycle", "cq", "A(x), C(x)"):
        "2be61e947651e5931ba1936e64d066b59d17b90a2ecef5ce5791d733c5ac20f1",
    ("unary-cycle", "fg", "A(x), C(x)"):
        "2be61e947651e5931ba1936e64d066b59d17b90a2ecef5ce5791d733c5ac20f1",
    ("u-propagation", "atomic", None):
        "f3dc26772a4dda2045e9f6a51e4838ecf3ad3c945750eb86fc911583c70985af",
    ("u-propagation", "cq", None):
        "8ccca4e805dd7bc4e0a3bd6ea3b0ed9167e3a7e219c1d14855f433ee48ca3c7e",
    ("u-propagation", "fg", None):
        "8ccca4e805dd7bc4e0a3bd6ea3b0ed9167e3a7e219c1d14855f433ee48ca3c7e",
    ("edge-endpoint", "atomic", None):
        "cd4401b29964a9d844fc96cc463093aefd9516417de824a58866e48e34dc6422",
    ("edge-endpoint", "cq", None):
        "98166d46302da915aa19315d6106650bc3f2bd6043ce2f10b6a13662aef217a4",
    ("edge-endpoint", "fg", None):
        "98166d46302da915aa19315d6106650bc3f2bd6043ce2f10b6a13662aef217a4",
    ("unary-cycle", "atomic", None):
        "7f6e4e8ef0011412da8c471c6cdfeee4b48dc7162af38d133518e61285c4725b",
    ("unary-cycle", "cq", None):
        "356b378e861ba5f016d38b813d1148e317eeba93704e09269c6f861cf80108dd",
    ("unary-cycle", "fg", None):
        "356b378e861ba5f016d38b813d1148e317eeba93704e09269c6f861cf80108dd",
    ("flip-collect", "atomic", None):
        "6591e70e835f7e57c300f811f4618c9a9ca969926e6c852e2359712ef4188d1e",
    ("flip-collect", "cq", None):
        "a74298d2317dd0338a8135f2446109a403a5e6442537d17d288aec043c102bc3",
    ("flip-collect", "fg", None):
        "a74298d2317dd0338a8135f2446109a403a5e6442537d17d288aec043c102bc3",
    ("null-producer", "atomic", None):
        "9430a0d8baef6b59f9e23b0999e267ffe8ebda928168ccfa3dbab141deb2e120",
    ("null-producer", "cq", None):
        "27c3461f2754c175d14704d8fdea7ce82f568c651b802c60c5820ed63bd7e1e3",
    ("null-producer", "fg", None):
        "27c3461f2754c175d14704d8fdea7ce82f568c651b802c60c5820ed63bd7e1e3",
    ("pair-marker", "atomic", None):
        "88aabc2cd2741e8954da1939b09dd5343df39b71a5ed332eefd6c9c2e0c92177",
    ("pair-marker", "cq", None):
        "969339ca7c59e214c10428ab58ad43ccf3109dd615ba4639c73297a06c1da139",
    ("pair-marker", "fg", None):
        "969339ca7c59e214c10428ab58ad43ccf3109dd615ba4639c73297a06c1da139",
    ("symmetric-loop", "atomic", None):
        "28ddeed375f064b017525535674bf077fb4fa41d52caaee3f5a2ad9b8b23497c",
    ("symmetric-loop", "cq", None):
        "0b4b5bb20bbb1836db455f3c53b9d389a3ed081797d9ebfdb75b5e93065ba984",
    ("symmetric-loop", "fg", None):
        "0b4b5bb20bbb1836db455f3c53b9d389a3ed081797d9ebfdb75b5e93065ba984",
    ("triple-guard", "atomic", None):
        "784eb770ef5e48926bb00ae298b6165741a9ae97e9abc707ee1ae0bce3e84171",
    ("triple-guard", "cq", None):
        "15da8f12ccefce2394295387057a8bbbd28813f4c4f0f35d082b70735c0fada9",
    ("triple-guard", "fg", None):
        "15da8f12ccefce2394295387057a8bbbd28813f4c4f0f35d082b70735c0fada9",
    ("mutual-unary", "atomic", None):
        "6f8305fd32456b19a4bfe3e887b8057bc5ec5a2c994e2ec5dce360ce8b38e233",
    ("mutual-unary", "cq", None):
        "59a3680ed0a915809239c911f7d1477ac7eaa9682344ceacddf917913d2f7628",
    ("mutual-unary", "fg", None):
        "59a3680ed0a915809239c911f7d1477ac7eaa9682344ceacddf917913d2f7628",
    ("two-hop", "atomic", None):
        "98a19ed27a74335ef8143c4d0a5a1b105c2c90b3410477a499eb4d2e21999490",
    ("two-hop", "cq", None):
        "d94fd737ad2f7bc8d7b56590818fdf231f065071c2d5690def75bce39fd45454",
    ("two-hop", "fg", None):
        "d94fd737ad2f7bc8d7b56590818fdf231f065071c2d5690def75bce39fd45454",
    ("double-head", "atomic", None):
        "99cf43936851744d5a5af509ec9aac3a2f7b53567e6e4e6bf93c188655ee3155",
    ("double-head", "cq", None):
        "b0fc65483469919964f83c92b865120b770fbe13aaa4a8e60048b74a559f1507",
    ("double-head", "fg", None):
        "b0fc65483469919964f83c92b865120b770fbe13aaa4a8e60048b74a559f1507",
    ("witness-mark", "atomic", None):
        "0284190f6b100c1403f6024788e3664e92c7a0473dfec1e5e7de86ef48de5590",
    ("witness-mark", "cq", None):
        "8fc428f7af6432ee03a8d110297a4f45a9826369f7a9d8f61f768b73087b3c08",
    ("witness-mark", "fg", None):
        "8fc428f7af6432ee03a8d110297a4f45a9826369f7a9d8f61f768b73087b3c08",
    ("join-witness", "fg", "P(x)"):
        "65865b3c6438233f1b1a245431bfe1652e424d23412ef00ec62993817b46c2c1",
    ("join-witness", "fg", "exists w: T(x,w)"):
        "3bfbdc425e272e55e5a655fb46607bf9d56616f5b21c8c40199b886c8f750fb1",
    ("two-step-witness", "fg", "A(x)"):
        "f6e5fff0c29271698a92aa34930d550a795f9153d897eced6b5a01452dcb4104",
    ("two-step-witness", "fg", "exists w: F(x,w)"):
        "ee69e3098672f913f2f2a95619cb3b657426c2a22d068016a4070e7f5ab7720d",
}


def test_emitted_programs_are_unchanged():
    assert list(PROGRAM_DIGESTS) == PRUNE_COMPILES
    for (name, scheme, text), digest in PROGRAM_DIGESTS.items():
        _, art = compiled_problem(name, scheme, text)
        blob = _compile_blob(print_datalog(art.program), art.completeness, [])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (name, scheme, text)


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


def _included(general, specific) -> bool:
    """Whether a one-to-one renaming of the general rule's variables onto
    variables sends its head onto the specific head and its body into the
    specific body."""
    pairs = list(zip(general.head.args, specific.head.args))
    seed = dict(pairs)
    if (general.head.rel != specific.head.rel or any(seed[s] != t for s, t in pairs)
            or any(s != t for s, t in pairs if isinstance(s, Cst))
            or not {a.rel for a in general.body} <= {a.rel for a in specific.body}):
        return False
    for h in atom_homomorphisms(general.body, specific.body, seed):
        images = [t for s, t in h.items() if isinstance(s, Var)]
        if all(isinstance(t, Var) for t in images) and len(set(images)) == len(images):
            return True
    return False


def _prune_keeps_its_rules_without_included_ones(rules, prune) -> bool:
    """Whether the prune keeps the same rules once every rule that a rule of
    the set with a smaller body subsumes by inclusion is removed beforehand,
    as certification does when a sub-body entails a body's head."""
    by_text = {str(r): r for r in rules}
    by_head: dict[str, list] = {}
    for r in rules:
        by_head.setdefault(r.head.rel, []).append(r)
    included = {s for s, r in by_text.items()
                if any(len(g.body) < len(r.body) and _included(g, r) for g in by_head[r.head.rel])}
    return prune(by_text) == prune({s: r for s, r in by_text.items() if s not in included})


@pytest.mark.parametrize("name, scheme, text", PRUNE_COMPILES, ids=PRUNE_IDS)
def test_rules_included_in_smaller_ones_change_no_prune(name, scheme, text):
    _, art = compiled_problem(name, scheme, text)
    rules = _with_subsumed(art).rules
    assert _prune_keeps_its_rules_without_included_ones(rules, rewrite._prune_subsumed)


def test_a_prune_that_evicts_before_dropping_fails_the_inclusion_check():
    # the mutant lets a rule that a kept one subsumes evict the rules it
    # subsumes first, so a rule over a body and the one over its core
    # included in it trade places
    def evicting_first(rules):
        kept = {}
        for s, r in sorted(rules.items(), key=lambda item: (len(item[1].body), item[0])):
            same_head = kept.setdefault(r.head.rel, {})
            for other in [other for other, k in same_head.items() if rewrite._subsumes(r, k)]:
                del same_head[other]
            if not any(rewrite._subsumes(k, r) for k in same_head.values()):
                same_head[s] = r
        return {s for same_head in kept.values() for s in same_head}

    _, art = compiled_problem("symmetric-loop", "atomic", None)
    rules = _with_subsumed(art).rules
    assert _prune_keeps_its_rules_without_included_ones(rules, rewrite._prune_subsumed)
    assert not _prune_keeps_its_rules_without_included_ones(rules, evicting_first)


@pytest.mark.parametrize("name, scheme, text", PRUNE_COMPILES, ids=PRUNE_IDS)
def test_dropping_subsumed_rules_keeps_the_answers(name, scheme, text):
    problem, art = compiled_problem(name, scheme, text)
    unpruned = dataclasses.replace(art, program=_with_subsumed(art))
    sig = tgd_signature(problem.rules)
    rng = random.Random(PRUNE_COMPILES.index((name, scheme, text)))
    for _ in range(3):
        inst = random_instance(rng, sig, max_facts=12)
        assert evaluate_program(art, inst) == evaluate_program(unpruned, inst), inst


@pytest.mark.parametrize("name, scheme, text", PRUNE_COMPILES, ids=PRUNE_IDS)
def test_emitted_rule_bodies_are_cores_around_their_heads(name, scheme, text):
    # candidates are named over bodies as enumerated; the prune keeps, of a
    # body and its core, the rule over the core
    _, art = compiled_problem(name, scheme, text)
    heads = {*_copy_map(art.program.edb).values(), *art.query_predicates}
    for r in art.program.rules:
        if r.head.rel in heads:
            frees = [v for v in first_occurrence_vars(r.body) if v in r.head.vars()]
            assert len(core_cq(cq(frees, r.body)).atoms) == len(set(r.body)), r


# ---------------------------------------------------------------------------
# evaluation plumbing

def test_evaluate_program_accepts_smaller_signatures():
    # instance lacking some edb relations still evaluates (no facts for them)
    art = rewrite_cq_guarded(RULES, Q_T)
    small = Instance(Signature([("R", 2), ("U", 1)]),
                     [Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),))])
    assert evaluate_program(art, small) == AB
