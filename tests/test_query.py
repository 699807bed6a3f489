"""Tests for conjunctive queries: evaluation, containment, cores, acyclicity, treeify."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

import gnfkit
from gnfkit.model import Fact, Instance, Signature, active_domain, const, elem
from gnfkit.query import (
    RENAMING_CAP,
    Atom,
    ConjunctiveQuery,
    Cst,
    Relation,
    UnionOfCQs,
    Var,
    atom,
    atom_homomorphisms,
    canon_inst,
    canonical_cq,
    canonical_renaming,
    components,
    cq,
    cq_contained,
    cq_equivalent,
    core_cq,
    cst,
    eval_cq,
    first_occurrence_vars,
    guard_index,
    instance_tuples,
    is_acyclic,
    is_answer_guarded,
    match_atoms,
    query_signature,
    quotients,
    round_joins,
    treeify,
    _ordered_for_join,
)

from oracles import join_tree_exists, naive_eval_cq, naive_homomorphisms, naive_treeify
from randgen import random_cq, random_instance, random_signature
from shapes import cycle, path

TRIANGLE = cq([], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")])
LOOP = cq([], [atom("E", "x", "x")])


# ---------------------------------------------------------------- construction


def test_atom_builder_and_vars():
    a = atom("R", "x", "y", "x")
    assert a.vars() == ("x", "y")
    assert str(a) == "R(x,y,x)"
    b = Atom("R", (Var("x"), cst("c")))
    assert b.vars() == ("x",)
    assert str(b) == "R(x,c)"


def test_terms_and_atoms_built_apart_are_equal_and_hash_alike():
    assert Var("x") is not Var("x") and Var("x") == Var("x")
    assert hash(Var("x")) == hash(Var("x")) == hash(("x",)) == hash(Cst("x"))
    a, b = (Atom("R", (Var("x"), Cst("c"))) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(("R", (Var("x"), Cst("c"))))
    assert {a: 1}[b] == 1


def test_terms_compare_by_class_and_never_equal_tuples():
    assert Var("x") != Cst("x") and Cst("x") != Var("x")
    assert len({Var("x"), Cst("x")}) == 2
    assert Var("x") != ("x",) and Cst("c") != ("c",)
    assert atom("R", "x") != ("R", (Var("x"),))


def test_terms_and_atoms_keep_their_text_and_slots():
    a = Atom("R", (Var("x"), Cst("c")))
    assert (str(a), repr(a), str(Var("x")), repr(Cst("c"))) == ("R(x,c)", "R(x,c)", "x", "c")
    assert not any(hasattr(obj, "__dict__") for obj in (Var("x"), Cst("c"), a))
    with pytest.raises(AttributeError):
        Var("x").name = "y"
    with pytest.raises(AttributeError):
        a.args = ()


def test_an_atom_with_list_arguments_fails_when_built():
    with pytest.raises(TypeError):
        Atom("R", [Var("x"), Var("y")])


def test_cq_infers_existentials_in_first_occurrence_order():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "y", "z")])
    assert q.free_vars == ("x",)
    assert q.exist_vars == ("y", "z")


def test_cq_validation():
    with pytest.raises(ValueError):
        ConjunctiveQuery(("x",), ("x",), (atom("E", "x", "x"),))
    with pytest.raises(ValueError):
        ConjunctiveQuery(("x",), (), (atom("E", "y", "y"),))
    with pytest.raises(ValueError):
        cq(["x"], [atom("E", "y", "y")])  # free variable in no atom


def test_union_members_must_agree_on_arity():
    q1 = cq(["x"], [atom("U", "x")])
    q0 = cq([], [atom("U", "x")])
    with pytest.raises(ValueError):
        UnionOfCQs((q1, q0))
    assert len(UnionOfCQs((q1, q1)).members) == 2


def test_query_signature_inference():
    q = cq(["x"], [atom("E", "x", "y"), Atom("U", (cst("c"),))])
    sig = query_signature(q)
    assert sig.arities == {"E": 2, "U": 1}
    assert tuple(sig.constants) == ("c",)
    with pytest.raises(ValueError):
        query_signature(cq([], [atom("E", "x", "y"), atom("E", "x")]))


def test_canon_inst_builds_one_element_per_variable():
    q = cq(["x"], [atom("E", "x", "y"), Atom("U", (cst("c"),))])
    inst, free = canon_inst(q)
    assert free == (elem("x"),)
    assert Fact("U", (const("c"),)) in inst
    assert Fact("E", (elem("x"), elem("y"))) in inst
    assert len(inst.facts) == 2


# ---------------------------------------------------------------- evaluation


def test_triangle_query_on_cycles():
    assert eval_cq(TRIANGLE, cycle(3)) == {()}
    assert eval_cq(TRIANGLE, cycle(4)) == set()


def test_unary_projection_answers():
    q = cq(["x"], [atom("E", "x", "y")])
    assert eval_cq(q, cycle(3)) == {(elem("n1"),), (elem("n2"),), (elem("n3"),)}
    assert eval_cq(q, path(2)) == {(elem("p1"),)}


def test_eval_with_binding_restricts_answers():
    q = cq(["x", "y"], [atom("E", "x", "y")])
    got = eval_cq(q, cycle(3), binding={"x": elem("n2")})
    assert got == {(elem("n2"), elem("n3"))}


def test_eval_with_constants():
    sig = Signature([("E", 2)], ("c",))
    i = Instance(sig, [Fact("E", (const("c"), elem("a"))),
                       Fact("E", (elem("a"), elem("b")))])
    q = cq(["x"], [Atom("E", (cst("c"), Var("x")))])
    assert eval_cq(q, i) == {(elem("a"),)}
    with pytest.raises(ValueError):
        eval_cq(q, cycle(3))  # c not interpreted there


def test_eval_cq_agrees_with_exhaustive_evaluation():
    rng = random.Random(17)
    for _ in range(300):
        sig = random_signature(rng, max_rels=3, max_arity=3)
        q = random_cq(rng, sig, max_atoms=3, max_vars=4)
        i = random_instance(rng, sig, max_elems=4, max_facts=8)
        assert eval_cq(q, i) == naive_eval_cq(q, i)


def test_relation_add_updates_an_index_built_by_an_earlier_probe():
    a, b, c = elem("a"), elem("b"), elem("c")
    rel = Relation([(a, b)])
    assert list(rel.probe((0,), (a,))) == [(a, b)]
    assert not list(rel.probe((0,), (c,)))
    assert rel.add((a, c)) and rel.add((c, a))
    assert not rel.add((a, c))
    assert sorted(rel.probe((0,), (a,)), key=str) == [(a, b), (a, c)]
    assert list(rel.probe((0,), (c,))) == [(c, a)]
    assert sorted(rel.probe((1,), (a,)), key=str) == [(c, a)]  # built after the adds


def test_match_atoms_agrees_with_exhaustive_evaluation():
    # constants, repeated variables and a pre-bound binding decide which
    # positions each atom probes on
    rng = random.Random(23)
    sig = Signature([("E", 2), ("T", 3), ("U", 1)], ("c", "d"))
    values = [elem("a"), elem("b"), elem("e"), const("c"), const("d")]
    terms = [Var("x"), Var("y"), Var("z"), cst("c"), cst("d")]
    answered = {"constant": 0, "repeated": 0, "bound": 0}
    for _ in range(600):
        facts = {Fact(rel, tuple(rng.choice(values) for _ in range(sig.arities[rel])))
                 for rel in rng.choices(sig.relations(), k=rng.randint(4, 20))}
        inst = Instance(sig, facts)
        atoms = [Atom(rel, tuple(rng.choice(terms) for _ in range(sig.arities[rel])))
                 for rel in rng.choices(sig.relations(), k=rng.randint(1, 3))]
        names = sorted({v for a in atoms for v in a.vars()})
        binding = {v: rng.choice(values) for v in names if rng.random() < 0.3}
        q = cq(names, atoms)
        want = naive_eval_cq(q, inst, binding)
        sources = [Relation(instance_tuples(inst, a.rel)) for a in atoms]
        got = {tuple(m[v] for v in names)
               for m in match_atoms(atoms, sources, dict(binding),
                                    lambda c: inst.const_interp[c])}
        assert got == want, (atoms, binding, inst)
        assert eval_cq(q, inst, binding) == want
        if want:
            answered["constant"] += bool(q.constants())
            answered["repeated"] += any(len(a.vars()) < sum(isinstance(t, Var) for t in a.args)
                                        for a in atoms)
            answered["bound"] += bool(binding)
    assert min(answered.values()) >= 10, answered


def test_round_joins_plans_full_bodies_then_one_join_per_delta_position():
    a, b, c = elem("a"), elem("b"), elem("c")
    rels = {"E": Relation({(a, b), (b, c)}), "U": Relation({(a,)}), "T": Relation()}
    exy, eyz, ux, ty = atom("E", "x", "y"), atom("E", "y", "z"), atom("U", "x"), atom("T", "y")
    bodies = [(ux, exy), (ux,), (exy, eyz), (exy, ty)]

    # first round: each body in full, in join order; the body over empty T is skipped
    first = list(round_joins(bodies, rels, None))
    assert [(bi, order) for bi, order, _ in first] == \
        [(bi, _ordered_for_join(body)) for bi, body in enumerate(bodies[:3])]
    for _, order, sources in first:
        assert all(s is rels[x.rel] for x, s in zip(order, sources))

    # later rounds: the delta atom first, against the delta; E twice gives two joins
    delta = {"E": Relation({(b, c)})}
    later = list(round_joins(bodies, rels, delta))
    assert [(bi, order) for bi, order, _ in later] == [
        (0, [exy, ux]), (2, [exy] + _ordered_for_join([eyz], ["x", "y"])),
        (2, [eyz] + _ordered_for_join([exy], ["y", "z"]))]
    for _, order, sources in later:
        assert sources[0] is delta["E"]
        assert all(s is rels[x.rel] for x, s in zip(order[1:], sources[1:]))


def test_round_joins_find_exactly_the_matches_that_use_the_delta():
    rng = random.Random(29)
    sig = Signature([("E", 2), ("T", 3), ("U", 1)])
    values = [elem("a"), elem("b"), elem("c")]
    terms = [Var("x"), Var("y"), Var("z")]

    def some_facts(k):
        return {Fact(rel, tuple(rng.choice(values) for _ in range(sig.arities[rel])))
                for rel in rng.choices(sig.relations(), k=k)}

    skipped = 0
    for _ in range(300):
        old = some_facts(rng.randint(0, 8))
        new = some_facts(rng.randint(0, 3)) - old
        rels = {r: Relation(f.args for f in old | new if f.rel == r) for r in sig.arities}
        delta = {r: Relation(f.args for f in new if f.rel == r) for r in {f.rel for f in new}}
        bodies = [[Atom(rel, tuple(rng.choice(terms) for _ in range(sig.arities[rel])))
                   for rel in rng.choices(sig.relations(), k=rng.randint(1, 3))]
                  for _ in range(rng.randint(1, 3))]
        queries = [cq(sorted({v for x in body for v in x.vars()}), body) for body in bodies]

        def matches(facts):
            inst = Instance(sig, facts)
            return {(bi, ans) for bi, q in enumerate(queries) for ans in naive_eval_cq(q, inst)}

        for d, want in ((None, matches(old | new)), (delta, matches(old | new) - matches(old))):
            got = set()
            for bi, order, sources in round_joins(bodies, rels, d):
                assert all(s.tuples for s in sources)
                names = queries[bi].free_vars
                got |= {(bi, tuple(m[v] for v in names))
                        for m in match_atoms(order, sources, {}, None)}
            assert got == want, (bodies, old, new)
            planned = len(bodies) if d is None else sum(x.rel in d for b in bodies for x in b)
            skipped += planned - len(list(round_joins(bodies, rels, d)))
    assert skipped >= 20, skipped


# ---------------------------------------------------------------- containment


def test_loop_entails_triangle_but_not_conversely():
    assert cq_contained(LOOP, TRIANGLE)
    assert not cq_contained(TRIANGLE, LOOP)


def test_containment_requires_matching_arity():
    with pytest.raises(ValueError):
        cq_contained(LOOP, cq(["x"], [atom("E", "x", "x")]))


def test_containment_with_constants():
    q1 = cq([], [Atom("E", (cst("c"), cst("c")))])
    q2 = cq([], [atom("E", "x", "y")])
    assert cq_contained(q1, q2)
    assert not cq_contained(q2, q1)


def test_equivalence_of_redundant_query():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "x", "z")])
    single = cq(["x"], [atom("E", "x", "y")])
    assert cq_equivalent(q, single)
    assert not cq_equivalent(single, cq(["x"], [atom("E", "y", "x")]))


def test_containment_is_sound_on_random_queries():
    rng = random.Random(29)
    for _ in range(60):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        q1 = random_cq(rng, sig, max_atoms=2, max_vars=3, n_free=1)
        q2 = random_cq(rng, sig, max_atoms=2, max_vars=3, n_free=1)
        i = random_instance(rng, sig, max_elems=3, max_facts=6)
        if cq_contained(q1, q2):
            assert eval_cq(q1, i) <= eval_cq(q2, i)


# ---------------------------------------------------------------- cores


def test_core_collapses_redundant_atoms():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "x", "z")])
    c = core_cq(q)
    assert len(c.atoms) == 1
    assert cq_equivalent(c, q)


def test_core_of_triangle_is_triangle():
    c = core_cq(TRIANGLE)
    assert len(c.atoms) == 3
    assert cq_equivalent(c, TRIANGLE)


def test_core_with_constants():
    q = cq([], [Atom("E", (cst("c"), Var("x"))), Atom("E", (cst("c"), Var("y")))])
    c = core_cq(q)
    assert len(c.atoms) == 1
    assert cq_equivalent(c, q)


def test_core_is_equivalent_and_no_larger_on_random_queries():
    rng = random.Random(37)
    for _ in range(80):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        q = random_cq(rng, sig, max_atoms=3, max_vars=4)
        c = core_cq(q)
        assert len(c.atoms) <= len(q.atoms)
        assert cq_equivalent(c, q)


RELS = (("E", 2), ("F", 2), ("U", 1))


def _random_atoms(rng, terms, max_atoms, rels=RELS):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel, arity = rng.choice(rels)
        atoms.append(Atom(rel, tuple(rng.choice(terms) for _ in range(arity))))
    return atoms


def test_first_occurrence_vars_agree_with_concatenated_atom_vars():
    rng = random.Random(61)
    terms = [Var("x"), Var("y"), Var("z"), Var("c"), Cst("c"), Cst("d")]
    for _ in range(300):
        atoms = _random_atoms(rng, terms, 4, RELS + (("T", 3),))
        expected = []
        for a in atoms:
            expected += [v for v in a.vars() if v not in expected]
        assert first_occurrence_vars(atoms) == expected, atoms
    assert first_occurrence_vars([]) == []


def _random_query(rng, terms, max_atoms, n_free):
    """A CQ over E/2, F/2 and U/1 whose first n_free variables (fewer when it
    has fewer) are free."""
    atoms = _random_atoms(rng, terms, max_atoms)
    used = list(dict.fromkeys(v for a in atoms for v in a.vars()))
    return cq(used[:n_free], atoms)


def _value(t):
    return elem(t.name) if isinstance(t, Var) else const(t.name)


def _naive_atom_homomorphisms(src, dst, seed):
    """`naive_homomorphisms` between the canonical instances of the two atom
    sets, with constants seeded to themselves, as maps of src's terms."""
    sig = query_signature(cq([], dst), query_signature(cq([], src)))
    src_inst, _ = canon_inst(cq([], src), sig)
    dst_inst, _ = canon_inst(cq([], dst), sig)
    pinned = {const(c): const(c) for c in sig.constants}
    pinned.update((_value(s), _value(t)) for s, t in seed.items())
    terms = {t for a in src for t in a.args}
    term_of = {const(c): Cst(c) for c in sig.constants}
    term_of.update((_value(t), t) for a in dst for t in a.args)
    return {frozenset((t, term_of[h[_value(t)]]) for t in terms)
            for h in naive_homomorphisms(src_inst, dst_inst, pinned)}


def _atom_set_pairs(seed, n):
    """Seeded (src, dst, seed map) triples with constants, repeated
    variables, and a variable named like a constant."""
    rng = random.Random(seed)
    src_terms = [Var("x"), Var("y"), Var("c"), Cst("c"), Cst("d")]
    dst_terms = [Var("x"), Var("u"), Var("c"), Cst("c"), Cst("d")]
    for _ in range(n):
        src = _random_atoms(rng, src_terms, 2, RELS[::2])
        dst = _random_atoms(rng, dst_terms, 5, RELS[::2])
        variables = sorted({Var(v) for a in src for v in a.vars()}, key=str)
        hom_seed = {}
        if variables and rng.random() < 0.4:
            hom_seed[rng.choice(variables)] = rng.choice(dst_terms)
        yield src, dst, hom_seed


def test_atom_homomorphisms_agree_with_exhaustive_search():
    found = 0
    for src, dst, seed in _atom_set_pairs(53, 300):
        got = [frozenset(h.items()) for h in atom_homomorphisms(src, dst, seed)]
        assert len(got) == len(set(got)), (src, dst, seed)
        assert set(got) == _naive_atom_homomorphisms(src, dst, seed), (src, dst, seed)
        found += bool(got)
    assert found >= 60, found


def test_atom_homomorphisms_fix_constants_and_extend_the_seed():
    src = [Atom("E", (Var("x"), Cst("c")))]
    dst = [Atom("E", (Var("u"), Cst("c"))), Atom("E", (Var("u"), Var("c"))),
           Atom("E", (Cst("d"), Cst("c")))]
    assert [h[Var("x")] for h in atom_homomorphisms(src, dst, {})] == [Cst("d"), Var("u")]
    assert list(atom_homomorphisms(src, dst, {Var("x"): Var("u")})) == [
        {Var("x"): Var("u"), Cst("c"): Cst("c")}]
    assert list(atom_homomorphisms(src, dst, {Cst("c"): Var("c")})) == []


def test_containment_agrees_with_evaluation_on_the_canonical_instance():
    """Chandra–Merlin: q1 is contained in q2 iff q2 returns q1's free tuple on
    q1's canonical instance."""
    contained = 0
    for src, dst, seed in _atom_set_pairs(53, 300):
        # a seeded pair frees its seeded variable and the first one of dst
        q2 = cq([v.name for v in seed], src)
        q1 = cq(dst[0].vars()[:len(seed)], dst)
        if len(q1.free_vars) != len(q2.free_vars):
            continue
        sig = query_signature(q2, query_signature(q1))
        inst1, free1 = canon_inst(q1, sig)
        assert cq_contained(q1, q2) == (free1 in naive_eval_cq(q2, inst1)), (q1, q2)
        contained += cq_contained(q1, q2)
    assert contained >= 60, contained


def test_cores_and_containment_need_one_arity_per_relation():
    mixed = cq([], [atom("R", "x"), atom("R", "x", "y")])
    with pytest.raises(ValueError, match="two arities"):
        core_cq(mixed)
    with pytest.raises(ValueError, match="two arities"):
        cq_contained(mixed, mixed)
    with pytest.raises(ValueError):
        cq_contained(cq([], [atom("R", "x")]), cq([], [atom("R", "x", "y")]))


def test_core_is_the_same_under_every_hash_seed():
    """A variable and a constant share the name c, so the two F images of
    F(c,c) tie on names; the core must not depend on set iteration order."""
    code = ("from gnfkit.query import Atom, Cst, Var, cq, core_cq\n"
            "k, c, x, y = Cst('c'), Var('c'), Var('x'), Var('y')\n"
            "print(core_cq(cq([], [Atom('F', (k, k)), Atom('F', (x, k)),"
            " Atom('E', (y, c)), Atom('F', (c, k))])))")
    src = os.path.dirname(os.path.dirname(gnfkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = set()
    for hash_seed in ("0", "1", "3"):  # 0 and 3 gave different cores before
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        outs.add(run.stdout)
    assert len(outs) == 1, outs


# SHA-256 of core_cq and cq_contained over seeded random CQs, half of them
# with constants; unchanged since cores and containment were computed through
# canonical instances
CORE_CONTAINMENT_DIGEST = "e520584a1f0caefe912c56637679e968745f97be167771f38c5017ea77c780eb"


def test_cores_and_containment_are_unchanged():
    rng = random.Random(131)
    xs = [Var(f"x{i}") for i in range(4)]
    lines = []
    for _ in range(400):
        terms = xs + [Cst("c0"), Cst("c1")] if rng.random() < 0.5 else xs
        n_free = rng.randint(0, 2)
        q1 = _random_query(rng, terms, 4, n_free)
        q2 = _random_query(rng, terms, 3, n_free)
        line = f"{q1!r} {core_cq(q1)!r} {q2!r} {core_cq(q2)!r} "
        if len(q1.free_vars) == len(q2.free_vars):
            line += f"{cq_contained(q1, q2):d}{cq_contained(q2, q1):d}"
        else:
            line += "-"
        lines.append(line)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORE_CONTAINMENT_DIGEST


# ---------------------------------------------------------------- shape tests


def test_answer_guardedness():
    assert is_answer_guarded(TRIANGLE)  # Boolean: vacuous
    assert is_answer_guarded(cq(["x", "y"], [atom("E", "x", "y")]))
    two_step = cq(["x", "z"], [atom("E", "x", "y"), atom("E", "y", "z")])
    assert not is_answer_guarded(two_step)


def test_guard_index_finds_the_first_covering_atom():
    atoms = [atom("U", "x"), atom("E", "x", "y"), atom("E", "y", "x")]
    assert guard_index(["y", "x"], atoms) == 1
    assert guard_index(["x"], atoms) == 0
    assert guard_index([], atoms) == 0
    assert guard_index(["x", "z"], atoms) is None


def test_components_link_atoms_through_the_given_variables():
    atoms = [atom("E", "x", "y"), atom("U", "z"), atom("E", "y", "w"), atom("E", "z", "x")]
    assert components(atoms, {"y"}) == [[0, 2], [1], [3]]
    # the last atom joins the first two groups
    assert components(atoms, {"x", "z"}) == [[0, 1, 3], [2]]
    assert components(atoms, ()) == [[0], [1], [2], [3]]


def test_acyclicity_frozen_examples():
    assert not is_acyclic(TRIANGLE)
    assert is_acyclic(cq([], [atom("E", "x", "y"), atom("E", "y", "z")]))
    assert is_acyclic(LOOP)
    # two parallel edges between the same pair: edge containment, still acyclic
    assert is_acyclic(cq([], [atom("E", "x", "y"), atom("F", "x", "y")]))
    square = cq([], [atom("E", "x", "y"), atom("E", "y", "z"),
                     atom("E", "z", "w"), atom("E", "w", "x")])
    assert not is_acyclic(square)


def test_acyclicity_agrees_with_join_tree_search():
    rng = random.Random(41)
    for _ in range(200):
        sig = random_signature(rng, max_rels=2, max_arity=3)
        q = random_cq(rng, sig, max_atoms=4, max_vars=4)
        assert is_acyclic(q) == join_tree_exists(q)


def test_canonical_cq_is_invariant_under_renaming():
    q1 = cq(["x"], [atom("E", "x", "a"), atom("E", "a", "b")])
    q2 = cq(["x"], [atom("E", "x", "u"), atom("E", "u", "v")])
    assert str(canonical_cq(q1)) == str(canonical_cq(q2))
    assert canonical_cq(q1).free_vars == ("x",)


# every query body of one to three atoms over three variables and a constant,
# all but one named like the fresh names v0, v1, ...
NAMES = ("x", "v0", "v1")
POOL = ([Atom("R", (Var(s), Var(t))) for s in NAMES for t in NAMES]
        + [Atom("R", (Var(s), Cst("v2"))) for s in NAMES]
        + [Atom("S", (Var(s),)) for s in NAMES])
BODIES = [list(c) for n in (1, 2, 3) for c in itertools.combinations(POOL, n)]


def _vars(atoms):
    return list(dict.fromkeys(v for a in atoms for v in a.vars()))


def _subsets(items):
    return [list(c) for n in range(len(items) + 1) for c in itertools.combinations(items, n)]


def _renamed(atoms, ren):
    return [Atom(a.rel, tuple(Var(ren.get(t.name, t.name)) if isinstance(t, Var) else t
                              for t in a.args)) for a in atoms]


def _least_serialization(atoms, groups, head=None):
    """The least (head text, sorted atom texts) over every renaming of each
    group onto the first names prefix0, prefix1, ... used by no constant or
    other variable, by trying them all."""
    grouped = [v for _, vs in groups for v in vs]
    taken = set(_vars(atoms + ([head] if head else []))) - set(grouped)
    taken |= {t.name for a in atoms for t in a.args if isinstance(t, Cst)}
    pools = []
    for prefix, vs in groups:
        pools.append([f"{prefix}{i}" for i in range(20) if f"{prefix}{i}" not in taken][:len(vs)])
    best = None
    for choice in itertools.product(*(itertools.permutations(p) for p in pools)):
        ren = dict(zip(grouped, (n for names in choice for n in names)))
        key = ("" if head is None else str(_renamed([head], ren)[0]),
               sorted({str(a) for a in _renamed(atoms, ren)}))
        best = key if best is None or key < best else best
    return best


def test_canonical_renaming_picks_the_least_serialization():
    for body in BODIES:
        vs = _vars(body)
        head = Atom("H", (Var(vs[-1]),))
        cases = [([("v", sorted(vs))], head)]
        for free in _subsets(vs):
            ex = [v for v in vs if v not in free]
            cases += [([("v", ex)], None), ([("f", free), ("v", ex)], None)]
        for groups, h in cases:
            atoms, new_head, ren = canonical_renaming(body, groups, h)
            assert (("" if h is None else str(new_head)), [str(a) for a in atoms]) \
                == _least_serialization(body, groups, h), (body, groups)
            assert set(atoms) == set(_renamed(body, ren))
            kept = {t.name for a in body for t in a.args
                    if isinstance(t, Cst) or t.name not in ren}
            assert not kept & set(ren.values())


def test_canonical_forms_are_invariant_under_renaming():
    rng = random.Random(47)
    targets = ("y", "v0", "v1", "v2", "w")
    for body in BODIES:
        vs = _vars(body)
        free = [v for v in vs if rng.random() < 0.5]
        q = cq(free, body)
        ex = [v for v in vs if v not in free]
        ren = dict(zip(ex, rng.sample([t for t in targets if t not in free], len(ex))))
        assert str(canonical_cq(cq(free, _renamed(body, ren)))) == str(canonical_cq(q))
        assert canonical_cq(q).free_vars == tuple(free)
        ren = dict(zip(vs, rng.sample(targets, len(vs))))
        head = Atom("H", (Var(vs[0]),))
        one = canonical_renaming(body, [("v", vs)], head)
        other = canonical_renaming(_renamed(body, ren), [("v", [ren[v] for v in vs])],
                                   _renamed([head], ren)[0])
        assert one[:2] == other[:2]


def test_canonical_renaming_names_by_first_occurrence_past_the_cap():
    n = RENAMING_CAP + 2
    names = [f"y{n - 1 - i}" for i in range(n)]
    path_atoms = [atom("E", a, b) for a, b in zip(names, names[1:])]
    atoms, _, ren = canonical_renaming(path_atoms + [atom("U", "v1")], [("v", names)])
    first = _vars(sorted(path_atoms, key=str))
    assert [ren[v] for v in first] == [f"v{i}" for i in range(n + 1) if i != 1]
    assert set(atoms) == set(_renamed(path_atoms + [atom("U", "v1")], ren))


# ---------------------------------------------------------------- quotients


def test_quotients_are_the_set_partitions_within_the_bound():
    # Bell numbers without a bound
    assert [len(list(quotients(range(n)))) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    # with at most two classes, the Stirling numbers S(5,1) + S(5,2)
    assert len(list(quotients(range(5), 2))) == 1 + 15
    items = ["x", "y", "z", "w"]
    every = list(quotients(items))
    for rep in every:
        # each item maps to the first item of its class
        assert all(rep[rep[v]] == rep[v] and items.index(rep[v]) <= items.index(v)
                   for v in items)
    assert len({tuple(sorted(r.items())) for r in every}) == len(every)
    for bound in range(5):
        # the bound drops partitions but keeps the others in order
        assert list(quotients(items, bound)) == [r for r in every
                                                 if len(set(r.values())) <= bound]


# ---------------------------------------------------------------- treeify


def test_treeify_triangle_yields_the_self_loop():
    out = treeify(TRIANGLE, 3, 3)
    assert len(out) == 1
    member = out[0]
    assert len(member.atoms) == 1
    a = member.atoms[0]
    assert a.rel == "E" and a.args[0] == a.args[1]
    assert cq_equivalent(member, LOOP)


def test_treeify_members_entail_q_and_are_acyclic_answer_guarded():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "y", "x")])
    out = treeify(q, 2, 2)
    assert out
    for t in out:
        assert is_acyclic(t)
        assert is_answer_guarded(t)
        assert cq_contained(t, q)
    # members form an antichain: no member strictly contained in another
    for i, t in enumerate(out):
        for j, u in enumerate(out):
            if i != j and cq_contained(t, u):
                assert cq_contained(u, t)


def test_treeify_of_an_acyclic_query_recovers_an_equivalent():
    q = cq(["x"], [atom("E", "x", "y")])
    out = treeify(q, 2, 3)
    assert any(cq_equivalent(t, q) for t in out)


def test_treeify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        treeify(TRIANGLE, 0, 3)
    two_step = cq(["x", "z"], [atom("E", "x", "y"), atom("E", "y", "z")])
    with pytest.raises(ValueError):
        treeify(two_step, 3, 3)


def test_treeify_of_a_query_with_a_constant_is_empty():
    # members are built without constants, so none receives q
    q = cq(["x"], [atom("R", "x", "y"), atom("S", "y", Cst("c"))])
    assert treeify(q, 3, 3) == []
    assert naive_treeify(q, 3, 3) == []


def test_treeify_matches_the_brute_force_oracle():
    rng = random.Random(2601)
    # binary cycles that only an extra ternary atom makes acyclic
    covered = cq([], [atom("T", "x", "y", "x"), atom("T", "y", "z", "y"), atom("T", "z", "x", "z")])
    cases = [(TRIANGLE, 3, 4), (covered, 4, 3)]
    while len(cases) < 42:
        sig = random_signature(rng, max_rels=2, max_arity=2)
        q = random_cq(rng, sig, max_atoms=3, max_vars=4)
        if is_answer_guarded(q):
            cases.append((q, rng.choice([2, 3]), rng.choice([3, 4])))
    for q, max_atoms, max_vars in cases:
        assert treeify(q, max_atoms, max_vars) == naive_treeify(q, max_atoms, max_vars), q


def test_treeify_answers_under_approximate_q_on_random_instances():
    rng = random.Random(43)
    out = treeify(TRIANGLE, 3, 3)
    for _ in range(30):
        i = random_instance(rng, Signature([("E", 2)]), max_elems=4, max_facts=8)
        for t in out:
            assert eval_cq(t, i) <= eval_cq(TRIANGLE, i)
