"""Tests for conjunctive queries: evaluation, containment, cores, acyclicity, treeify."""

from __future__ import annotations

import itertools
import random

import pytest

from gnfkit.model import Fact, Instance, Signature, active_domain, const, elem
from gnfkit.query import (
    RENAMING_CAP,
    Atom,
    ConjunctiveQuery,
    Cst,
    UnionOfCQs,
    Var,
    atom,
    canon_inst,
    canonical_cq,
    canonical_renaming,
    cq,
    cq_contained,
    cq_equivalent,
    core_cq,
    cst,
    eval_cq,
    is_acyclic,
    is_answer_guarded,
    query_signature,
    treeify,
)

from oracles import join_tree_exists, naive_eval_cq
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


# ---------------------------------------------------------------- shape tests


def test_answer_guardedness():
    assert is_answer_guarded(TRIANGLE)  # Boolean: vacuous
    assert is_answer_guarded(cq(["x", "y"], [atom("E", "x", "y")]))
    two_step = cq(["x", "z"], [atom("E", "x", "y"), atom("E", "y", "z")])
    assert not is_answer_guarded(two_step)


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


def test_treeify_answers_under_approximate_q_on_random_instances():
    rng = random.Random(43)
    out = treeify(TRIANGLE, 3, 3)
    for _ in range(30):
        i = random_instance(rng, Signature([("E", 2)]), max_elems=4, max_facts=8)
        for t in out:
            assert eval_cq(t, i) <= eval_cq(TRIANGLE, i)
