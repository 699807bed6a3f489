"""Bisimulation checks: cycles, witness refinement, directional maps, amalgams."""

from __future__ import annotations

import random

import pytest

from gnfkit.bisim import (
    GuardedBisimWitness,
    StrongGnBisimWitness,
    amalgamate,
    check_directional,
    check_guarded_bisim,
    check_strong_gn,
    directed_cycle,
    guarded_tuples,
    is_strong_gn_bisimulation,
    verify_guarded_bisim,
    verify_strong_gn,
)
from gnfkit.logic import eval_fo
from gnfkit.model import (
    BudgetExceeded,
    Fact,
    Homomorphism,
    Instance,
    Signature,
    active_domain,
    const,
    elem,
    find_homomorphism,
    pair_value,
    reduct,
    verify_homomorphism,
)
from gnfkit.query import Atom, Var
from randgen import random_gfo_sentence, random_gnf_sentence, random_instance, random_signature
from shapes import EDGE_SIG, cycle

UV_SIG = Signature([("U", 1), ("V", 1)])


def union(a: Instance, b: Instance) -> Instance:
    return Instance(a.sig, a.facts | b.facts)


def double_cycle3() -> Instance:
    return union(cycle(3), cycle(3, prefix="m"))


def rename_tuple(t, table):
    return tuple(elem(table.get(v.name, v.name)) for v in t)


# ---------------------------------------------------------------------------
# directed_cycle


def test_directed_cycle_three():
    inst = directed_cycle(3)
    n1, n2, n3 = elem("n1"), elem("n2"), elem("n3")
    assert inst.facts == frozenset(
        {Fact("E", (n1, n2)), Fact("E", (n2, n3)), Fact("E", (n3, n1))})


def test_directed_cycle_one_is_self_loop():
    inst = directed_cycle(1)
    assert inst.facts == frozenset({Fact("E", (elem("n1"), elem("n1")))})


def test_directed_cycle_zero_rejected():
    with pytest.raises(ValueError):
        directed_cycle(0)


def test_directed_cycle_matches_shape_helper():
    for k in range(1, 7):
        assert directed_cycle(k) == cycle(k)


def test_directed_cycle_custom_relation():
    inst = directed_cycle(2, rel="R")
    assert all(f.rel == "R" for f in inst.facts)
    assert inst.sig.arities == {"R": 2}


# ---------------------------------------------------------------------------
# guarded_tuples


def test_guarded_tuples_triangle():
    gts = guarded_tuples(directed_cycle(3))
    n1, n2, n3 = elem("n1"), elem("n2"), elem("n3")
    assert len(gts) == 12
    assert (n1,) in gts and (n1, n2) in gts and (n2, n1) in gts and (n1, n1) in gts
    assert all(1 <= len(t) <= 2 for t in gts)
    assert (n1, n3) in gts  # the wrap-around fact E(n3,n1) guards this pair


def test_guarded_tuples_square_misses_diagonal():
    gts = guarded_tuples(directed_cycle(4))
    assert (elem("n1"), elem("n3")) not in gts
    assert (elem("n1"),) in gts


def test_guarded_tuples_deterministic():
    a = random_instance(random.Random(7), random_signature(random.Random(7)))
    assert guarded_tuples(a) == guarded_tuples(a)


# ---------------------------------------------------------------------------
# check_guarded_bisim


def test_guarded_bisim_reflexive():
    for inst in (directed_cycle(3), directed_cycle(1)):
        w = check_guarded_bisim(inst, inst)
        assert w is not None
        assert verify_guarded_bisim(inst, inst, w)


def test_guarded_bisim_all_cycle_pairs():
    for k in range(3, 8):
        for length in range(k + 1, 8):
            w = check_guarded_bisim(directed_cycle(k), directed_cycle(length))
            assert w is not None, (k, length)
            assert verify_guarded_bisim(directed_cycle(k), directed_cycle(length), w)


def test_guarded_bisim_distinct_unary_relations():
    a = Instance(UV_SIG, [Fact("U", (elem("a"),))])
    b = Instance(UV_SIG, [Fact("V", (elem("a"),))])
    assert check_guarded_bisim(a, b) is None


def test_guarded_bisim_loop_vs_triangle():
    assert check_guarded_bisim(directed_cycle(1), directed_cycle(3)) is None


def test_guarded_bisim_both_empty():
    a = Instance(EDGE_SIG, [])
    w = check_guarded_bisim(a, a)
    assert w is not None and w.maps() == [{}]


def test_guarded_bisim_signature_mismatch():
    with pytest.raises(ValueError):
        check_guarded_bisim(directed_cycle(3), Instance(UV_SIG, []))


def test_guarded_bisim_respects_constants():
    sig = Signature([("R", 2)], ["c"])
    a = Instance(sig, [Fact("R", (elem("x"), const("c")))])
    b = Instance(sig, [Fact("R", (const("c"), elem("x")))])
    assert check_guarded_bisim(a, a) is not None
    assert check_guarded_bisim(a, b) is None


def test_verify_guarded_bisim_rejects_tampering():
    a, b = directed_cycle(3), directed_cycle(5)
    w = check_guarded_bisim(a, b)
    assert w is not None
    assert not verify_guarded_bisim(a, b, GuardedBisimWitness(frozenset()))
    pruned = GuardedBisimWitness(frozenset(m for m in w.family if len(m) != 1))
    assert not verify_guarded_bisim(a, b, pruned)


def test_guarded_bisimilar_cycles_agree_on_gfo_sentences():
    rng = random.Random(4273)
    a, b = directed_cycle(3), directed_cycle(5)
    assert check_guarded_bisim(a, b) is not None
    for _ in range(25):
        sentence = random_gfo_sentence(rng, EDGE_SIG, depth=3)
        assert eval_fo(sentence, a) == eval_fo(sentence, b)


# ---------------------------------------------------------------------------
# check_strong_gn


def test_strong_gn_reflexive_contains_identity_pairs():
    a = directed_cycle(3)
    w = check_strong_gn(a, a)
    assert w is not None
    assert verify_strong_gn(a, a, w)
    for t in guarded_tuples(a):
        assert (t, t) in w.pairs


def test_strong_gn_triangle_vs_square_none():
    a, b = directed_cycle(3), directed_cycle(4)
    assert find_homomorphism(a, b) is None  # no homomorphism at all
    assert check_strong_gn(a, b) is None


def test_strong_gn_triangle_vs_two_triangles():
    a, b = directed_cycle(3), double_cycle3()
    w = check_strong_gn(a, b)
    assert w is not None
    assert verify_strong_gn(a, b, w)
    n1 = elem("n1")
    assert ((n1,), (n1,)) in w.pairs


def test_strong_gn_verdict_symmetric():
    cases = [
        (directed_cycle(3), directed_cycle(4)),
        (directed_cycle(3), double_cycle3()),
        (directed_cycle(5), directed_cycle(7)),
        (Instance(UV_SIG, [Fact("U", (elem("a"),))]),
         Instance(UV_SIG, [Fact("V", (elem("a"),))])),
    ]
    for a, b in cases:
        assert (check_strong_gn(a, b) is None) == (check_strong_gn(b, a) is None)


def test_strong_gn_constant_clash_fails_fast():
    sig = Signature([("R", 2)], ["c", "d"])
    a = Instance(sig, [Fact("R", (elem("u"), elem("u")))],
                 {"c": elem("u"), "d": elem("u")})
    b = Instance(sig, [Fact("R", (elem("u"), elem("w")))],
                 {"c": elem("u"), "d": elem("w")})
    assert check_strong_gn(a, b) is None
    assert check_strong_gn(b, a) is None


def test_strong_gn_no_facts_means_no_guarded_tuples():
    a = Instance(EDGE_SIG, [])
    assert check_strong_gn(a, a) is None


def test_strong_gn_signature_mismatch():
    with pytest.raises(ValueError):
        check_strong_gn(directed_cycle(3), Instance(UV_SIG, []))


def test_strong_gn_size_cap():
    sig = Signature([("U", 1)])
    big = Instance(sig, [Fact("U", (elem(f"e{i}"),)) for i in range(13)])
    with pytest.raises(BudgetExceeded):
        check_strong_gn(big, big)
    assert check_strong_gn(big, big, max_size=13) is not None


def test_verify_strong_gn_rejects_tampering():
    a, b = directed_cycle(3), double_cycle3()
    w = check_strong_gn(a, b)
    assert w is not None
    missing = StrongGnBisimWitness(frozenset(sorted(w.pairs, key=str)[1:]),
                                   w.forward, w.backward)
    assert not verify_strong_gn(a, b, missing)
    assert not verify_strong_gn(a, b,
                                StrongGnBisimWitness(frozenset(), (), ()))


ROT = {"n1": "n2", "n2": "n3", "n3": "n1"}
ROT_INV = {"n1": "n3", "n2": "n1", "n3": "n2"}
TO_COPY = {"n1": "m1", "n2": "m2", "n3": "m3"}
FROM_COPY = {"m1": "n1", "m2": "n2", "m3": "n3"}


def _fold_embed_collection(a: Instance, b: Instance, rot, rot_inv) -> set:
    """Pairs for: embed into either copy after rotating, fold back undoing it."""
    pairs = set()
    for t in guarded_tuples(a):
        pairs.add((t, rename_tuple(t, rot)))
        pairs.add((t, rename_tuple(rename_tuple(t, rot), TO_COPY)))
    fold = dict(FROM_COPY)
    for d in guarded_tuples(b):
        folded = rename_tuple(rename_tuple(d, fold), rot_inv)
        pairs.add((folded, d))
    return pairs


def test_strong_gn_hand_built_collections_and_union_closure():
    a, b = directed_cycle(3), double_cycle3()
    greatest = check_strong_gn(a, b)
    assert greatest is not None
    assert is_strong_gn_bisimulation(a, b, greatest.pairs)

    plain = _fold_embed_collection(a, b, {}, {})
    rotated = _fold_embed_collection(a, b, ROT, ROT_INV)
    assert is_strong_gn_bisimulation(a, b, plain)
    assert is_strong_gn_bisimulation(a, b, rotated)
    assert plain != rotated

    # closure under unions, and every collection sits inside the greatest one
    assert is_strong_gn_bisimulation(a, b, plain | rotated)
    assert plain <= greatest.pairs and rotated <= greatest.pairs

    # identity pairs alone are not enough here: every homomorphism from the
    # double cycle back to the triangle folds the second copy, producing
    # pairs outside the collection, so backward compatibility fails
    identity_only = {(t, t) for t in guarded_tuples(a)}
    assert is_strong_gn_bisimulation(a, a, identity_only)
    assert not is_strong_gn_bisimulation(a, b, identity_only)


# ---------------------------------------------------------------------------
# check_directional


def test_directional_identity():
    a = directed_cycle(3)
    n1, n2 = elem("n1"), elem("n2")
    assert check_directional(a, (n1, n2), a, (n1, n2))
    assert check_directional(a, (), a, ())


def test_directional_embedding_into_disjoint_double():
    a, b = directed_cycle(3), double_cycle3()
    assert check_directional(a, (), b, ())
    assert check_directional(a, (elem("n1"),), b, (elem("m1"),))


def test_directional_fold_onto_single_triangle():
    a, b = double_cycle3(), directed_cycle(3)
    assert check_directional(a, (), b, ())
    assert check_directional(a, (elem("m1"),), b, (elem("n1"),))


def test_directional_false_matches_gnf_distinction():
    a = Instance(UV_SIG, [Fact("U", (elem("a"),))])
    b = Instance(UV_SIG, [Fact("V", (elem("b"),))])
    formula = Atom("U", (Var("x"),))
    assert eval_fo(formula, a, binding={"x": elem("a")})
    assert not eval_fo(formula, b, binding={"x": elem("b")})
    assert not check_directional(a, (elem("a"),), b, (elem("b"),))


def test_directional_seed_conflict_is_false():
    a = directed_cycle(3)
    assert not check_directional(a, (elem("n1"), elem("n1")), a,
                                 (elem("n1"), elem("n2")))


def test_directional_validation():
    a = directed_cycle(3)
    with pytest.raises(ValueError):
        check_directional(a, (elem("n1"),), a, ())
    with pytest.raises(ValueError):
        check_directional(a, (), Instance(UV_SIG, []), ())
    with pytest.raises(BudgetExceeded):
        check_directional(a, (), a, (), max_size=2)


def _with_disjoint_copy(inst: Instance) -> Instance:
    table = {v.name: f"cp_{v.name}" for v in active_domain(inst)}
    copy_facts = {Fact(f.rel, rename_tuple(f.args, table)) for f in inst.facts}
    return Instance(inst.sig, inst.facts | copy_facts)


def test_directional_witnesses_preserve_gnf_sample():
    rng = random.Random(90211)
    checked = 0
    for _ in range(12):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        a = random_instance(rng, sig, max_elems=3, max_facts=4)
        b = _with_disjoint_copy(a)
        assert check_directional(a, (), b, ())
        assert check_directional(b, (), a, ())
        for _ in range(15):
            sentence = random_gnf_sentence(rng, sig, depth=3)
            if eval_fo(sentence, a):
                assert eval_fo(sentence, b)
                checked += 1
            if eval_fo(sentence, b):
                assert eval_fo(sentence, a)
    assert checked > 20  # the sample exercised true sentences, not only vacuous ones


# ---------------------------------------------------------------------------
# amalgamate


def identity_witness(inst: Instance) -> StrongGnBisimWitness:
    ident = Homomorphism.of({v: v for v in active_domain(inst)})
    pairs = frozenset((t, t) for t in guarded_tuples(inst))
    tagged = tuple(sorted(((p, ident) for p in pairs), key=lambda x: str(x[0])))
    return StrongGnBisimWitness(pairs, tagged, tagged)


def test_amalgamate_identity_is_isomorphic_copy():
    a = directed_cycle(3)
    sig = Signature([("E", 2)])
    u = amalgamate(a, a, identity_witness(a), sig, sig)
    pv = {v: pair_value(v, v) for v in active_domain(a)}
    expected = Instance(Signature([("E", 2)], []),
                        [Fact("E", (pv[f.args[0]], pv[f.args[1]])) for f in a.facts])
    assert u == expected


def test_amalgamate_same_signature_projections():
    a, b = directed_cycle(3), double_cycle3()
    z = check_strong_gn(a, b)
    assert z is not None
    sig = Signature([("E", 2)])
    u = amalgamate(a, b, z, sig, sig, max_size=12)
    assert u.facts
    left = {}
    right = {}
    for c in active_domain(a):
        for d in active_domain(b):
            pv = pair_value(c, d)
            left[pv] = c
            right[pv] = d
    adom_u = active_domain(u)
    h_left = Homomorphism.of({v: left[v] for v in adom_u})
    h_right = Homomorphism.of({v: right[v] for v in adom_u})
    assert verify_homomorphism(h_left, u, a)
    assert verify_homomorphism(h_right, u, b)


def test_amalgamate_mixed_signatures_both_directions():
    sigma = Signature([("E", 2), ("P", 1)])
    tau = Signature([("E", 2), ("Q", 1)])
    a = Instance(sigma, set(cycle(3).facts) | {Fact("P", (elem("n1"),))})
    b = Instance(tau, set(cycle(3, prefix="m").facts) | {Fact("Q", (elem("m2"),))})
    z = check_strong_gn(reduct(a, ["E"]), reduct(b, ["E"]))
    assert z is not None
    ta, tb = (elem("n1"),), (elem("m1"),)
    assert (ta, tb) in z.pairs
    u = amalgamate(a, b, z, sigma, tau, max_size=20)
    tu = (pair_value(ta[0], tb[0]),)
    assert tu[0] in active_domain(u)
    assert any(f.rel == "P" for f in u.facts) and any(f.rel == "Q" for f in u.facts)
    assert check_directional(a, ta, reduct(u, ["E", "P"]), tu, max_size=30)
    assert check_directional(reduct(u, ["E", "Q"]), tu, b, tb, max_size=30)


def test_amalgamate_validation_errors():
    a = directed_cycle(3)
    sig = Signature([("E", 2)])
    w = identity_witness(a)
    with pytest.raises(ValueError):
        amalgamate(a, a, w, Signature([("E", 2)], ["c"]), sig)
    with pytest.raises(ValueError):
        amalgamate(a, a, w, Signature([("E", 1)]), sig)
    with pytest.raises(ValueError):
        amalgamate(a, a, w, Signature([("E", 2), ("X", 1)]), sig)
    with pytest.raises(ValueError):
        amalgamate(a, directed_cycle(4), w, sig, sig)


def test_verifier_rejects_witness_whose_constants_cannot_correspond():
    # c and d share a value in `a` but not in `b`; a witness found without
    # the constants must not verify with them, and amalgamate must refuse it
    sig = Signature([("E", 2)], ["c", "d"])
    bare = Signature([("E", 2)])
    fa = [Fact("E", (elem("x"), elem("y")))]
    fb = [Fact("E", (elem("p"), elem("q")))]
    a = Instance(sig, fa, {"c": elem("v"), "d": elem("v")})
    b = Instance(sig, fb, {"c": elem("w1"), "d": elem("w2")})
    z = check_strong_gn(Instance(bare, fa), Instance(bare, fb))
    assert z is not None
    assert check_strong_gn(a, b) is None
    assert not verify_strong_gn(a, b, z)
    assert not verify_strong_gn(b, a, z)
    with pytest.raises(ValueError, match="does not verify"):
        amalgamate(a, b, z, sig, sig)


def test_amalgamate_budget():
    a = directed_cycle(3)
    sig = Signature([("E", 2)])
    with pytest.raises(BudgetExceeded):
        amalgamate(a, a, identity_witness(a), sig, sig, max_size=2)
