"""Tests for instances, guardedness, homomorphisms, products, and squid extensions."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import pytest

import gnfkit
from gnfkit.model import (
    BudgetExceeded,
    Fact,
    Homomorphism,
    Instance,
    Signature,
    Value,
    active_domain,
    all_homomorphisms,
    atomic_types,
    const,
    direct_product,
    direct_product_with_projections,
    elem,
    find_homomorphism,
    guarded_sets,
    induced_substructure,
    is_guarded_set,
    minus,
    null,
    pair_value,
    reduct,
    serialize_facts,
    squid_check,
    squid_extension,
    verify_homomorphism,
    weak_substructure,
)
from gnfkit.model import _hom_constraints, _hom_search
from gnfkit.tgd import holds_in

from oracles import naive_find_homomorphism, naive_hom_search, naive_homomorphisms
from randgen import random_guarded_tgd, random_instance, random_signature
from shapes import cycle

SIG_RU = Signature([("R", 2), ("U", 1)])


def inst_ru(*facts: Fact, constants=(), interp=None) -> Instance:
    sig = Signature([("R", 2), ("U", 1), ("S", 2)], constants)
    return Instance(sig, facts, interp)


# ---------------------------------------------------------------- values / facts


def test_value_kinds_are_distinct():
    assert elem("a") != const("a")
    assert elem("a") != null("a")
    assert elem("a") == elem("a")
    assert str(elem("a")) == "a"


def test_fact_equality_and_str():
    f = Fact("R", (elem("a"), elem("b")))
    assert f == Fact("R", (elem("a"), elem("b")))
    assert f != Fact("R", (elem("b"), elem("a")))
    assert str(f) == "R(a,b)"


def test_values_and_facts_built_apart_are_equal_and_hash_alike():
    assert elem("a") is not elem("a") and hash(elem("a")) == hash(elem("a"))
    assert hash(const("c")) == hash(("constant", "c"))
    f, g = (Fact("R", (elem("a"), const("c"))) for _ in range(2))
    assert f is not g and f == g and hash(f) == hash(g)
    assert hash(f) == hash(("R", (elem("a"), const("c"))))
    assert {f: 1}[g] == 1


def test_values_and_facts_keep_their_checks_text_and_slots():
    with pytest.raises(ValueError, match="bad value kind"):
        Value("bogus", "a")
    f = Fact("R", (elem("a"), null("n")))
    assert (str(f), repr(f), str(null("n")), repr(null("n"))) == ("R(a,n)", "R(a,n)", "n", "n")
    assert elem("a") != ("element", "a") and f != ("R", f.args)
    assert not hasattr(elem("a"), "__dict__") and not hasattr(f, "__dict__")
    with pytest.raises(AttributeError):
        elem("a").name = "b"
    with pytest.raises(AttributeError):
        f.rel = "S"


def test_a_fact_with_list_arguments_fails_when_built():
    with pytest.raises(TypeError):
        Fact("R", [elem("a"), elem("b")])


# One object of each hashed core type; a dict keyed by it is pickled under one
# hash seed and read under another, where its stored hash would be stale.
CROSS_SEED_KEYS = {
    "Value": "elem('a')",
    "Fact": "Fact('R', (elem('a'), const('c')))",
    "Var": "Var('x')",
    "Cst": "Cst('c')",
    "Atom": "Atom('R', (Var('x'), Cst('c')))",
}


@pytest.mark.parametrize("kind", sorted(CROSS_SEED_KEYS))
def test_a_pickled_key_is_found_under_another_hash_seed(kind, tmp_path):
    prelude = ("import pickle, sys\n"
               "from gnfkit.model import Fact, const, elem\n"
               "from gnfkit.query import Atom, Cst, Var\n"
               f"key = {CROSS_SEED_KEYS[kind]}\n"
               "path = sys.argv[1]\n")
    dump = prelude + "pickle.dump({key: 'found'}, open(path, 'wb'))\n"
    load = (prelude + "d = pickle.load(open(path, 'rb'))\n"
            "print(d.get(key), key in set(d), hash(next(iter(d))) == hash(key))\n")
    src = os.path.dirname(os.path.dirname(gnfkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "keyed.pickle"
    for code, seed in ((dump, "1"), (load, "2")):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                             text=True, env=env, check=True)
    assert run.stdout == "found True True\n"


# ---------------------------------------------------------------- signatures


def test_signature_requires_positive_arity():
    with pytest.raises(ValueError):
        Signature([("R", 0)])


def test_signature_extend_and_equality():
    s = Signature([("R", 2)])
    s2 = s.extend([("U", 1)])
    assert set(s2.relations()) == {"R", "U"}
    assert s == Signature([("R", 2)])
    assert s != s2
    with pytest.raises(ValueError):
        s.extend([("R", 3)])  # conflicting arity


# ---------------------------------------------------------------- instances


def test_instance_basics():
    i = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),)))
    assert Fact("U", (elem("b"),)) in i
    assert Fact("U", (elem("a"),)) not in i
    assert i.rel_facts("R") == {Fact("R", (elem("a"), elem("b")))}
    assert active_domain(i) == {elem("a"), elem("b")}


def test_instance_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        inst_ru(Fact("R", (elem("a"),)))
    with pytest.raises(ValueError):
        inst_ru(Fact("Q", (elem("a"),)))


def test_constant_interpretation_defaults_to_named_constants():
    i = inst_ru(Fact("U", (const("c"),)), constants=("c",))
    assert i.const_interp == {"c": const("c")}
    assert i.const_values() == {const("c")}


def test_serialize_facts_is_sorted():
    i = inst_ru(Fact("U", (elem("b"),)), Fact("R", (elem("a"), elem("b"))))
    assert serialize_facts(i) == "R(a,b). U(b)."


def test_reduct_drops_relations_and_facts():
    i = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),)))
    r = reduct(i, ["U"])
    assert list(r.sig.relations()) == ["U"]
    assert r.facts == frozenset({Fact("U", (elem("b"),))})


# ---------------------------------------------------------------- guardedness


def test_guarded_sets_of_two_fact_instance():
    i = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),)))
    a, b = elem("a"), elem("b")
    assert is_guarded_set(i, {a, b})
    assert is_guarded_set(i, {a})
    assert is_guarded_set(i, set())
    assert guarded_sets(i) == {
        frozenset(),
        frozenset({a}),
        frozenset({b}),
        frozenset({a, b}),
    }


def test_opposite_corners_of_a_four_cycle_are_not_guarded():
    c4 = cycle(4)
    assert not is_guarded_set(c4, {elem("n1"), elem("n3")})
    assert is_guarded_set(c4, {elem("n1"), elem("n2")})


def test_constants_are_discounted_in_guardedness():
    i = inst_ru(
        Fact("R", (const("c"), elem("a"))),
        Fact("R", (const("c"), elem("b"))),
        constants=("c",),
    )
    # {a, b} spans two facts, but {a, c} needs only the fact containing a
    assert not is_guarded_set(i, {elem("a"), elem("b")})
    assert is_guarded_set(i, {elem("a"), const("c")})
    assert frozenset({elem("a")}) in guarded_sets(i)
    assert frozenset({const("c")}) not in guarded_sets(i)


def test_any_subset_of_one_facts_arguments_is_guarded():
    rng = random.Random(7)
    for _ in range(50):
        sig = random_signature(rng)
        i = random_instance(rng, sig)
        for f in i.facts:
            args = list(set(f.args))
            k = rng.randint(0, len(args))
            assert is_guarded_set(i, rng.sample(args, k))


def test_atomic_type_names_positions_first_and_constants_by_least_name():
    # c and d share a value; b is not in the tuple, so R(a,b) is left out
    sig = Signature([("R", 2), ("S", 3)], ["c", "d"])
    a, b, k = elem("a"), elem("b"), elem("k")
    inst = Instance(sig, [Fact("R", (a, b)), Fact("R", (a, k)), Fact("S", (k, a, a)),
                          Fact("R", (k, k))], {"c": k, "d": k})
    pattern, names, facts = atomic_types(inst)((a, k, a))
    assert pattern == (0, 1, 0)
    assert names == ((), ("c", "d"), ())
    assert facts == {("R", (0, 1)), ("S", (1, 0, 0)), ("R", (1, 1))}
    # outside the tuple, k is named by its least constant name
    assert atomic_types(inst)((a,))[2] == {("R", (0, "c")), ("S", ("c", 0, 0))}


# ---------------------------------------------------------------- substructures


def test_weak_substructure_is_fact_inclusion():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),)))
    assert weak_substructure(a, b)
    assert not weak_substructure(b, a)


def test_induced_substructure_keeps_facts_within_the_set():
    i = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("U", (elem("b"),)))
    sub = induced_substructure(i, {elem("b")})
    assert sub.facts == frozenset({Fact("U", (elem("b"),))})
    c3 = cycle(3)
    sub2 = induced_substructure(c3, {elem("n1"), elem("n2")})
    assert sub2.facts == frozenset({Fact("E", (elem("n1"), elem("n2")))})
    assert induced_substructure(i, {elem("a"), elem("b")}).facts == i.facts


def test_induced_substructure_always_keeps_constant_values():
    i = inst_ru(Fact("U", (const("c"),)), Fact("U", (elem("a"),)), constants=("c",))
    sub = induced_substructure(i, set())
    assert sub.facts == frozenset({Fact("U", (const("c"),))})


# ---------------------------------------------------------------- homomorphisms


def test_single_edge_maps_into_any_cycle():
    edge = Instance(Signature([("E", 2)]), [Fact("E", (elem("x"), elem("y")))])
    h = find_homomorphism(edge, cycle(3))
    assert h is not None
    assert verify_homomorphism(h, edge, cycle(3))


def test_no_homomorphism_from_three_cycle_to_four_cycle():
    assert find_homomorphism(cycle(3), cycle(4)) is None


def test_seeded_search_forces_the_rotation():
    c3 = cycle(3)
    h = find_homomorphism(c3, c3, seed={elem("n1"): elem("n2")})
    assert h is not None
    assert h.as_dict() == {
        elem("n1"): elem("n2"),
        elem("n2"): elem("n3"),
        elem("n3"): elem("n1"),
    }


def test_all_homomorphisms_of_a_three_cycle_are_its_rotations():
    c3 = cycle(3)
    found = {h.mapping for h in all_homomorphisms(c3, c3)}
    # cross-check against exhaustive enumeration of all 27 maps
    vals = sorted(active_domain(c3), key=lambda v: v.name)
    brute = set()
    for image in itertools.product(vals, repeat=3):
        m = dict(zip(vals, image))
        if all(Fact("E", (m[f.args[0]], m[f.args[1]])) in c3 for f in c3.facts):
            brute.add(Homomorphism.of(m).mapping)
    assert found == brute
    assert len(found) == 3


def test_constant_pinning():
    src = inst_ru(Fact("U", (const("c"),)), constants=("c",))
    dst_missing = Instance(src.sig, [Fact("U", (elem("a"),))], {"c": const("q")})
    # dst interprets c at a value that has no U fact: pinned map fails
    assert find_homomorphism(src, dst_missing) is None
    dst_ok = inst_ru(Fact("U", (const("c"),)), constants=("c",))
    h = find_homomorphism(src, dst_ok)
    assert h is not None and h.apply(const("c")) == const("c")


def test_seed_conflicting_with_constant_pinning_raises():
    src = inst_ru(Fact("U", (const("c"),)), constants=("c",))
    dst = inst_ru(Fact("U", (const("c"),)), Fact("U", (elem("a"),)), constants=("c",))
    with pytest.raises(ValueError):
        find_homomorphism(src, dst, seed={const("c"): elem("a")})
    sig = Signature([("E", 2)], ["c", "d"])
    src = Instance(sig, [Fact("E", (const("c"), elem("a")))])
    dst = Instance(sig, [Fact("E", (const("c"), elem("b"))), Fact("E", (const("d"), elem("b")))])
    seed = {const("c"): const("d")}
    with pytest.raises(ValueError):
        find_homomorphism(src, dst, seed=seed)
    with pytest.raises(ValueError):
        next(all_homomorphisms(src, dst, seed=seed))


def test_constants_sharing_a_value_need_one_image():
    sig = Signature([("U", 1)], ["c", "d"])
    v = elem("v")
    src = Instance(sig, [Fact("U", (v,))], {"c": v, "d": v})
    split = Instance(sig, [Fact("U", (elem("x"),)), Fact("U", (elem("y"),))],
                     {"c": elem("x"), "d": elem("y")})
    assert find_homomorphism(src, split) is None
    merged = Instance(sig, split.facts, {"c": elem("x"), "d": elem("x")})
    h = find_homomorphism(src, merged)
    assert h is not None and verify_homomorphism(h, src, merged)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        find_homomorphism(cycle(3), cycle(3), budget=0)


def test_verify_homomorphism_rejects_bad_maps():
    c3 = cycle(3)
    bad = Homomorphism.of({elem("n1"): elem("n1"), elem("n2"): elem("n1"),
                           elem("n3"): elem("n1")})
    assert not verify_homomorphism(bad, c3, c3)
    partial = Homomorphism.of({elem("n1"): elem("n1")})
    assert not verify_homomorphism(partial, c3, c3)


def test_verify_homomorphism_pins_constants():
    # the facts map, but c's value in src does not go to c's value in dst
    sig = Signature([("R", 1)], ["c"])
    src = Instance(sig, [Fact("R", (const("c"),))])
    dst = Instance(sig, [Fact("R", (const("c"),)), Fact("R", (elem("d"),))])
    assert verify_homomorphism(Homomorphism.of({const("c"): const("c")}), src, dst)
    assert not verify_homomorphism(Homomorphism.of({const("c"): elem("d")}), src, dst)


def _with_constant(rng: random.Random, inst: Instance) -> Instance:
    """`inst` over its signature plus the constant c, mostly with e0 read as c."""
    ren = {elem("e0"): const("c")} if rng.random() < 0.7 else {}
    return Instance(inst.sig.extend(constants=["c"]),
                    (Fact(f.rel, tuple(ren.get(v, v) for v in f.args)) for f in inst.facts))


def test_find_homomorphism_agrees_with_exhaustive_search():
    rng = random.Random(11)
    repeated = pinned = 0
    for trial in range(150):
        sig = random_signature(rng, max_rels=3, max_arity=2)
        src = random_instance(rng, sig, max_elems=4, max_facts=5)
        dst = random_instance(rng, sig, max_elems=4, max_facts=6)
        if trial >= 100:
            src, dst = _with_constant(rng, src), _with_constant(rng, dst)
        repeated += any(len(set(f.args)) < len(f.args) for f in src.facts)
        pinned += const("c") in active_domain(src)
        got = find_homomorphism(src, dst)
        want = naive_find_homomorphism(src, dst)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_homomorphism(got, src, dst)
        # the same set of maps as exhaustive enumeration, restricted to adom(src)
        adom = active_domain(src)
        every = {Homomorphism.of({v: h[v] for v in adom}).mapping
                 for h in naive_homomorphisms(src, dst)}
        assert {h.mapping for h in all_homomorphisms(src, dst)} == every
    assert repeated >= 10 and pinned >= 10


def _run_search(search) -> tuple[list[dict], bool]:
    """The maps a search yields, and whether it then ran out of budget."""
    out = []
    try:
        for m in search:
            out.append(m)
    except BudgetExceeded:
        return out, True
    return out, False


def test_hom_search_matches_the_rescanning_search():
    # same maps in the same order, and the budget runs out after the same
    # number of maps, over seeded constraint sets with repeated variables,
    # seeds and small budgets; one preparation serves several seeds
    rng = random.Random(23)
    xs = [elem(f"x{i}") for i in range(5)]
    ys = [elem(f"y{i}") for i in range(4)]
    several = exhausted = repeated = 0
    for trial in range(400):
        pool, targets = xs[:rng.randint(2, 5)], ys[:rng.randint(2, 4)]
        constraints = []
        for _ in range(rng.randint(1, 5)):
            args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            repeated += len(set(args)) < len(args)
            images = [tuple(rng.choice(targets) for _ in args)
                      for _ in range(rng.randint(0, 9))]
            constraints.append((args, images))
        prepared = _hom_constraints(constraints)
        for _ in range(3):
            seed = {v: rng.choice(targets) for v in rng.sample(xs, rng.randint(0, 2))}
            budget = rng.choice([None, rng.randint(0, 4), rng.randint(5, 40)])
            want = _run_search(naive_hom_search(constraints, seed, budget))
            assert _run_search(_hom_search(prepared, seed, budget)) == want, (trial, seed)
            several += len(want[0]) > 1
            exhausted += want[1]
    assert several > 200 and exhausted > 100 and repeated > 100


# ---------------------------------------------------------------- products


def test_product_of_two_and_three_cycles_is_a_six_cycle():
    prod, p1, p2 = direct_product_with_projections(cycle(2, prefix="m"), cycle(3))
    assert len(prod.facts) == 6
    nodes = active_domain(prod)
    assert len(nodes) == 6
    succ = {}
    for f in prod.facts:
        assert f.args[0] not in succ  # out-degree one
        succ[f.args[0]] = f.args[1]
    start = next(iter(nodes))
    seen = [start]
    while True:
        nxt = succ[seen[-1]]
        if nxt == start:
            break
        seen.append(nxt)
    assert len(seen) == 6  # one cycle through all six nodes
    assert verify_homomorphism(p1, prod, cycle(2, prefix="m"))
    assert verify_homomorphism(p2, prod, cycle(3))


def test_product_of_unary_facts():
    sig = Signature([("U", 1)])
    i1 = Instance(sig, [Fact("U", (elem("a"),))])
    i2 = Instance(sig, [Fact("U", (elem("b"),))])
    prod = direct_product(i1, i2)
    assert prod.facts == frozenset({Fact("U", (pair_value(elem("a"), elem("b")),))})


def test_product_pairs_constants():
    sig = Signature([("U", 1)], ("c",))
    i1 = Instance(sig, [Fact("U", (const("c"),))])
    i2 = Instance(sig, [Fact("U", (const("c"),))])
    prod = direct_product(i1, i2)
    assert prod.const_interp == {"c": pair_value(const("c"), const("c"))}
    assert Fact("U", (pair_value(const("c"), const("c")),)) in prod


def test_product_signature_mismatch_raises():
    with pytest.raises(ValueError):
        direct_product(cycle(2), Instance(Signature([("F", 2)]), []))


def test_products_preserve_tgds():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        sig = random_signature(rng, max_rels=2, max_arity=2)
        t = random_guarded_tgd(rng, sig)
        i1 = random_instance(rng, sig, max_elems=3, max_facts=6)
        i2 = random_instance(rng, sig, max_elems=3, max_facts=6)
        if not (holds_in(t, i1) and holds_in(t, i2)):
            continue
        assert holds_in(t, direct_product(i1, i2))
        checked += 1


# ---------------------------------------------------------------- minus


def test_minus_keeps_facts_reaching_outside():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("S", (elem("b"), elem("c"))))
    assert minus(b, a).facts == frozenset({Fact("S", (elem("b"), elem("c")))})


def test_minus_discounts_new_facts_over_old_elements():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("S", (elem("a"), elem("b"))))
    assert minus(b, a).facts == frozenset()


def test_minus_requires_extension():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("S", (elem("b"), elem("c"))))
    with pytest.raises(ValueError):
        minus(b, a)


# ---------------------------------------------------------------- squids


def test_squid_check_accepts_single_tentacle():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    t = Fact("S", (elem("b"), elem("c")))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), t)
    assert squid_check(a, b, [frozenset({t})])


def test_squid_check_rejects_newly_guarded_old_pairs():
    # S(a,d) guards {a, d} in the extension, but no fact of the base covers both
    a = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("R", (elem("b"), elem("d"))))
    b = inst_ru(
        Fact("R", (elem("a"), elem("b"))),
        Fact("R", (elem("b"), elem("d"))),
        Fact("S", (elem("a"), elem("d"))),
    )
    assert not squid_check(a, b, [])


def test_squid_check_rejects_tentacles_sharing_fresh_elements():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    f1 = Fact("S", (elem("a"), elem("c")))
    f2 = Fact("S", (elem("b"), elem("c")))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), f1, f2)
    assert not squid_check(a, b, [frozenset({f1}), frozenset({f2})])
    # merged into one tentacle the overlap {a, b} is guarded by R(a,b)
    assert squid_check(a, b, [frozenset({f1, f2})])


def test_squid_check_rejects_a_tentacle_over_an_unguarded_set():
    # each fact meets one a-element, but the one tentacle joins p and q,
    # which no fact of a guards
    sig = Signature([("U", 1), ("R", 2)])
    p, q, n = elem("p"), elem("q"), elem("n")
    a = Instance(sig, [Fact("U", (p,)), Fact("U", (q,))])
    tentacle = frozenset({Fact("R", (p, n)), Fact("R", (q, n))})
    b = Instance(sig, a.facts | tentacle)
    assert not squid_check(a, b, [tentacle])
    apart = Instance(sig, a.facts | {Fact("R", (p, n))})
    assert squid_check(a, apart, [frozenset({Fact("R", (p, n))})])


def test_squid_check_rejects_incomplete_partitions():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    f1 = Fact("S", (elem("a"), elem("c")))
    f2 = Fact("S", (elem("b"), elem("d")))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), f1, f2)
    assert squid_check(a, b, [frozenset({f1}), frozenset({f2})])
    assert not squid_check(a, b, [frozenset({f1})])
    assert not squid_check(a, b, [frozenset({f1}), frozenset({f1, f2})])


def test_squid_extension_small_example():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("R", (elem("a"), elem("b"))), Fact("S", (elem("b"), elem("c"))))
    bp, h, tentacles = squid_extension(a, b)
    # one copy of b per guarded set of a: {}, {a}, {a,b}, {b}
    assert len(bp.facts) == 8
    assert sorted(len(t) for t in tentacles) == [1, 2, 2, 2]
    assert weak_substructure(a, bp)
    assert squid_check(a, bp, tentacles)
    assert verify_homomorphism(h, bp, b)
    for v in active_domain(a):
        assert h.apply(v) == v


def test_squid_extension_of_identity_still_glues_copies():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    bp, h, tentacles = squid_extension(a, a)
    assert len(bp.facts) == 4  # original edge plus one renamed copy per proper guarded set
    assert squid_check(a, bp, tentacles)
    assert verify_homomorphism(h, bp, a)


def test_squid_extension_requires_extension():
    a = inst_ru(Fact("R", (elem("a"), elem("b"))))
    b = inst_ru(Fact("U", (elem("z"),)))
    with pytest.raises(ValueError):
        squid_extension(a, b)


def test_squid_extension_postconditions_on_random_inputs():
    rng = random.Random(31)
    for _ in range(30):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        a = random_instance(rng, sig, max_elems=3, max_facts=3)
        extra = random_instance(rng, sig, max_elems=4, max_facts=3)
        b = Instance(sig, a.facts | extra.facts)
        bp, h, tentacles = squid_extension(a, b)
        assert weak_substructure(a, bp)
        assert squid_check(a, bp, tentacles)
        assert verify_homomorphism(h, bp, b)
        for v in active_domain(a):
            assert h.apply(v) == v
