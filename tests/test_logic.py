"""Tests for first-order formulas: fragments, evaluation, sentence builders, countermodels."""

from __future__ import annotations

import random

import pytest

from gnfkit.logic import (
    FoAnd,
    FoEq,
    FoExists,
    FoForall,
    FoNot,
    FoOr,
    build_domain_independence_sentence,
    build_extension_preservation_sentence,
    check_gfo,
    check_gnf,
    conjuncts,
    cq_to_fo,
    disjuncts,
    eval_fo,
    fo_and,
    fo_exists,
    fo_forall,
    fo_not,
    fo_or,
    formula_signature,
    free_vars,
    implies,
    relativize,
    search_countermodel,
    strip_unguarded_negatives,
    substitute_free,
    tgd_to_gnf,
)
from gnfkit.model import Fact, Instance, Signature, active_domain, elem, serialize_facts
from gnfkit.query import Atom, Cst, Var, atom, cq, cst
from gnfkit.syntax import parse_formula, parse_instance, parse_theory, print_formula
from gnfkit.tgd import holds_in, make_tgd

from oracles import naive_eval_fo
from randgen import random_formula, random_frontier_guarded_tgd, random_instance, random_signature
from shapes import cycle, path


def U(x):  # noqa: N802 - relational shorthand closely mirroring formula text
    return Atom("U", (Var(x) if isinstance(x, str) else x,))


def R(x, y):  # noqa: N802
    args = tuple(Var(t) if isinstance(t, str) else t for t in (x, y))
    return Atom("R", args)


# ---------------------------------------------------------------- structure


def test_builders_flatten_and_shortcut():
    a, b, c = U("x"), U("y"), U("z")
    assert fo_and(a) is a
    assert fo_or(a) is a
    assert fo_and(a, b, c).parts == (a, b, c)
    assert str(fo_and(a, b)) == "(U(x) & U(y))"
    assert str(fo_or(a, b)) == "(U(x) | U(y))"
    assert str(fo_not(a)) == "!(U(x))"
    assert str(fo_exists("x", "y", R("x", "y"))) == "exists x. exists y. R(x,y)"
    assert conjuncts(fo_and(a, fo_and(b, c))) == [a, b, c]
    assert disjuncts(fo_or(a, fo_or(b, c))) == [a, b, c]


def test_quantifier_builders_without_variables_return_the_body():
    a = R("x", "y")
    assert fo_exists(a) is a
    assert fo_forall(a) is a
    assert cq_to_fo(cq(["x", "y"], [atom("R", "x", "y")])) == a


def test_free_vars():
    f = fo_exists("y", fo_and(R("x", "y"), FoNot(U("x"))))
    assert free_vars(f) == {"x"}
    assert free_vars(fo_forall("x", f)) == set()
    assert free_vars(FoEq(Var("x"), Cst("c"))) == {"x"}


def test_formula_signature_and_substitution():
    f = fo_exists("y", fo_and(R("x", "y"), U(Cst("c"))))
    sig = formula_signature(f)
    assert sig.arities == {"R": 2, "U": 1}
    assert tuple(sig.constants) == ("c",)
    g = substitute_free(f, {"x": Cst("d")})
    assert free_vars(g) == set()
    assert "R(d,y)" in str(g)
    # bound occurrences are untouched
    h = substitute_free(f, {"y": Cst("d")})
    assert str(h) == str(f)


def test_cq_to_fo_round_trip_semantics():
    q = cq(["x"], [atom("E", "x", "y"), atom("E", "y", "x")])
    f = cq_to_fo(q)
    assert free_vars(f) == {"x"}
    for i in (cycle(3), path(3)):
        from gnfkit.query import eval_cq

        answers = {t[0] for t in eval_cq(q, i)}
        for v in active_domain(i):
            assert eval_fo(f, i, binding={"x": v}) == (v in answers)


# ---------------------------------------------------------------- fragments


def test_guarded_negation_with_guard_is_in_both_fragments():
    f = fo_exists("x", "y", fo_and(R("x", "y"), FoNot(U("x"))))
    rep = check_gnf(f)
    assert rep.verdict == "both"
    assert rep.is_gnf and rep.is_gfo
    assert check_gfo(f).verdict == "both"


def test_unguarded_universal_is_in_neither_fragment():
    f = fo_forall("y", R("x", "y"))
    rep = check_gnf(f)
    assert rep.verdict == "neither"
    assert rep.violations


def test_constants_are_exempt_from_guardedness():
    f = fo_forall("y", R(Cst("c"), Var("y")))
    assert check_gnf(f).verdict == "gfo"


def test_triangle_sentence_is_gnf_only():
    f = fo_exists("x", "y", "z", fo_and(
        Atom("E", (Var("x"), Var("y"))),
        Atom("E", (Var("y"), Var("z"))),
        Atom("E", (Var("z"), Var("x"))),
    ))
    assert check_gnf(f).verdict == "gnf"


def test_quantifier_free_atom_is_in_both():
    assert check_gnf(R("x", "y")).verdict == "both"


def test_guarded_implication_is_gfo_only():
    f = fo_forall("x", fo_forall("y", fo_or(FoNot(R("x", "y")),
                                            Atom("S", (Var("x"), Var("y"))))))
    assert check_gnf(f).verdict == "gfo"


GN_CONJOINED = ("guarded-negation: negated subformula has no conjoined atomic guard "
                "covering its free variables")
GN_BARE = ("guarded-negation: negation with more than one free variable needs a "
           "conjoined atomic guard")
GN_FORALL = "guarded-negation: universal quantification is outside the guarded-negation grammar"
GQ_EXISTS = ("guarded-quantification: existential block has no atomic guard covering the "
             "kernel's free variables")
GQ_FORALL = ("guarded-quantification: universal block is not of the guarded shape "
             "forall x. (guard -> kernel)")

# formula, verdict, violations in report order: guarded-negation ones first,
# each list in the order a left-to-right walk meets the offending nodes
PINNED_REPORTS = [
    ("exists x,y. (E(x,y) & !(exists z. (E(y,z) & !E(x,z))))", "neither", [
        ("!(E(x,z))", GN_CONJOINED),
        ("exists z. (E(y,z) & !(E(x,z)))", GQ_EXISTS),
    ]),
    ("!E(x,y)", "gfo", [
        ("!(E(x,y))", GN_BARE),
    ]),
    ("forall x,y. (!E(x,y) | P(x))", "gfo", [
        ("forall x. forall y. (!(E(x,y)) | P(x))", GN_FORALL),
        ("forall y. (!(E(x,y)) | P(x))", GN_FORALL),
        ("!(E(x,y))", GN_BARE),
    ]),
    ("(P(x) & !E(x,y)) | (E(x,y) & !E(y,x))", "gfo", [
        ("!(E(x,y))", GN_CONJOINED),
    ]),
    ("forall x. (!P(x) | exists y,z. (E(y,z) & E(x,y)))", "neither", [
        ("forall x. (!(P(x)) | exists y. exists z. (E(y,z) & E(x,y)))", GN_FORALL),
        ("exists y. exists z. (E(y,z) & E(x,y))", GQ_EXISTS),
    ]),
    ("exists x. forall y. (!E(x,y) | exists z. (E(y,z) & !(x = z)))", "neither", [
        ("forall y. (!(E(x,y)) | exists z. (E(y,z) & !((x = z))))", GN_FORALL),
        ("!(E(x,y))", GN_BARE),
        ("!((x = z))", GN_CONJOINED),
        ("exists z. (E(y,z) & !((x = z)))", GQ_EXISTS),
    ]),
    ("forall x,y. (!E(x,y) | !(P(x) & !E(y,x)))", "gfo", [
        ("forall x. forall y. (!(E(x,y)) | !((P(x) & !(E(y,x)))))", GN_FORALL),
        ("forall y. (!(E(x,y)) | !((P(x) & !(E(y,x)))))", GN_FORALL),
        ("!(E(x,y))", GN_BARE),
        ("!((P(x) & !(E(y,x))))", GN_BARE),
        ("!(E(y,x))", GN_CONJOINED),
    ]),
    ("forall x,y. (P(x) | E(x,y))", "neither", [
        ("forall x. forall y. (P(x) | E(x,y))", GN_FORALL),
        ("forall y. (P(x) | E(x,y))", GN_FORALL),
        ("forall x. forall y. (P(x) | E(x,y))", GQ_FORALL),
    ]),
    ("exists x. (P(x) & forall y,z. (!E(x,y) | E(y,z)))", "neither", [
        ("forall y. forall z. (!(E(x,y)) | E(y,z))", GN_FORALL),
        ("forall z. (!(E(x,y)) | E(y,z))", GN_FORALL),
        ("!(E(x,y))", GN_BARE),
        ("forall y. forall z. (!(E(x,y)) | E(y,z))", GQ_FORALL),
    ]),
    ("exists x,y. ((x = y) & !E(x,y))", "both", []),
    ("exists x,y. (E(x,y) & P(x) & !E(y,x))", "both", []),
]


@pytest.mark.parametrize("text,verdict,violations", PINNED_REPORTS)
def test_violations_are_reported_in_order(text, verdict, violations):
    rep = check_gnf(parse_formula(text))
    assert rep.verdict == verdict
    assert rep.violations == tuple(violations)


def test_single_variable_negation_needs_no_guard():
    f = fo_exists("x", FoNot(U("x")))
    assert check_gnf(f).verdict == "both"


# ---------------------------------------------------------------- evaluation


def test_eval_quantifiers_on_cycles_and_paths():
    f = fo_forall("x", fo_exists("y", Atom("E", (Var("x"), Var("y")))))
    assert eval_fo(f, cycle(3))
    assert not eval_fo(f, path(2))


def test_eval_with_binding():
    f = fo_forall("y", Atom("E", (Var("x"), Var("y"))))
    assert not eval_fo(f, cycle(3), binding={"x": elem("n1")})
    assert eval_fo(FoEq(Var("x"), Var("y")), cycle(3),
                   binding={"x": elem("n1"), "y": elem("n1")})


def test_explicit_domain_changes_quantifier_range():
    i = Instance(Signature([("U", 1)]), [Fact("U", (elem("a"),))])
    f = fo_exists("x", FoNot(U("x")))
    assert not eval_fo(f, i)
    assert eval_fo(f, i, domain={elem("a"), elem("b")})
    with pytest.raises(ValueError):
        eval_fo(f, i, domain={elem("b")})  # must contain the active domain


def test_eval_validates_the_signature():
    with pytest.raises(ValueError):
        eval_fo(U("x"), cycle(3), binding={"x": elem("n1")})
    bad_arity = Atom("E", (Var("x"),))
    with pytest.raises(ValueError):
        eval_fo(fo_exists("x", bad_arity), cycle(3))


@pytest.mark.parametrize("text", ["R(a) | S(x)", "S(a) | S(x)", "S(a) & R(x)", "R(x) & S(a)"])
def test_eval_rejects_unbound_variables_whatever_the_evaluation_order(text):
    i = parse_instance("rel R/1. rel S/1. const a. R(a). S(b).")
    f = parse_formula(text, i.sig)
    with pytest.raises(ValueError, match="unbound variables: x$"):
        eval_fo(f, i)
    assert eval_fo(f, i, binding={"x": elem("b")}) == ("|" in text)


def test_eval_names_every_unbound_variable():
    f = fo_exists("y", fo_and(R("x", "y"), R("y", "z")))
    with pytest.raises(ValueError, match="unbound variables: x, z$"):
        eval_fo(f, Instance(Signature([("R", 2)]), []), binding={"y": elem("n1")})


def test_eval_agrees_with_reference_evaluator():
    rng = random.Random(79)
    for _ in range(300):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        f = random_formula(rng, sig, depth=3)
        closed = fo_forall("x", fo_forall("y", fo_forall("z", f)))
        i = random_instance(rng, sig, max_elems=3, max_facts=6)
        assert eval_fo(closed, i) == naive_eval_fo(closed, i)


# ---------------------------------------------------------------- dependencies


def test_tgd_translation_shape_and_fragment():
    t = make_tgd([atom("U", "x")], [atom("S", "x", "z")])
    f = tgd_to_gnf(t)
    assert str(f) == "!(exists x. (U(x) & !(exists z. S(x,z))))"
    assert check_gnf(f).verdict == "both"


def test_tgd_translation_requires_frontier_guard():
    t = make_tgd([atom("R", "x", "y"), atom("R", "y", "z")], [atom("T", "x", "z")])
    with pytest.raises(ValueError):
        tgd_to_gnf(t)


def test_tgd_translation_of_a_ground_rule():
    sig, rules = parse_theory("const c. tgd R(c) -> S(c).")
    c = Cst("c")
    f = tgd_to_gnf(rules[0])
    assert f == FoNot(FoAnd((Atom("R", (c,)), FoNot(Atom("S", (c,))))))
    assert check_gnf(f).verdict == "both"


def test_tgd_translation_matches_model_checking():
    rng = random.Random(83)
    for _ in range(60):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        t = random_frontier_guarded_tgd(rng, sig)
        f = tgd_to_gnf(t)
        i = random_instance(rng, sig, max_elems=3, max_facts=6)
        assert eval_fo(f, i) == holds_in(t, i)


# ---------------------------------------------------------------- relativization


def test_relativize_structure():
    f = fo_exists("x", U("x"))
    assert relativize(f, "P") == FoExists("x", FoAnd((Atom("P", (Var("x"),)), U("x"))))
    g = fo_forall("x", U("x"))
    assert relativize(g, "P") == FoForall("x", FoOr((FoNot(Atom("P", (Var("x"),))), U("x"))))
    with pytest.raises(ValueError):
        relativize(fo_exists("x", Atom("P", (Var("x"),))), "P")


def test_relativize_refuses_a_constant_name():
    with pytest.raises(ValueError, match="already used"):
        relativize(fo_exists("x", Atom("E", (Var("x"), Cst("P")))), "P")


def test_relativization_semantics():
    from gnfkit.model import induced_substructure

    rng = random.Random(89)
    for _ in range(40):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        f = random_formula(rng, sig, depth=2)
        sentence = fo_exists("x", fo_exists("y", fo_exists("z", fo_and(f, FoEq(Var("x"), Var("x"))))))
        i = random_instance(rng, sig, max_elems=4, max_facts=6)
        dom = sorted(active_domain(i), key=lambda v: v.name)
        if not dom:
            continue
        sub = set(rng.sample(dom, rng.randint(1, len(dom))))
        psig = sig.extend([("P", 1)])
        extended = Instance(psig, set(i.facts) | {Fact("P", (v,)) for v in sub})
        rel = relativize(sentence, "P")
        restricted = induced_substructure(i, sub)
        assert eval_fo(rel, extended) == eval_fo(sentence, restricted, domain=sub)


# ---------------------------------------------------------------- preservation sentences


def test_extension_preservation_countermodel_for_a_negative_sentence():
    phi = fo_not(fo_exists("x", U("x")))
    sentence = build_extension_preservation_sentence(phi)
    assert check_gnf(sentence).is_gnf
    cm = search_countermodel(sentence, 3)
    assert cm is not None
    assert len(cm.domain) == 2
    rels = sorted(f.rel for f in cm.instance.facts)
    assert rels == ["P", "U"]
    by_rel = {f.rel: f.args[0] for f in cm.instance.facts}
    assert by_rel["P"] != by_rel["U"]


def test_extension_preserved_sentence_has_no_countermodel():
    phi = fo_exists("x", U("x"))
    sentence = build_extension_preservation_sentence(phi)
    assert search_countermodel(sentence, 4) is None


def test_extension_preservation_with_free_variables():
    preserved = U("x")  # a single atom survives any extension
    assert search_countermodel(build_extension_preservation_sentence(preserved), 3) is None
    fragile = fo_forall("y", Atom("E", (Var("x"), Var("y"))))
    cm = search_countermodel(build_extension_preservation_sentence(fragile), 3)
    assert cm is not None
    assert len(cm.domain) == 2


@pytest.mark.parametrize("build,f,names", [
    (build_extension_preservation_sentence, fo_exists("x", Atom("E", (Var("x"), Cst("P")))),
     (["E", "P1"], ["P"])),
    (build_extension_preservation_sentence, Atom("d0", (Var("x"),)), (["P", "d0"], ["d01"])),
    (build_domain_independence_sentence, fo_exists("x", Atom("E", (Var("x"), Cst("D1")))),
     (["D11", "D2", "E"], ["D1"])),
], ids=["constant-P", "relation-d0", "constant-D1"])
def test_sentence_builders_pick_names_clear_of_relations_and_constants(build, f, names):
    sig = formula_signature(build(f))
    assert (sig.relations(), list(sig.constants)) == names


@pytest.mark.parametrize("build,f", [
    (build_extension_preservation_sentence, fo_exists("x", Atom("E", (Var("x"), Cst("w"))))),
    (build_domain_independence_sentence, fo_exists("x", Atom("E", (Var("x"), Cst("w"))))),
    (build_domain_independence_sentence, fo_exists("y", Atom("E", (Var("y"), Cst("x1"))))),
], ids=["preservation-constant-w", "independence-constant-w", "independence-constant-x1"])
def test_sentence_builders_bind_names_clear_of_constants(build, f):
    g = build(f)
    assert parse_formula(print_formula(g), formula_signature(g)) == g


def test_domain_independence_sentences():
    dependent = fo_forall("x", U("x"))
    cm = search_countermodel(build_domain_independence_sentence(dependent), 3)
    assert cm is not None
    assert len(cm.domain) == 2
    assert serialize_facts(cm.instance) == "D1(e1). D1(e2). D2(e1). U(e1)."
    independent = fo_exists("x", U("x"))
    assert search_countermodel(build_domain_independence_sentence(independent), 3) is None


# ---------------------------------------------------------------- negation stripping


def test_strip_keeps_guarded_negatives():
    f = fo_exists("y", fo_and(R("x", "y"), FoNot(U("x"))))
    assert strip_unguarded_negatives(f) == f
    g = fo_exists("y", fo_and(R("x", "y"), FoNot(FoEq(Var("x"), Var("y")))))
    assert strip_unguarded_negatives(g) == g


def test_strip_drops_unguarded_negatives():
    f = fo_exists("y", fo_exists("z", fo_and(R("x", "y"),
                                             FoNot(Atom("S", (Var("y"), Var("z")))))))
    assert str(strip_unguarded_negatives(f)) == "exists y. exists z. R(x,y)"


def test_strip_keeps_single_variable_negatives():
    f = fo_exists("y", fo_and(R("x", "y"), FoNot(U("z"))))
    assert strip_unguarded_negatives(f) == f


def test_strip_of_a_bare_negative_leaves_a_tautology():
    f = FoNot(Atom("S", (Var("x"), Var("y"))))
    assert strip_unguarded_negatives(f) == FoEq(Var("x"), Var("x"))


def test_strip_treats_disjuncts_independently():
    d1 = fo_exists("y", fo_and(R("x", "y"), FoNot(Atom("S", (Var("x"), Var("y"))))))
    d2 = fo_exists("z", fo_exists("w", fo_and(U("z"), FoNot(Atom("S", (Var("z"), Var("w")))))))
    out = strip_unguarded_negatives(fo_or(d1, d2))
    parts = disjuncts(out)
    assert parts[0] == d1  # S(x,y) is guarded by R(x,y)
    assert str(parts[1]) == "exists z. exists w. U(z)"


def test_strip_output_is_implied_by_the_input():
    rng = random.Random(97)
    sig = Signature([("R", 2), ("S", 2), ("U", 1)])
    f = fo_or(
        fo_exists("y", fo_exists("z", fo_and(R("x", "y"), FoNot(Atom("S", (Var("y"), Var("z"))))))),
        fo_exists("w", fo_and(U("w"), FoNot(R("x", "w")))),
    )
    g = strip_unguarded_negatives(f)
    for _ in range(60):
        i = random_instance(rng, sig, max_elems=3, max_facts=7)
        dom = sorted(active_domain(i), key=lambda v: v.name)
        for v in dom:
            if eval_fo(f, i, binding={"x": v}):
                assert eval_fo(g, i, binding={"x": v})


def test_strip_rejects_other_shapes():
    with pytest.raises(ValueError):
        strip_unguarded_negatives(fo_forall("x", U("x")))
    with pytest.raises(ValueError):
        strip_unguarded_negatives(fo_exists("x", fo_or(U("x"), FoNot(U("x")))))


# ---------------------------------------------------------------- countermodels


def test_countermodel_search_finds_the_smallest_size():
    cm = search_countermodel(fo_forall("x", U("x")), 3)
    assert cm is not None
    assert len(cm.domain) == 1
    assert cm.instance.facts == frozenset()  # one isolated element, no U fact


def test_valid_sentences_have_no_countermodel():
    f = fo_exists("x", fo_or(U("x"), FoNot(U("x"))))
    assert search_countermodel(f, 3) is None


def test_countermodel_search_validates_inputs():
    with pytest.raises(ValueError):
        search_countermodel(U("x"), 3)
    with pytest.raises(ValueError):
        search_countermodel(fo_exists("x", U("x")), 0)


def test_countermodels_falsify_the_sentence():
    rng = random.Random(101)
    found = 0
    for _ in range(40):
        sig = random_signature(rng, max_rels=2, max_arity=2)
        f = random_formula(rng, sig, depth=2)
        closed = fo_forall("x", fo_forall("y", fo_forall("z", f)))
        cm = search_countermodel(closed, 2)
        if cm is None:
            continue
        found += 1
        assert not eval_fo(closed, cm.instance, domain=set(cm.domain))
    assert found >= 5
