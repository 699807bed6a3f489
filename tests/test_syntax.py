"""Parsers and printers: examples, round-trips, error positions."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from gnfkit.datalog import DatalogProgram, Rule
from gnfkit.logic import FoAnd, FoEq, FoExists, FoForall, FoNot, FoOr, free_vars
from gnfkit.model import Fact, Instance, Signature, const, elem
from gnfkit.query import Atom, ConjunctiveQuery, Cst, Var, atom, cq
from gnfkit.syntax import (
    ParseError,
    parse_datalog,
    parse_formula,
    parse_instance,
    parse_query,
    parse_theory,
    print_datalog,
    print_formula,
    print_instance,
    print_query,
    print_theory,
)
from gnfkit.tgd import Tgd, make_tgd
from randgen import random_formula, random_instance, random_signature

EX_THEORY = """
rel R/2.
rel U/1.
rel S/2.
rel T/1.
tgd R(x,y), U(y) -> U(x).
tgd U(x) -> exists z: S(x,z).
tgd S(x,y) -> T(x).
"""

EX_INSTANCE = "R(a,b). U(b)."


# ---------------------------------------------------------------------------
# theories


def test_parse_theory_running_example():
    sig, rules = parse_theory(EX_THEORY)
    assert sig.arities == {"R": 2, "U": 1, "S": 2, "T": 1}
    assert rules[0] == make_tgd([atom("R", "x", "y"), atom("U", "y")],
                                [atom("U", "x")])
    assert rules[1].head.exist_vars == ("z",)
    assert rules[2] == make_tgd([atom("S", "x", "y")], [atom("T", "x")])


def test_theory_roundtrip():
    sig, rules = parse_theory(EX_THEORY)
    text = print_theory(sig, rules)
    assert parse_theory(text) == (sig, rules)
    assert print_theory(*parse_theory(text)) == text


def test_comments_run_to_the_end_of_their_line():
    text = "# two rules\ntgd R(x,y) -> U(x).  # R's first column\ntgd U(x) -> T(x).\n#"
    assert parse_theory(text) == parse_theory("tgd R(x,y) -> U(x). tgd U(x) -> T(x).")


def test_theory_signature_inference():
    sig, rules = parse_theory("tgd R(x,y) -> exists z: R(y,z).")
    assert sig.arities == {"R": 2}
    assert len(rules) == 1


def test_theory_constants_in_rules():
    sig, rules = parse_theory("const c. tgd R(x,c) -> U(x).")
    body_atom = rules[0].body.atoms[0]
    assert body_atom.args == (Var("x"), Cst("c"))
    assert sig.constants == ("c",)


def test_theory_undeclared_relation_position():
    with pytest.raises(ParseError) as err:
        parse_theory("rel R/2.\ntgd R(x,y) -> U(x).")
    assert err.value.line == 2 and "undeclared relation U" in str(err.value)


def test_theory_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_theory("rel R/2.\ntgd R(x) -> R(x,x).")
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_theory("tgd R(x), R(x,y) -> R(y,x).")  # inconsistent inferred use


def test_theory_head_variable_errors():
    with pytest.raises(ParseError, match="neither universal nor existential"):
        parse_theory("tgd U(x) -> S(x,z).")
    with pytest.raises(ParseError, match="also occurs in the body"):
        parse_theory("tgd U(x) -> exists x: S(x,x).")


def test_theory_bad_statement():
    with pytest.raises(ParseError, match="expected 'rel', 'const' or 'tgd'"):
        parse_theory("R(a,b).")
    with pytest.raises(ParseError, match="missing its final"):
        parse_theory("rel R/2")
    # a keyword not followed by a name does not start a declaration
    for text in ("rel(a).", "tgd -> U(x)."):
        with pytest.raises(ParseError, match="expected 'rel', 'const' or 'tgd'") as err:
            parse_theory(text)
        assert (err.value.line, err.value.col) == (1, 1)


# ---------------------------------------------------------------------------
# instances


def test_parse_instance_running_example():
    inst = parse_instance(EX_INSTANCE)
    assert inst == Instance(Signature([("R", 2), ("U", 1)]),
                            [Fact("R", (elem("a"), elem("b"))),
                             Fact("U", (elem("b"),))])


def test_instance_declarations_keep_unused_relations():
    inst = parse_instance("rel R/2. rel T/1. R(a,b).")
    assert inst.sig.arities == {"R": 2, "T": 1}
    assert len(inst.facts) == 1


def test_instance_constants_and_let():
    inst = parse_instance("const c. R(c,b).")
    assert Fact("R", (const("c"), elem("b"))) in inst.facts
    inst2 = parse_instance("const c. let c = a. R(c,b).")
    assert inst2.const_interp["c"] == elem("a")
    assert Fact("R", (elem("a"), elem("b"))) in inst2.facts


def test_instance_quoted_names_are_literal_elements():
    inst = parse_instance('const c. R("c", "p(n1,m1)").')
    args = next(iter(inst.facts)).args
    assert args == (elem("c"), elem("p(n1,m1)"))


def test_instance_roundtrip_plain_and_quoted():
    cases = [
        parse_instance(EX_INSTANCE),
        parse_instance("const c. let c = a. R(c,b). U(b)."),
        Instance(Signature([("E", 2)]), [Fact("E", (elem("p(n1,m1)"), elem("1")))]),
        Instance(Signature([("R", 1)], ["c"]), [Fact("R", (elem("c"),))]),
        Instance(Signature([("R", 1)], ["c"]), [Fact("R", (const("c"),))]),
        Instance(Signature([], []), []),
    ]
    for inst in cases:
        assert parse_instance(print_instance(inst)) == inst


def test_instance_roundtrip_random():
    rng = random.Random(5117)
    for _ in range(25):
        inst = random_instance(rng, random_signature(rng))
        assert parse_instance(print_instance(inst)) == inst


def test_instance_arity_errors():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_instance("rel R/2. R(a).")
    with pytest.raises(ParseError, match="undeclared relation"):
        parse_instance("rel R/2. U(a).")
    with pytest.raises(ParseError, match="not a declared constant"):
        parse_instance("let c = a.")


# ---------------------------------------------------------------------------
# queries


def test_parse_query_shapes_agree():
    bare = parse_query("T(x)")
    assert bare == cq(["x"], [atom("T", "x")])
    ruled = parse_query("ans(x) :- T(x).")
    assert ruled == bare
    existential = parse_query("exists y: R(x,y), U(y)")
    assert existential == cq(["x"], [atom("R", "x", "y"), atom("U", "y")])
    assert parse_query("ans(x) :- R(x,y), U(y).") == existential


def test_parse_query_boolean_and_order():
    q = parse_query("ans() :- R(x,y).")
    assert q.free_vars == () and q.exist_vars == ("x", "y")
    q2 = parse_query("ans(y,x) :- R(x,y).")
    assert q2.free_vars == ("y", "x")


def test_parse_query_with_signature_constants():
    sig = Signature([("R", 2)], ["c"])
    q = parse_query("R(x,c)", sig)
    assert q.atoms[0].args == (Var("x"), Cst("c"))
    with pytest.raises(ParseError, match="undeclared relation"):
        parse_query("T(x)", sig)
    with pytest.raises(ParseError, match="declared constant"):
        parse_query("ans(c) :- R(c,c).", sig)


def test_parse_query_errors():
    with pytest.raises(ParseError, match="occurs in no atom"):
        parse_query("ans(x,z) :- R(x,y).")
    with pytest.raises(ParseError, match="duplicate answer variable"):
        parse_query("ans(x,x) :- R(x,x).")
    with pytest.raises(ParseError, match="duplicate existential"):
        parse_query("exists y,y: R(y,y)")


def test_query_roundtrip():
    cases = [
        parse_query("T(x)"),
        parse_query("ans() :- R(x,y), U(y)."),
        parse_query("ans(x,w) :- R(x,y), S(y,w), U(y)."),
        cq([], [Atom("R", (Cst("c"), Var("x")))]),
    ]
    for q in cases:
        sig = None
        if q.constants():
            rels = sorted({(a.rel, len(a.args)) for a in q.atoms})
            sig = Signature(rels, sorted(q.constants()))
        assert parse_query(print_query(q), sig) == q


# ---------------------------------------------------------------------------
# Datalog


EX_PROGRAM = """
edb R/2.
edb U/1.
goal UReach/1.
UReach(x) :- U(x).
UReach(x) :- R(x,y), UReach(y).
"""


def test_parse_datalog_example():
    p = parse_datalog(EX_PROGRAM)
    assert p.goal == "UReach"
    assert p.edb.arities == {"R": 2, "U": 1}
    assert p.idb.arities == {"UReach": 1}
    assert p.rules[0] == Rule(Atom("UReach", (Var("x"),)), (Atom("U", (Var("x"),)),))
    assert len(p.rules) == 2


def test_datalog_roundtrip():
    p = parse_datalog(EX_PROGRAM)
    assert parse_datalog(print_datalog(p)) == p
    p2 = parse_datalog("edb R/2. idb Aux/1. goal G/1. const c.\n"
                       "Aux(x) :- R(x,c). G(x) :- Aux(x), R(x,x).")
    assert parse_datalog(print_datalog(p2)) == p2
    assert p2.rules[0].body[0].args == (Var("x"), Cst("c"))


def test_datalog_errors():
    with pytest.raises(ParseError, match="missing goal"):
        parse_datalog("edb R/2. idb A/1. A(x) :- R(x,x).")
    with pytest.raises(ParseError, match="must be an idb relation"):
        parse_datalog("edb R/2. goal G/1. R(x,x) :- G(x).")
    with pytest.raises(ParseError, match="undeclared relation"):
        parse_datalog("edb R/2. goal G/1. G(x) :- W(x).")
    with pytest.raises(ParseError, match="does not occur in the body"):
        parse_datalog("edb R/2. goal G/1. G(x) :- R(y,y).")
    with pytest.raises(ParseError, match="clashes with an edb"):
        parse_datalog("edb G/1. goal G/1. G(x) :- G(x).")


# ---------------------------------------------------------------------------
# formulas


def test_parse_formula_shapes():
    f = parse_formula("exists x. (E(x,y) & !U(x))")
    assert f == FoExists("x", FoAnd((Atom("E", (Var("x"), Var("y"))),
                                     FoNot(Atom("U", (Var("x"),))))))
    g = parse_formula("forall x. (!E(x,x) | exists y. E(x,y))")
    assert isinstance(g, FoForall)
    assert free_vars(g) == set()


def test_parse_formula_precedence():
    f = parse_formula("U(x) & U(y) | U(z)")
    assert f == FoOr((FoAnd((Atom("U", (Var("x"),)), Atom("U", (Var("y"),)))),
                      Atom("U", (Var("z"),))))
    g = parse_formula("!U(x) & U(y)")
    assert g == FoAnd((FoNot(Atom("U", (Var("x"),))), Atom("U", (Var("y"),))))


def test_parse_formula_quantifier_scope_extends_right():
    f = parse_formula("exists x. U(x) & V(x)")
    assert f == FoExists("x", FoAnd((Atom("U", (Var("x"),)), Atom("V", (Var("x"),)))))
    g = parse_formula("U(y) & exists x. U(x) & V(x)")
    assert g == FoAnd((Atom("U", (Var("y"),)),
                       FoExists("x", FoAnd((Atom("U", (Var("x"),)),
                                            Atom("V", (Var("x"),)))))))


def test_parse_formula_multi_binder_and_equality():
    f = parse_formula("exists x,y. (E(x,y) & !(x = y))")
    assert f == FoExists("x", FoExists("y", FoAnd((
        Atom("E", (Var("x"), Var("y"))),
        FoNot(FoEq(Var("x"), Var("y")))))))


def test_parse_formula_signature_checks():
    sig = Signature([("E", 2)], ["c"])
    f = parse_formula("E(x,c)", sig)
    assert f == Atom("E", (Var("x"), Cst("c")))
    with pytest.raises(ParseError, match="undeclared relation"):
        parse_formula("W(x)", sig)
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_formula("E(x)", sig)
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_formula("E(x,y) & E(x)")


def test_parse_formula_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("U(x) &\n& U(y)")
    assert err.value.line == 2 and err.value.col == 1
    with pytest.raises(ParseError, match="unexpected character"):
        parse_formula("U(x) @ U(y)")
    with pytest.raises(ParseError, match="end of formula"):
        parse_formula("U(x) U(y)")


def test_formula_roundtrip_random():
    rng = random.Random(90807)
    done = 0
    for _ in range(120):
        sig = random_signature(rng)
        f = random_formula(rng, sig, depth=rng.randint(1, 4))
        text = print_formula(f)
        assert parse_formula(text) == f
        done += 1
    assert done == 120


def _position(parse, *args) -> tuple[int, int, str]:
    with pytest.raises(ParseError) as err:
        parse(*args)
    return err.value.line, err.value.col, str(err.value)


def test_bound_variables_may_not_carry_a_constant_name():
    line, col, msg = _position(parse_theory, "const c.\ntgd U(x) -> exists c: R(x,c).")
    assert (line, col) == (2, 20) and "existential variable c is a declared constant" in msg
    line, col, _ = _position(parse_theory, "const c. tgd U(x) -> exists z,c: R(x,c).")
    assert (line, col) == (1, 31)
    sig = Signature([("R", 2), ("E", 2)], ["c"])
    assert _position(parse_query, "exists c: R(x,c)", sig)[:2] == (1, 8)
    line, col, msg = _position(parse_formula, "exists c. E(c,c)", sig)
    assert (line, col) == (1, 8) and "declared constant" in msg
    line, col, msg = _position(parse_formula, "E(x,x) & forall y,c. E(y,c)", sig)
    assert (line, col) == (1, 19) and "universal variable c" in msg
    # without the constant the same texts bind their variable
    assert parse_query("exists c: R(x,c)").exist_vars == ("c",)
    assert parse_formula("exists c. E(c,c)") == FoExists("c", Atom("E", (Var("c"), Var("c"))))


def test_constants_may_not_share_a_relation_name():
    cases = [
        (parse_theory, "rel R/2. const R.\ntgd R(x,y) -> R(y,x).", (1, 16)),
        (parse_theory, "const R.\ntgd R(x) -> U(x).", (1, 7)),  # inferred relation
        (parse_instance, "rel R/1. const R. R(a).", (1, 16)),
        (parse_instance, "const R. R(a).", (1, 7)),
        (parse_datalog, "edb R/1. const R. goal G/1. G(x) :- R(x).", (1, 16)),
        (parse_datalog, "edb R/1. idb A/1. const A. goal G/1. G(x) :- R(x).", (1, 25)),
        (parse_datalog, "edb R/1. const G. goal G/1. G(x) :- R(x).", (1, 16)),
    ]
    for parse, text, position in cases:
        line, col, msg = _position(parse, text)
        assert (line, col) == position, text
        assert "shares its name with a relation" in msg


def test_formula_binder_names_are_distinct():
    with pytest.raises(ParseError, match="duplicate universal variable x"):
        parse_formula("forall x,x. E(x,x)")


BENCHMARK_INPUTS = Path(__file__).resolve().parents[1] / "benchmark" / "inputs"


@pytest.mark.parametrize("path", sorted(BENCHMARK_INPUTS.glob("theories/*"))
                         + sorted(BENCHMARK_INPUTS.glob("cli/*")),
                         ids=lambda path: path.name)
def test_benchmark_inputs_roundtrip(path):
    text = path.read_text()
    if path.suffix == ".gnf":
        value = parse_theory(text)
        assert parse_theory(print_theory(*value)) == value
    elif path.suffix == ".dl":
        value = parse_datalog(text)
        assert parse_datalog(print_datalog(value)) == value
    else:
        value = parse_instance(text)
        assert parse_instance(print_instance(value)) == value


def test_relation_named_like_keyword():
    # 'exists' followed by '(' is an atom, not a binder
    f = parse_formula("exists(x)")
    assert f == Atom("exists", (Var("x"),))
    sig, rules = parse_theory("tgd exists(x) -> exists z: R(x,z).")
    assert rules[0].body.atoms[0].rel == "exists"
    inst = parse_instance("let(a). rel(b,b).")
    assert inst.sig.arities == {"let": 1, "rel": 2}
    inst = parse_instance("rel rel/2. rel const/1. const c. rel(c,c). const(a).")
    assert inst.sig.arities == {"rel": 2, "const": 1}
    assert Fact("rel", (const("c"), const("c"))) in inst.facts
    p = parse_datalog("edb goal/1. edb R/2. idb idb/1. goal edb/1.\n"
                      "idb(x) :- goal(x). edb(x) :- R(x,y), idb(y).")
    assert p.goal == "edb" and p.edb.arities == {"goal": 1, "R": 2}
    assert [r.head.rel for r in p.rules] == ["idb", "edb"]
    assert parse_datalog(print_datalog(p)) == p
