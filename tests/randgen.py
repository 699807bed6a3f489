"""Seeded random generators shared by the property-style tests."""

from __future__ import annotations

import random

from gnfkit.model import Fact, Instance, Signature, elem
from gnfkit.query import Atom, ConjunctiveQuery, Var, cq
from gnfkit.tgd import Tgd, make_tgd


def random_signature(rng: random.Random, max_rels: int = 4, max_arity: int = 3) -> Signature:
    n = rng.randint(1, max_rels)
    rels = [(f"R{i}", rng.randint(1, max_arity)) for i in range(n)]
    return Signature(rels)


def random_instance(rng: random.Random, sig: Signature, max_elems: int = 6,
                    max_facts: int = 10) -> Instance:
    elems = [elem(f"e{i}") for i in range(rng.randint(1, max_elems))]
    facts = set()
    for _ in range(rng.randint(0, max_facts)):
        rel = rng.choice(sig.relations())
        args = tuple(rng.choice(elems) for _ in range(sig.arities[rel]))
        facts.add(Fact(rel, args))
    return Instance(sig, facts)


def random_cq(rng: random.Random, sig: Signature, max_atoms: int = 3,
              max_vars: int = 4, n_free: int | None = None) -> ConjunctiveQuery:
    pool = [f"x{i}" for i in range(max_vars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = rng.choice(sig.relations())
        args = tuple(Var(rng.choice(pool)) for _ in range(sig.arities[rel]))
        atoms.append(Atom(rel, args))
    used = []
    for a in atoms:
        for v in a.vars():
            if v not in used:
                used.append(v)
    if n_free is None:
        n_free = rng.randint(0, len(used))
    free = used[:n_free]
    return cq(free, atoms)


def random_guarded_tgd(rng: random.Random, sig: Signature, max_extra: int = 2,
                       existential: bool = True) -> Tgd:
    """A guarded TGD: guard atom covering all body variables, small head."""
    rels = sig.relations()
    guard_rel = rng.choice(rels)
    ar = sig.arities[guard_rel]
    body_vars = [f"x{i}" for i in range(ar)]
    guard = Atom(guard_rel, tuple(Var(rng.choice(body_vars)) for _ in range(ar)))
    gvars = list(guard.vars())
    if not gvars:
        gvars = body_vars[:1]
        guard = Atom(guard_rel, tuple(Var(gvars[0]) for _ in range(ar)))
    body = [guard]
    for _ in range(rng.randint(0, max_extra)):
        rel = rng.choice(rels)
        body.append(Atom(rel, tuple(Var(rng.choice(gvars)) for _ in range(sig.arities[rel]))))
    n_ex = rng.randint(0, 2) if existential else 0
    head_pool = gvars + [f"z{i}" for i in range(n_ex)]
    rel = rng.choice(rels)
    head = [Atom(rel, tuple(Var(rng.choice(head_pool)) for _ in range(sig.arities[rel])))]
    return make_tgd(body, head)


def random_frontier_guarded_tgd(rng: random.Random, sig: Signature) -> Tgd:
    """Frontier-guarded: body may use extra variables, one body atom covers the frontier."""
    rels = sig.relations()
    guard_rel = rng.choice(rels)
    ar = sig.arities[guard_rel]
    frontier_pool = [f"x{i}" for i in range(ar)]
    guard = Atom(guard_rel, tuple(Var(rng.choice(frontier_pool)) for _ in range(ar)))
    gvars = list(guard.vars())
    extra_vars = [f"y{i}" for i in range(rng.randint(0, 2))]
    body = [guard]
    for _ in range(rng.randint(0, 2)):
        rel = rng.choice(rels)
        pool = gvars + extra_vars
        body.append(Atom(rel, tuple(Var(rng.choice(pool)) for _ in range(sig.arities[rel]))))
    n_ex = rng.randint(0, 2)
    head_pool = gvars + [f"z{i}" for i in range(n_ex)]
    rel = rng.choice(rels)
    head = [Atom(rel, tuple(Var(rng.choice(head_pool)) for _ in range(sig.arities[rel])))]
    return make_tgd(body, head)


def random_full_tgd(rng: random.Random, sig: Signature) -> Tgd:
    t = random_guarded_tgd(rng, sig, existential=False)
    return t


def random_dl_tbox(rng: random.Random, concepts: list[str], roles: list[str],
                   axioms: int) -> list[Tgd]:
    """`axioms` description-logic TBox axioms over the concept (unary) and
    role (binary) names, each of one of four shapes, as guarded TGDs:

    - ``A ⊑ ∃R.B`` as ``A(x) -> exists y: R(x,y), B(y)``;
    - ``∃R.A ⊑ B`` as ``R(x,y), A(y) -> B(x)``;
    - ``A ⊓ B ⊑ C`` as ``A(x), B(x) -> C(x)``;
    - ``A ⊑ ∀R.B`` as ``A(x), R(x,y) -> B(y)``."""
    x, y = Var("x"), Var("y")
    out = []
    for _ in range(axioms):
        shape = rng.randrange(4)
        a, b, r = rng.choice(concepts), rng.choice(concepts), rng.choice(roles)
        if shape == 0:
            body, head = [Atom(a, (x,))], [Atom(r, (x, y)), Atom(b, (y,))]
        elif shape == 1:
            body, head = [Atom(r, (x, y)), Atom(a, (y,))], [Atom(b, (x,))]
        elif shape == 2:
            body, head = [Atom(a, (x,)), Atom(b, (x,))], [Atom(rng.choice(concepts), (x,))]
        else:
            body, head = [Atom(a, (x,)), Atom(r, (x, y))], [Atom(b, (y,))]
        out.append(make_tgd(body, head))
    return out


def random_datalog_program(rng: random.Random):
    """A small program plus a matching edb instance."""
    from gnfkit.datalog import DatalogProgram, Rule

    edb = Signature([(f"E{i}", rng.randint(1, 2)) for i in range(rng.randint(1, 3))])
    idb = Signature([(f"I{i}", rng.randint(1, 2)) for i in range(rng.randint(1, 3))])
    all_rels = [(r, edb.arities[r]) for r in edb.relations()] + \
               [(r, idb.arities[r]) for r in idb.relations()]
    pool = [f"x{i}" for i in range(4)]
    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            rel, ar = rng.choice(all_rels)
            body.append(Atom(rel, tuple(Var(rng.choice(pool)) for _ in range(ar))))
        body_vars = sorted({v for a in body for v in a.vars()})
        head_rel = rng.choice(idb.relations())
        head = Atom(head_rel, tuple(Var(rng.choice(body_vars))
                                    for _ in range(idb.arities[head_rel])))
        rules.append(Rule(head, tuple(body)))
    goal = rng.choice(idb.relations())
    inst = random_instance(rng, edb, max_elems=4, max_facts=8)
    return DatalogProgram(edb, idb, tuple(rules), goal), inst


def random_gnf_sentence(rng: random.Random, sig: Signature, depth: int = 3):
    """A closed formula in the guarded-negation grammar: negation appears only
    conjoined with an atomic guard covering its free variables, universal
    quantifiers never appear, and the quantifier depth is at most `depth`."""
    from gnfkit.logic import FoAnd, FoEq, FoExists, FoNot, FoOr, check_gnf, free_vars
    from gnfkit.query import Cst

    rels = sig.relations()
    consts = list(sig.constants)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def term(scope: list[str]):
        if scope and (not consts or rng.random() < 0.85):
            return Var(rng.choice(scope))
        return Cst(rng.choice(consts))

    def atom(scope: list[str]) -> Atom:
        rel = rng.choice(rels)
        return Atom(rel, tuple(term(scope) for _ in range(sig.arities[rel])))

    def gen(scope: list[str], d: int, size: int):
        opts = []
        if scope or consts:
            opts += ["atom", "atom", "eq"]
        if d > 0:
            opts += ["exists", "exists"]
        if size > 0 and (scope or consts):
            opts += ["and", "or", "neg"]
        choice = rng.choice(opts)
        if choice == "atom":
            return atom(scope)
        if choice == "eq":
            return FoEq(term(scope), term(scope))
        if choice == "exists":
            v = fresh()
            return FoExists(v, gen(scope + [v], d - 1, size))
        if choice == "and":
            return FoAnd((gen(scope, d, size - 1), gen(scope, d, size - 1)))
        if choice == "or":
            return FoOr((gen(scope, d, size - 1), gen(scope, d, size - 1)))
        guard = atom(scope)
        gvars = sorted({t.name for t in guard.args if isinstance(t, Var)})
        return FoAnd((guard, FoNot(gen(gvars, d, size - 1))))

    v0 = fresh()
    sentence = FoExists(v0, gen([v0], depth - 1, 3))
    assert not free_vars(sentence)
    assert check_gnf(sentence).is_gnf
    return sentence


def random_gfo_sentence(rng: random.Random, sig: Signature, depth: int = 3):
    """A closed formula in the guarded-quantification grammar: every
    quantifier block carries an atomic guard covering the kernel's free
    variables; negation is unrestricted; quantifier depth at most `depth`."""
    from gnfkit.logic import FoAnd, FoEq, FoExists, FoForall, FoNot, FoOr, check_gfo, free_vars
    from gnfkit.query import Cst

    rels = sig.relations()
    consts = list(sig.constants)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def term(scope: list[str]):
        if scope and (not consts or rng.random() < 0.85):
            return Var(rng.choice(scope))
        return Cst(rng.choice(consts))

    def atom(scope: list[str]) -> Atom:
        rel = rng.choice(rels)
        return Atom(rel, tuple(term(scope) for _ in range(sig.arities[rel])))

    def quantified(scope: list[str], d: int, size: int):
        rel = rng.choice(rels)
        ar = sig.arities[rel]
        n_new = rng.randint(1, ar)
        newvars = [fresh() for _ in range(n_new)]
        slots: list[str | None] = list(newvars) + [None] * (ar - n_new)
        rng.shuffle(slots)
        args = []
        for s in slots:
            if s is not None:
                args.append(Var(s))
            elif scope or consts:
                args.append(term(scope))
            else:
                args.append(Var(rng.choice(newvars)))
        guard = Atom(rel, tuple(args))
        gvars = sorted({t.name for t in guard.args if isinstance(t, Var)})
        sub = gen(gvars, d - 1, size)
        if rng.random() < 0.5:
            out = FoAnd((guard, sub))
            for v in reversed(newvars):
                out = FoExists(v, out)
        else:
            out = FoOr((FoNot(guard), sub))
            for v in reversed(newvars):
                out = FoForall(v, out)
        return out

    def gen(scope: list[str], d: int, size: int):
        opts = []
        if scope or consts:
            opts += ["atom", "atom", "eq"]
        if d > 0:
            opts += ["quant", "quant"]
        if size > 0 and (scope or consts):
            opts += ["and", "or", "not"]
        choice = rng.choice(opts)
        if choice == "atom":
            return atom(scope)
        if choice == "eq":
            return FoEq(term(scope), term(scope))
        if choice == "quant":
            return quantified(scope, d, size)
        if choice == "and":
            return FoAnd((gen(scope, d, size - 1), gen(scope, d, size - 1)))
        if choice == "or":
            return FoOr((gen(scope, d, size - 1), gen(scope, d, size - 1)))
        return FoNot(gen(scope, d, size - 1))

    sentence = quantified([], depth, 2)
    assert not free_vars(sentence)
    assert check_gfo(sentence).is_gfo
    return sentence


def random_formula(rng: random.Random, sig: Signature, depth: int = 3,
                   pool: tuple[str, ...] = ("x", "y", "z"), consts: tuple[str, ...] = ()):
    """A well-scoped FO formula; free variables draw from `pool`.  With
    `consts`, a leaf term is one of those constants one time in four; without,
    the draws are those of a formula with no constants."""
    from gnfkit.logic import FoAnd, FoEq, FoExists, FoForall, FoNot, FoOr
    from gnfkit.query import Cst

    def term():
        if consts and rng.random() < 0.25:
            return Cst(rng.choice(consts))
        return Var(rng.choice(pool))

    def leaf():
        if rng.random() < 0.8:
            rel = rng.choice(sig.relations())
            return Atom(rel, tuple(term() for _ in range(sig.arities[rel])))
        return FoEq(term(), term())

    def build(d: int):
        if d <= 0:
            return leaf()
        k = rng.randint(0, 5)
        if k == 0:
            return leaf()
        if k == 1:
            return FoNot(build(d - 1))
        if k == 2:
            return FoAnd((build(d - 1), build(d - 1)))
        if k == 3:
            return FoOr((build(d - 1), build(d - 1)))
        if k == 4:
            return FoExists(rng.choice(pool), build(d - 1))
        return FoForall(rng.choice(pool), build(d - 1))

    return build(depth)
