"""First-order formulas with equality: AST, guarded-fragment membership checks,
finite-structure evaluation, preservation/domain-independence sentence builders,
and bounded countermodel search.

Guardedness conventions implemented here:
  * negation is guarded when it is conjoined with an atomic formula (relational
    or equality) whose variables cover the negated subformula's free variables;
  * a subformula with at most one free variable counts as guarded via the
    trivial equality guard x=x, which we leave implicit;
  * constants never need guarding — only free variables do;
  * guarded quantification means an atomic guard covering the free variables of
    the quantified kernel, with the same implicit-equality-guard convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .model import Fact, Instance, Signature, Value, active_domain, elem
from .query import Atom, ConjunctiveQuery, Cst, Term, Var
from .tgd import Tgd, classify


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class FoEq:
    left: Term
    right: Term

    def __str__(self):
        return f"({self.left.name} = {self.right.name})"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class FoAnd:
    parts: "tuple[FoFormula, ...]"

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("conjunction needs at least two parts")

    def __str__(self):
        return "(" + " & ".join(str(p) for p in self.parts) + ")"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class FoOr:
    parts: "tuple[FoFormula, ...]"

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("disjunction needs at least two parts")

    def __str__(self):
        return "(" + " | ".join(str(p) for p in self.parts) + ")"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class FoNot:
    sub: "FoFormula"

    def __str__(self):
        return f"!({self.sub})"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class FoExists:
    var: str
    sub: "FoFormula"

    def __str__(self):
        return f"exists {self.var}. {self.sub}"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class FoForall:
    var: str
    sub: "FoFormula"

    def __str__(self):
        return f"forall {self.var}. {self.sub}"

    def __repr__(self):
        return str(self)


FoFormula = Union[Atom, FoEq, FoAnd, FoOr, FoNot, FoExists, FoForall]


def fo_and(*parts: FoFormula) -> FoFormula:
    if not parts:
        raise ValueError("empty conjunction")
    return parts[0] if len(parts) == 1 else FoAnd(tuple(parts))


def fo_or(*parts: FoFormula) -> FoFormula:
    if not parts:
        raise ValueError("empty disjunction")
    return parts[0] if len(parts) == 1 else FoOr(tuple(parts))


def fo_not(part: FoFormula) -> FoNot:
    return FoNot(part)


def fo_exists(*args) -> FoFormula:
    *names, body = args
    if not names:
        raise ValueError("fo_exists needs at least one variable")
    for v in reversed(names):
        body = FoExists(v, body)
    return body


def fo_forall(*args) -> FoFormula:
    *names, body = args
    if not names:
        raise ValueError("fo_forall needs at least one variable")
    for v in reversed(names):
        body = FoForall(v, body)
    return body


def free_vars(f: FoFormula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, Atom):
        return {t.name for t in f.args if isinstance(t, Var)} - bound
    if isinstance(f, FoEq):
        return {t.name for t in (f.left, f.right) if isinstance(t, Var)} - bound
    if isinstance(f, (FoAnd, FoOr)):
        out: set[str] = set()
        for p in f.parts:
            out |= free_vars(p, bound)
        return out
    if isinstance(f, FoNot):
        return free_vars(f.sub, bound)
    if isinstance(f, (FoExists, FoForall)):
        return free_vars(f.sub, bound | {f.var})
    raise TypeError(f"not a formula: {f!r}")


def _atom_vars(a: FoFormula) -> set[str]:
    """Variable names of an atomic formula (relational atom or equality)."""
    if isinstance(a, Atom):
        return {t.name for t in a.args if isinstance(t, Var)}
    if isinstance(a, FoEq):
        return {t.name for t in (a.left, a.right) if isinstance(t, Var)}
    raise TypeError(f"not atomic: {a!r}")


def _is_atomic(f: FoFormula) -> bool:
    return isinstance(f, (Atom, FoEq))


def conjuncts(f: FoFormula) -> list[FoFormula]:
    if isinstance(f, FoAnd):
        out: list[FoFormula] = []
        for p in f.parts:
            out.extend(conjuncts(p))
        return out
    return [f]


def disjuncts(f: FoFormula) -> list[FoFormula]:
    if isinstance(f, FoOr):
        out: list[FoFormula] = []
        for p in f.parts:
            out.extend(disjuncts(p))
        return out
    return [f]


def formula_signature(f: FoFormula, base: Optional[Signature] = None) -> Signature:
    """Infer relation arities and constant names; extend `base` when given."""
    rels: dict[str, int] = {}
    consts: set[str] = set()

    def walk(g: FoFormula) -> None:
        if isinstance(g, Atom):
            if rels.setdefault(g.rel, len(g.args)) != len(g.args):
                raise ValueError(f"relation {g.rel} used with two arities")
            consts.update(t.name for t in g.args if isinstance(t, Cst))
        elif isinstance(g, FoEq):
            consts.update(t.name for t in (g.left, g.right) if isinstance(t, Cst))
        elif isinstance(g, (FoAnd, FoOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, FoNot):
            walk(g.sub)
        elif isinstance(g, (FoExists, FoForall)):
            walk(g.sub)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    if base is None:
        return Signature(sorted(rels.items()), sorted(consts))
    new_rels = [(r, a) for r, a in sorted(rels.items()) if r not in base.arities]
    for r, a in rels.items():
        if r in base.arities and base.arities[r] != a:
            raise ValueError(f"relation {r} used with arity {a}, declared {base.arities[r]}")
    new_consts = sorted(consts - set(base.constants))
    return base.extend(new_rels, new_consts)


def substitute_free(f: FoFormula, mapping: Mapping[str, Term]) -> FoFormula:
    """Replace free variable occurrences.  Intended for fresh-constant targets;
    variable targets must not be captured by inner quantifiers (not checked)."""

    def term(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var) and t.name in mapping and t.name not in bound:
            return mapping[t.name]
        return t

    def walk(g: FoFormula, bound: frozenset[str]) -> FoFormula:
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(term(t, bound) for t in g.args))
        if isinstance(g, FoEq):
            return FoEq(term(g.left, bound), term(g.right, bound))
        if isinstance(g, FoAnd):
            return FoAnd(tuple(walk(p, bound) for p in g.parts))
        if isinstance(g, FoOr):
            return FoOr(tuple(walk(p, bound) for p in g.parts))
        if isinstance(g, FoNot):
            return FoNot(walk(g.sub, bound))
        if isinstance(g, FoExists):
            return FoExists(g.var, walk(g.sub, bound | {g.var}))
        if isinstance(g, FoForall):
            return FoForall(g.var, walk(g.sub, bound | {g.var}))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, frozenset())


def cq_to_fo(q: ConjunctiveQuery) -> FoFormula:
    """The existential closure of the query's atom conjunction (free vars stay free)."""
    body = fo_and(*q.atoms)
    return fo_exists(*q.exist_vars, body) if q.exist_vars else body


# ---------------------------------------------------------------------------
# Fragment membership


@dataclass(frozen=True)
class GnfCheckReport:
    verdict: str  # "gnf" | "gfo" | "both" | "neither"
    violations: tuple[tuple[str, str], ...]

    @property
    def is_gnf(self) -> bool:
        return self.verdict in ("gnf", "both")

    @property
    def is_gfo(self) -> bool:
        return self.verdict in ("gfo", "both")


def _guarded_negation_violations(f: FoFormula) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []

    def note(node: FoFormula, reason: str) -> None:
        out.append((str(node), reason))

    def covered(sub: FoFormula, guards: Sequence[FoFormula]) -> bool:
        fv = free_vars(sub)
        if len(fv) <= 1:
            return True  # implicit equality guard
        return any(fv <= _atom_vars(g) for g in guards)

    def walk(g: FoFormula) -> None:
        if _is_atomic(g):
            return
        if isinstance(g, FoAnd):
            parts = conjuncts(g)
            guards = [p for p in parts if _is_atomic(p)]
            for p in parts:
                if isinstance(p, FoNot):
                    if not covered(p.sub, guards):
                        note(p, "negated subformula has no conjoined atomic guard "
                                "covering its free variables")
                    walk(p.sub)
                elif not _is_atomic(p):
                    walk(p)
        elif isinstance(g, FoOr):
            for p in g.parts:
                walk(p)
        elif isinstance(g, FoNot):
            if not covered(g.sub, ()):
                note(g, "negation with more than one free variable needs a "
                        "conjoined atomic guard")
            walk(g.sub)
        elif isinstance(g, FoExists):
            walk(g.sub)
        elif isinstance(g, FoForall):
            note(g, "universal quantification is outside the guarded-negation grammar")
            walk(g.sub)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return out


def _guarded_quantification_violations(f: FoFormula) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []

    def note(node: FoFormula, reason: str) -> None:
        out.append((str(node), reason))

    def walk(g: FoFormula) -> None:
        if _is_atomic(g):
            return
        if isinstance(g, (FoAnd, FoOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, FoNot):
            walk(g.sub)
        elif isinstance(g, FoExists):
            body = g.sub
            while isinstance(body, FoExists):
                body = body.sub
            parts = conjuncts(body)
            ok = len(free_vars(body)) <= 1
            if not ok:
                for j, a in enumerate(parts):
                    if not _is_atomic(a):
                        continue
                    rest_free: set[str] = set()
                    for i, p in enumerate(parts):
                        if i != j:
                            rest_free |= free_vars(p)
                    if rest_free <= _atom_vars(a):
                        ok = True
                        break
            if not ok:
                note(g, "existential block has no atomic guard covering the "
                        "kernel's free variables")
            for p in parts:
                walk(p)
        elif isinstance(g, FoForall):
            body = g.sub
            while isinstance(body, FoForall):
                body = body.sub
            parts = disjuncts(body)
            guarded = len(free_vars(body)) <= 1
            if not guarded:
                for j, p in enumerate(parts):
                    if isinstance(p, FoNot) and _is_atomic(p.sub):
                        rest_free: set[str] = set()
                        for i, q in enumerate(parts):
                            if i != j:
                                rest_free |= free_vars(q)
                        if rest_free <= _atom_vars(p.sub):
                            guarded = True
                            break
            if not guarded:
                note(g, "universal block is not of the guarded shape "
                        "forall x. (guard -> kernel)")
            for p in parts:
                walk(p)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return out


def _analyze(f: FoFormula) -> GnfCheckReport:
    gn = _guarded_negation_violations(f)
    gq = _guarded_quantification_violations(f)
    if not gn and not gq:
        verdict = "both"
    elif not gn:
        verdict = "gnf"
    elif not gq:
        verdict = "gfo"
    else:
        verdict = "neither"
    tagged = tuple([(n, f"guarded-negation: {r}") for n, r in gn]
                   + [(n, f"guarded-quantification: {r}") for n, r in gq])
    return GnfCheckReport(verdict, tagged)


def check_gnf(f: FoFormula) -> GnfCheckReport:
    """Membership report for the guarded-negation grammar (is_gnf on the result)."""
    return _analyze(f)


def check_gfo(f: FoFormula) -> GnfCheckReport:
    """Membership report for the guarded-quantification grammar (is_gfo on the result)."""
    return _analyze(f)


# ---------------------------------------------------------------------------
# Evaluation


def eval_fo(f: FoFormula, inst: Instance, domain: Optional[Iterable[Value]] = None,
            binding: Optional[Mapping[str, Value]] = None) -> bool:
    """Tarskian truth over a finite structure.  Quantifiers range over `domain`
    (default: active domain plus interpreted constants)."""
    sig = formula_signature(f)
    for r, a in sig.arities.items():
        if r not in inst.sig.arities:
            raise ValueError(f"relation {r} not declared in the instance signature")
        if inst.sig.arities[r] != a:
            raise ValueError(f"relation {r} used with arity {a}, "
                             f"declared {inst.sig.arities[r]}")
    for c in sig.constants:
        if c not in inst.const_interp:
            raise ValueError(f"constant {c} not interpreted in the instance")
    base = set(active_domain(inst)) | set(inst.const_interp.values())
    if domain is None:
        dom: set[Value] = base
    else:
        dom = set(domain)
        if not base <= dom:
            raise ValueError("domain must contain the active domain and all constants")

    def term(t: Term, b: dict[str, Value]) -> Value:
        if isinstance(t, Var):
            if t.name not in b:
                raise ValueError(f"unbound variable {t.name}")
            return b[t.name]
        return inst.const_interp[t.name]

    def ev(g: FoFormula, b: dict[str, Value]) -> bool:
        if isinstance(g, Atom):
            return Fact(g.rel, tuple(term(t, b) for t in g.args)) in inst
        if isinstance(g, FoEq):
            return term(g.left, b) == term(g.right, b)
        if isinstance(g, FoAnd):
            return all(ev(p, b) for p in g.parts)
        if isinstance(g, FoOr):
            return any(ev(p, b) for p in g.parts)
        if isinstance(g, FoNot):
            return not ev(g.sub, b)
        if isinstance(g, FoExists):
            return any(ev(g.sub, {**b, g.var: v}) for v in dom)
        if isinstance(g, FoForall):
            return all(ev(g.sub, {**b, g.var: v}) for v in dom)
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, dict(binding or {}))


# ---------------------------------------------------------------------------
# Constructions


def tgd_to_gnf(t: Tgd) -> FoFormula:
    """A guarded-negation sentence equivalent to the dependency:
    not exists body-vars (body & not exists head-existentials (head))."""
    if not classify(t).frontier_guarded:
        raise ValueError("only frontier-guarded dependencies translate into the "
                         "guarded-negation grammar (the inner negation needs a guard)")
    head: FoFormula = fo_and(*t.head.atoms)
    if t.head.exist_vars:
        head = fo_exists(*t.head.exist_vars, head)
    kernel = fo_and(*t.body.atoms, FoNot(head))
    return FoNot(fo_exists(*t.body.free_vars, kernel))


def relativize(f: FoFormula, pred: str) -> FoFormula:
    """Restrict every quantifier to the unary relation `pred`."""
    if pred in formula_signature(f).arities:
        raise ValueError(f"relativization predicate {pred} already used in the formula")

    def walk(g: FoFormula) -> FoFormula:
        if _is_atomic(g):
            return g
        if isinstance(g, FoAnd):
            return FoAnd(tuple(walk(p) for p in g.parts))
        if isinstance(g, FoOr):
            return FoOr(tuple(walk(p) for p in g.parts))
        if isinstance(g, FoNot):
            return FoNot(walk(g.sub))
        if isinstance(g, FoExists):
            return FoExists(g.var, fo_and(Atom(pred, (Var(g.var),)), walk(g.sub)))
        if isinstance(g, FoForall):
            return FoForall(g.var, fo_or(FoNot(Atom(pred, (Var(g.var),))), walk(g.sub)))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def _fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def implies(a: FoFormula, b: FoFormula) -> FoFormula:
    return fo_or(FoNot(a), b)


def build_extension_preservation_sentence(f: FoFormula) -> FoFormula:
    """A sentence valid exactly when `f` is preserved under extensions:
    (P is nonempty, P holds of every constant, and the P-relativization of f
    holds at fresh constants standing for f's free variables) implies f at
    those constants.  The nonemptiness conjunct keeps the P-substructure a
    legitimate structure even for constant-free sentences.  For
    guarded-negation inputs the output stays in the grammar."""
    sig = formula_signature(f)
    used_consts = set(sig.constants)
    frees = sorted(free_vars(f))
    sub: dict[str, Term] = {}
    fresh: list[str] = []
    for i, x in enumerate(frees):
        d = _fresh_name(f"d{i}", used_consts)
        used_consts.add(d)
        fresh.append(d)
        sub[x] = Cst(d)
    grounded = substitute_free(f, sub) if sub else f
    pred = _fresh_name("P", set(sig.arities))
    all_consts = sorted(set(sig.constants) | set(fresh))
    parts: list[FoFormula] = [FoExists("w", Atom(pred, (Var("w"),)))]
    parts += [Atom(pred, (Cst(c),)) for c in all_consts]
    parts.append(relativize(grounded, pred))
    return implies(fo_and(*parts), grounded)


def build_domain_independence_sentence(f: FoFormula) -> FoFormula:
    """A sentence valid exactly when `f`'s truth does not depend on which
    (nonempty) superset of the active domain quantifiers range over: for two
    adequate domain predicates, the relativizations agree."""
    sig = formula_signature(f)
    used = set(sig.arities)
    d1 = _fresh_name("D1", used)
    used.add(d1)
    d2 = _fresh_name("D2", used)

    def adequacy(pred: str) -> list[FoFormula]:
        parts: list[FoFormula] = [FoExists("w", Atom(pred, (Var("w"),)))]
        for r in sig.relations():
            n = sig.arities[r]
            xs = [f"x{i + 1}" for i in range(n)]
            closure = implies(Atom(r, tuple(Var(x) for x in xs)),
                              fo_and(*[Atom(pred, (Var(x),)) for x in xs]))
            parts.append(fo_forall(*xs, closure))
        for c in sig.constants:
            parts.append(Atom(pred, (Cst(c),)))
        return parts

    f1 = relativize(f, d1)
    f2 = relativize(f, d2)
    agree = fo_and(implies(f1, f2), implies(f2, f1))
    return implies(fo_and(*adequacy(d1), *adequacy(d2)), agree)


def strip_unguarded_negatives(f: FoFormula) -> FoFormula:
    """In a disjunction of existentially quantified conjunctions of literals and
    (in)equalities, delete every negative conjunct whose variables are covered by
    no positive atomic conjunct (implicit equality guards keep any negative
    conjunct with at most one variable).  The result is implied by the input."""
    new_disjuncts: list[FoFormula] = []
    for d in disjuncts(f):
        prefix: list[str] = []
        body = d
        while isinstance(body, FoExists):
            prefix.append(body.var)
            body = body.sub
        parts = conjuncts(body)
        for p in parts:
            if _is_atomic(p) or (isinstance(p, FoNot) and _is_atomic(p.sub)):
                continue
            raise ValueError("input is not a disjunction of existentially "
                             f"quantified literal conjunctions: offending conjunct {p}")
        guards = [p for p in parts if _is_atomic(p)]
        kept: list[FoFormula] = []
        for p in parts:
            if isinstance(p, FoNot):
                fv = free_vars(p.sub)
                if len(fv) <= 1 or any(fv <= _atom_vars(g) for g in guards):
                    kept.append(p)
            else:
                kept.append(p)
        if not kept:
            # everything was stripped: the disjunct weakens to truth, written as
            # a tautological equality on some available term
            names = sorted(set().union(*(free_vars(p) for p in parts)))
            if names:
                t: Term = Var(names[0])
            else:
                consts = sorted({t.name for p in parts for t in _atomic_terms(p)
                                 if isinstance(t, Cst)})
                t = Cst(consts[0])
            kept = [FoEq(t, t)]
        rebuilt: FoFormula = fo_and(*kept)
        if prefix:
            rebuilt = fo_exists(*prefix, rebuilt)
        new_disjuncts.append(rebuilt)
    return fo_or(*new_disjuncts)


def _atomic_terms(p: FoFormula) -> tuple[Term, ...]:
    if isinstance(p, FoNot):
        p = p.sub
    if isinstance(p, Atom):
        return p.args
    if isinstance(p, FoEq):
        return (p.left, p.right)
    raise TypeError(f"not a literal: {p!r}")


# ---------------------------------------------------------------------------
# Bounded countermodel search


@dataclass(frozen=True)
class Countermodel:
    instance: Instance
    domain: frozenset[Value]


def _search_at_size(f: FoFormula, sig: Signature, k: int) -> Optional[Countermodel]:
    elements = [elem(f"e{i + 1}") for i in range(k)]
    all_facts: list[Fact] = []
    for r in sig.relations():
        for args in itertools.product(elements, repeat=sig.arities[r]):
            all_facts.append(Fact(r, args))
    fact_index = {fa: i for i, fa in enumerate(all_facts)}
    n_facts = len(all_facts)
    consts = sorted(sig.constants)

    perm_tables: list[tuple[tuple[int, ...], list[int]]] = []
    for p in itertools.permutations(range(k)):
        if p == tuple(range(k)):
            continue
        emap = {elements[i]: elements[p[i]] for i in range(k)}
        table = [fact_index[Fact(fa.rel, tuple(emap[v] for v in fa.args))]
                 for fa in all_facts]
        perm_tables.append((p, table))

    def canonical(cvec: tuple[int, ...], mask: int) -> bool:
        bits = [i for i in range(n_facts) if mask >> i & 1]
        for p, table in perm_tables:
            mc = tuple(p[c] for c in cvec)
            if mc > cvec:
                continue
            mm = 0
            for i in bits:
                mm |= 1 << table[i]
            if (mc, mm) < (cvec, mask):
                return False
        return True

    dom = frozenset(elements)
    for cvec in itertools.product(range(k), repeat=len(consts)):
        const_interp = {c: elements[cvec[j]] for j, c in enumerate(consts)}
        for mask in range(1 << n_facts):
            if not canonical(cvec, mask):
                continue
            facts = [all_facts[i] for i in range(n_facts) if mask >> i & 1]
            inst = Instance(sig, facts, const_interp)
            if not eval_fo(f, inst, domain=dom):
                return Countermodel(inst, dom)
    return None


def search_countermodel(f: FoFormula, max_size: int) -> Optional[Countermodel]:
    """Smallest-domain falsifying finite structure within the size bound, or None.
    Enumerates instances up to isomorphism (domain permutations respecting the
    constant assignment); every returned countermodel is re-verified."""
    if free_vars(f):
        raise ValueError("countermodel search expects a sentence")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    sig = formula_signature(f)
    found: Optional[Countermodel] = None
    for k in range(1, max_size + 1):
        found = _search_at_size(f, sig, k)
        if found is not None:
            break
    if found is None:
        return None
    if eval_fo(f, found.instance, domain=set(found.domain)):
        raise AssertionError("countermodel failed re-verification")
    return found
