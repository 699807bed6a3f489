"""First-order formulas with equality: AST, guarded-fragment membership checks,
finite-structure evaluation, preservation/domain-independence sentence builders,
and bounded countermodel search.

The guard test (Bárány, ten Cate and Segoufin, "Guarded Negation", JACM
2015), implemented once by `_guarded`: a set of free variables is guarded by
some atomic formulas (relational atoms or equalities) when it has at most one
element (the trivial equality guard x=x, left implicit) or the variables of
one of them cover it.  Constants never need guarding, only free variables do.
The checks apply it to
  * a negation, guarded by the atomic formulas conjoined with it;
  * an existential block, guarded by the atomic conjuncts of its kernel;
  * a universal block, guarded by the atoms its kernel's disjuncts negate.

Evaluation compiles a formula once, by `_compile`, into nested closures that
look its terms up in a list of slots and test each atom's ``(rel, args)`` key
for membership in a set of keys: `eval_fo` builds that set from the
instance's facts, and countermodel search one per candidate structure, over
the elements 0..k-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Container, Iterable, Mapping, Optional, Sequence, Union

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


def _quantify(node: type, args: tuple) -> FoFormula:
    *names, body = args
    for v in reversed(names):
        body = node(v, body)
    return body


def fo_exists(*args) -> FoFormula:
    """`fo_exists(x, y, body)` is exists x. exists y. body; with no variables
    it is the body itself."""
    return _quantify(FoExists, args)


def fo_forall(*args) -> FoFormula:
    """`fo_forall(x, y, body)` is forall x. forall y. body; with no variables
    it is the body itself."""
    return _quantify(FoForall, args)


def _is_atomic(f: FoFormula) -> bool:
    return isinstance(f, (Atom, FoEq))


def _terms(a: FoFormula) -> tuple[Term, ...]:
    """The terms of an atomic formula (relational atom or equality)."""
    if isinstance(a, Atom):
        return a.args
    if isinstance(a, FoEq):
        return (a.left, a.right)
    raise TypeError(f"not atomic: {a!r}")


def _parts(g: FoFormula) -> tuple[FoFormula, ...]:
    """The immediate subformulas of a node; an atomic formula has none."""
    if isinstance(g, (FoAnd, FoOr)):
        return g.parts
    if isinstance(g, (FoNot, FoExists, FoForall)):
        return (g.sub,)
    if _is_atomic(g):
        return ()
    raise TypeError(f"not a formula: {g!r}")


def _with_parts(g: FoFormula, parts: list[FoFormula]) -> FoFormula:
    """The node `g` rebuilt over new immediate subformulas (in `_parts` order)."""
    if isinstance(g, (FoAnd, FoOr)):
        return type(g)(tuple(parts))
    if isinstance(g, FoNot):
        return FoNot(parts[0])
    if isinstance(g, (FoExists, FoForall)):
        return type(g)(g.var, parts[0])
    return g


def free_vars(f: FoFormula, bound: frozenset[str] = frozenset()) -> set[str]:
    if _is_atomic(f):
        return {t.name for t in _terms(f) if isinstance(t, Var)} - bound
    if isinstance(f, (FoExists, FoForall)):
        bound = bound | {f.var}
    out: set[str] = set()
    for p in _parts(f):
        out |= free_vars(p, bound)
    return out


def _flatten(f: FoFormula, node: type) -> list[FoFormula]:
    """The parts of ``f`` under nested ``node`` formulas (FoAnd or FoOr), left to right."""
    if isinstance(f, node):
        return [q for p in f.parts for q in _flatten(p, node)]
    return [f]


def conjuncts(f: FoFormula) -> list[FoFormula]:
    return _flatten(f, FoAnd)


def disjuncts(f: FoFormula) -> list[FoFormula]:
    return _flatten(f, FoOr)


def formula_signature(f: FoFormula) -> Signature:
    """Infer relation arities and constant names."""
    rels: dict[str, int] = {}
    consts: set[str] = set()

    def walk(g: FoFormula) -> None:
        if isinstance(g, Atom):
            if rels.setdefault(g.rel, len(g.args)) != len(g.args):
                raise ValueError(f"relation {g.rel} used with two arities")
            terms = g.args
        elif isinstance(g, FoEq):
            terms = (g.left, g.right)
        else:
            for p in _parts(g):
                walk(p)
            return
        # a loop, not a generator: every eval_fo call runs this before it compiles
        for t in terms:
            if isinstance(t, Cst):
                consts.add(t.name)

    walk(f)
    return Signature(sorted(rels.items()), sorted(consts))


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
        if isinstance(g, (FoExists, FoForall)):
            bound = bound | {g.var}
        return _with_parts(g, [walk(p, bound) for p in _parts(g)])

    return walk(f, frozenset())


def cq_to_fo(q: ConjunctiveQuery) -> FoFormula:
    """The existential closure of the query's atom conjunction (free vars stay free)."""
    return fo_exists(*q.exist_vars, fo_and(*q.atoms))


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


def _guarded(fv: set[str], guards: Iterable[FoFormula]) -> bool:
    """The guard test: at most one free variable, or an atomic guard covering them."""
    return len(fv) <= 1 or any(fv <= free_vars(g) for g in guards)


def _guarded_negation_violations(f: FoFormula) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []

    def walk(g: FoFormula) -> None:
        if isinstance(g, FoAnd):
            parts = conjuncts(g)
            guards = [p for p in parts if _is_atomic(p)]
            for p in parts:
                if isinstance(p, FoNot) and not _guarded(free_vars(p.sub), guards):
                    out.append((str(p), "negated subformula has no conjoined atomic "
                                        "guard covering its free variables"))
                walk(p.sub if isinstance(p, FoNot) else p)
            return
        if isinstance(g, FoNot) and not _guarded(free_vars(g.sub), ()):
            out.append((str(g), "negation with more than one free variable needs a "
                                "conjoined atomic guard"))
        elif isinstance(g, FoForall):
            out.append((str(g), "universal quantification is outside the "
                                "guarded-negation grammar"))
        for p in _parts(g):
            walk(p)

    walk(f)
    return out


def _guarded_quantification_violations(f: FoFormula) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []

    def walk(g: FoFormula) -> None:
        if not isinstance(g, (FoExists, FoForall)):
            for p in _parts(g):
                walk(p)
            return
        kernel = g.sub
        while isinstance(kernel, type(g)):
            kernel = kernel.sub
        if isinstance(g, FoExists):
            parts = conjuncts(kernel)
            guards = [p for p in parts if _is_atomic(p)]
            reason = ("existential block has no atomic guard covering the "
                      "kernel's free variables")
        else:
            parts = disjuncts(kernel)
            guards = [p.sub for p in parts if isinstance(p, FoNot) and _is_atomic(p.sub)]
            reason = ("universal block is not of the guarded shape "
                      "forall x. (guard -> kernel)")
        if not _guarded(free_vars(kernel), guards):
            out.append((str(g), reason))
        for p in parts:
            walk(p)

    walk(f)
    return out


def check_gnf(f: FoFormula) -> GnfCheckReport:
    """Membership report for both grammars, guarded negation and guarded
    quantification: ``is_gnf`` and ``is_gfo`` on the result."""
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


check_gfo = check_gnf


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
    binding = binding or {}
    unbound = free_vars(f) - set(binding)
    if unbound:
        raise ValueError(f"unbound variables: {', '.join(sorted(unbound))}")
    base = set(active_domain(inst)) | set(inst.const_interp.values())
    if domain is None:
        dom: set[Value] = base
    else:
        dom = set(domain)
        if not base <= dom:
            raise ValueError("domain must contain the active domain and all constants")
    holds, slots = _compile(f)
    b = [inst.const_interp[t.name] if isinstance(t, Cst) else binding.get(t.name)
         for t in slots]
    return holds({(fa.rel, fa.args) for fa in inst.facts}, tuple(dom), b)


_Evaluator = Callable[[Container[tuple], Sequence[Any], list], bool]


def _compile(f: FoFormula) -> tuple[_Evaluator, dict[Term, int]]:
    """`f` built once into nested closures, and the binding slot of each of
    its terms, in order.  ``holds(keys, dom, b)`` is the truth of `f` over
    the structure whose facts have the ``(rel, args)`` keys in `keys`, with
    quantifiers ranging over `dom` and ``b[slots[t]]`` the value of each free
    variable and constant `t`.  A quantifier copies `b` once, then rebinds
    its variable's slot in place for each domain value."""
    slots: dict[Term, int] = {}

    def at(t: Term) -> int:
        return slots.setdefault(t, len(slots))

    def build(g: FoFormula) -> _Evaluator:
        if isinstance(g, Atom):
            rel, pos = g.rel, [at(t) for t in g.args]
            if len(pos) == 1:
                i = pos[0]
                return lambda keys, dom, b: (rel, (b[i],)) in keys
            get = itemgetter(*pos) if pos else lambda b: ()
            return lambda keys, dom, b: (rel, get(b)) in keys
        if isinstance(g, FoEq):
            i, j = at(g.left), at(g.right)
            return lambda keys, dom, b: b[i] == b[j]
        if isinstance(g, FoNot):
            sub = build(g.sub)
            return lambda keys, dom, b: not sub(keys, dom, b)
        if isinstance(g, (FoAnd, FoOr)):
            parts, stop = [build(p) for p in g.parts], isinstance(g, FoOr)

            def junction(keys, dom, b) -> bool:
                for p in parts:
                    if p(keys, dom, b) is stop:
                        return stop
                return not stop
            return junction
        if isinstance(g, (FoExists, FoForall)):
            i, sub, stop = at(Var(g.var)), build(g.sub), isinstance(g, FoExists)

            def quantifier(keys, dom, b) -> bool:
                b = b.copy()
                for v in dom:
                    b[i] = v
                    if sub(keys, dom, b) is stop:
                        return stop
                return not stop
            return quantifier
        raise TypeError(f"not a formula: {g!r}")

    return build(f), slots


# ---------------------------------------------------------------------------
# Constructions


def tgd_to_gnf(t: Tgd) -> FoFormula:
    """A guarded-negation sentence equivalent to the dependency:
    not exists body-vars (body & not exists head-existentials (head))."""
    if not classify(t).frontier_guarded:
        raise ValueError("only frontier-guarded dependencies translate into the "
                         "guarded-negation grammar (the inner negation needs a guard)")
    head = fo_exists(*t.head.exist_vars, fo_and(*t.head.atoms))
    return FoNot(fo_exists(*t.body.free_vars, fo_and(*t.body.atoms, FoNot(head))))


def relativize(f: FoFormula, pred: str) -> FoFormula:
    """Restrict every quantifier to the unary relation `pred`, which may name
    no relation or constant of `f`."""
    sig = formula_signature(f)
    if pred in sig.arities or pred in sig.constants:
        raise ValueError(f"relativization predicate {pred} already used in the formula")

    def walk(g: FoFormula) -> FoFormula:
        parts = [walk(p) for p in _parts(g)]
        if isinstance(g, FoExists):
            return FoExists(g.var, fo_and(Atom(pred, (Var(g.var),)), parts[0]))
        if isinstance(g, FoForall):
            return FoForall(g.var, fo_or(FoNot(Atom(pred, (Var(g.var),))), parts[0]))
        return _with_parts(g, parts)

    return walk(f)


def _fresh_name(base: str, used: set[str]) -> str:
    """`base`, or `base` with the least numeric suffix not in `used`; the
    result is added to `used`.  Callers put relation and constant names alike
    into `used`, since no name may be both."""
    name, i = base, 0
    while name in used:
        i += 1
        name = f"{base}{i}"
    used.add(name)
    return name


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
    used = set(sig.arities) | set(sig.constants)
    fresh = {x: _fresh_name(f"d{i}", used) for i, x in enumerate(sorted(free_vars(f)))}
    grounded = substitute_free(f, {x: Cst(d) for x, d in fresh.items()})
    pred = _fresh_name("P", used)
    all_consts = sorted(set(sig.constants) | set(fresh.values()))
    w = _fresh_name("w", set(all_consts))
    parts: list[FoFormula] = [FoExists(w, Atom(pred, (Var(w),)))]
    parts += [Atom(pred, (Cst(c),)) for c in all_consts]
    parts.append(relativize(grounded, pred))
    return implies(fo_and(*parts), grounded)


def build_domain_independence_sentence(f: FoFormula) -> FoFormula:
    """A sentence valid exactly when `f`'s truth does not depend on which
    (nonempty) superset of the active domain quantifiers range over: for two
    adequate domain predicates, the relativizations agree."""
    sig = formula_signature(f)
    used = set(sig.arities) | set(sig.constants)
    d1 = _fresh_name("D1", used)
    d2 = _fresh_name("D2", used)
    # bound variables, named clear of the constants so that the printed
    # sentence parses back
    bound = set(sig.constants)
    w = _fresh_name("w", bound)
    all_xs = [_fresh_name(f"x{i + 1}", bound)
              for i in range(max(sig.arities.values(), default=0))]

    def adequacy(pred: str) -> list[FoFormula]:
        parts: list[FoFormula] = [FoExists(w, Atom(pred, (Var(w),)))]
        for r in sig.relations():
            xs = all_xs[:sig.arities[r]]
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
    (in)equalities, delete every negative conjunct that fails the guard test
    against the positive atomic conjuncts.  The result is implied by the input."""
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
        kept = [p for p in parts
                if not isinstance(p, FoNot) or _guarded(free_vars(p.sub), guards)]
        if not kept:
            # every conjunct was a stripped negative, so the body has at least two
            # free variables: the disjunct weakens to truth, written x = x
            x = Var(min(free_vars(body)))
            kept = [FoEq(x, x)]
        new_disjuncts.append(fo_exists(*prefix, fo_and(*kept)))
    return fo_or(*new_disjuncts)


# ---------------------------------------------------------------------------
# Bounded countermodel search


@dataclass(frozen=True)
class Countermodel:
    instance: Instance
    domain: frozenset[Value]


def _search_at_size(holds: _Evaluator, slots: dict[Term, int], sig: Signature,
                    k: int) -> Optional[Countermodel]:
    """A structure over `k` elements that falsifies a sentence, or None.
    `holds` and `slots` are the sentence compiled by ``_compile``; `sig` is
    its own signature, so every candidate interprets it.  A candidate is the
    set of fact keys over the elements 0..k-1 that a bit mask picks; only the
    countermodel returned is built as an instance, over e1..ek."""
    all_keys = [(r, args) for r in sig.relations()
                for args in itertools.product(range(k), repeat=sig.arities[r])]
    key_index = {key: i for i, key in enumerate(all_keys)}
    n_facts = len(all_keys)
    consts = sorted(sig.constants)

    perm_tables: list[tuple[tuple[int, ...], list[int]]] = []
    for p in itertools.permutations(range(k)):
        if p == tuple(range(k)):
            continue
        table = [key_index[(r, tuple(p[a] for a in args))] for r, args in all_keys]
        perm_tables.append((p, table))

    def canonical(cvec: tuple[int, ...], mask: int, bits: list[int]) -> bool:
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

    dom = tuple(range(k))
    for cvec in itertools.product(range(k), repeat=len(consts)):
        interp = dict(zip(consts, cvec))
        b = [interp[t.name] if isinstance(t, Cst) else None for t in slots]
        for mask in range(1 << n_facts):
            bits = [i for i in range(n_facts) if mask >> i & 1]
            if not canonical(cvec, mask, bits):
                continue
            picked = [all_keys[i] for i in bits]
            if not holds(frozenset(picked), dom, b):
                elements = [elem(f"e{i + 1}") for i in range(k)]
                facts = [Fact(r, tuple(elements[a] for a in args)) for r, args in picked]
                const_interp = {c: elements[v] for c, v in interp.items()}
                return Countermodel(Instance(sig, facts, const_interp), frozenset(elements))
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
    holds, slots = _compile(f)
    found: Optional[Countermodel] = None
    for k in range(1, max_size + 1):
        found = _search_at_size(holds, slots, sig, k)
        if found is not None:
            break
    if found is None:
        return None
    if eval_fo(f, found.instance, domain=set(found.domain)):
        raise AssertionError("countermodel failed re-verification")
    return found
