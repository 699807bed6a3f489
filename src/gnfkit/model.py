"""Relational instances and the structural operations the rest of the toolkit builds on.

Instances are finite sets of facts over a fixed signature, with named constants that may
be interpreted by any value.  Semantics are active-domain throughout: the domain of an
instance is the set of values occurring in its facts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

ELEMENT = "element"
CONSTANT = "constant"
NULL = "null"


class BudgetExceeded(Exception):
    """Raised when a search exceeds its node budget."""


@dataclass(frozen=True)
class Value:
    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in (ELEMENT, CONSTANT, NULL):
            raise ValueError(f"bad value kind: {self.kind!r}")

    def __str__(self):
        return self.name

    def __repr__(self):
        return self.name


def elem(name: str) -> Value:
    return Value(ELEMENT, name)


def const(name: str) -> Value:
    return Value(CONSTANT, name)


def null(name: str) -> Value:
    return Value(NULL, name)


class Signature:
    """Relation names with arities, plus declared constant names."""

    def __init__(self, relations: Iterable[tuple[str, int]], constants: Iterable[str] = ()):
        self.arities: dict[str, int] = {}
        for name, arity in relations:
            if arity < 1:
                raise ValueError(f"relation {name}: arity must be >= 1, got {arity}")
            if name in self.arities:
                raise ValueError(f"duplicate relation {name}")
            self.arities[name] = arity
        self.constants: tuple[str, ...] = tuple(dict.fromkeys(constants))
        clash = set(self.arities) & set(self.constants)
        if clash:
            raise ValueError(f"names used as both relation and constant: {sorted(clash)}")

    def relations(self) -> list[str]:
        return sorted(self.arities)

    def extend(self, relations: Iterable[tuple[str, int]] = (), constants: Iterable[str] = ()) -> "Signature":
        rels = list(self.arities.items())
        for name, arity in relations:
            if name not in self.arities:
                rels.append((name, arity))
            elif self.arities[name] != arity:
                raise ValueError(f"relation {name} redeclared with different arity")
        return Signature(rels, list(self.constants) + list(constants))

    def __eq__(self, other):
        return (isinstance(other, Signature)
                and self.arities == other.arities
                and set(self.constants) == set(other.constants))

    def __repr__(self):
        rels = ", ".join(f"{r}/{a}" for r, a in sorted(self.arities.items()))
        return f"Signature({rels}; consts={list(self.constants)})"


@dataclass(frozen=True)
class Fact:
    rel: str
    args: tuple[Value, ...]

    def __str__(self):
        return f"{self.rel}({','.join(str(a) for a in self.args)})"

    def __repr__(self):
        return str(self)


def fact_key(f: Fact) -> tuple:
    return (f.rel, tuple(a.name for a in f.args))


class Instance:
    """Immutable finite structure: facts plus an interpretation for each declared constant.

    By default a constant name is interpreted as the constant value of the same name;
    constructions like direct products reinterpret constants at other values.
    """

    def __init__(self, sig: Signature, facts: Iterable[Fact],
                 const_interp: Optional[Mapping[str, Value]] = None):
        self.sig = sig
        self.facts: frozenset[Fact] = frozenset(facts)
        interp = {c: const(c) for c in sig.constants}
        if const_interp:
            for name, v in const_interp.items():
                if name not in interp:
                    raise ValueError(f"undeclared constant {name}")
                interp[name] = v
        self.const_interp: dict[str, Value] = interp
        for f in self.facts:
            if f.rel not in sig.arities:
                raise ValueError(f"undeclared relation in fact {f}")
            if len(f.args) != sig.arities[f.rel]:
                raise ValueError(f"arity mismatch in fact {f}")
        self._adom = frozenset(v for f in self.facts for v in f.args)
        self._by_rel: dict[str, set[Fact]] = {}
        for f in self.facts:
            self._by_rel.setdefault(f.rel, set()).add(f)

    def rel_facts(self, rel: str) -> set[Fact]:
        return self._by_rel.get(rel, set())

    def const_values(self) -> set[Value]:
        return set(self.const_interp.values())

    def __contains__(self, f: Fact) -> bool:
        return f in self.facts

    def __eq__(self, other):
        return (isinstance(other, Instance) and self.sig == other.sig
                and self.facts == other.facts and self.const_interp == other.const_interp)

    def __len__(self):
        return len(self.facts)

    def __repr__(self):
        shown = ", ".join(sorted(str(f) for f in self.facts))
        return f"Instance({{{shown}}})"


def align_instance(inst: Instance, sig: Signature) -> Instance:
    """`inst` over its signature extended by the relations and constants of
    `sig` that it lacks; `inst` itself when it lacks none."""
    missing_rels = [(r, a) for r, a in sig.arities.items() if r not in inst.sig.arities]
    missing_consts = [c for c in sig.constants if c not in inst.const_interp]
    if not missing_rels and not missing_consts:
        return inst
    return Instance(inst.sig.extend(missing_rels, missing_consts),
                    inst.facts, inst.const_interp)


def active_domain(inst: Instance) -> frozenset[Value]:
    return inst._adom


def serialize_facts(inst: Instance) -> str:
    return " ".join(sorted(f"{f}." for f in inst.facts))


def is_guarded_set(inst: Instance, values: Iterable[Value]) -> bool:
    """True iff some single fact contains every non-constant value of the set.

    The empty set is guarded, even in the empty instance.
    """
    need = frozenset(values) - inst.const_values()
    if not need:
        return True
    v = next(iter(need))
    for f in inst.facts:
        if v in f.args and need <= set(f.args):
            return True
    return False


def guarded_sets(inst: Instance) -> set[frozenset[Value]]:
    """All guarded subsets of the active domain, constants discounted."""
    consts = inst.const_values()
    out: set[frozenset[Value]] = {frozenset()}
    for f in inst.facts:
        base = tuple(set(f.args) - consts)
        for r in range(1, len(base) + 1):
            for combo in itertools.combinations(base, r):
                out.add(frozenset(combo))
    return out


def weak_substructure(a: Instance, b: Instance) -> bool:
    """Relation-wise fact inclusion with identical constant interpretations."""
    if a.sig != b.sig:
        raise ValueError("weak_substructure: signatures differ")
    return a.facts <= b.facts and a.const_interp == b.const_interp


def induced_substructure(inst: Instance, values: Iterable[Value]) -> Instance:
    """Facts using only the given values (constant-interpreted values always kept)."""
    keep = set(values) | inst.const_values()
    return Instance(inst.sig, (f for f in inst.facts if set(f.args) <= keep), inst.const_interp)


def reduct(inst: Instance, rels: Iterable[str]) -> Instance:
    keep = set(rels)
    sub = Signature([(r, inst.sig.arities[r]) for r in inst.sig.relations() if r in keep],
                    inst.sig.constants)
    return Instance(sub, (f for f in inst.facts if f.rel in keep), inst.const_interp)


@dataclass(frozen=True)
class Homomorphism:
    mapping: tuple[tuple[Value, Value], ...]

    @staticmethod
    def of(mapping: Mapping[Value, Value]) -> "Homomorphism":
        return Homomorphism(tuple(sorted(mapping.items(), key=lambda kv: kv[0].name)))

    def as_dict(self) -> dict[Value, Value]:
        return dict(self.mapping)

    def apply(self, v: Value) -> Value:
        for s, t in self.mapping:
            if s == v:
                return t
        raise KeyError(f"{v} not in homomorphism domain")


def verify_homomorphism(h: Homomorphism, src: Instance, dst: Instance) -> bool:
    m = h.as_dict()
    if not active_domain(src) <= set(m):
        return False
    for name, v in src.const_interp.items():
        if v in active_domain(src):
            if name not in dst.const_interp or m[v] != dst.const_interp[name]:
                return False
    for f in src.facts:
        if Fact(f.rel, tuple(m[a] for a in f.args)) not in dst:
            return False
    return True


def _hom_search(constraints: Iterable[tuple[tuple[Value, ...], Iterable[tuple[Value, ...]]]],
                seed: Mapping[Value, Value],
                budget: Optional[int] = None) -> Iterator[dict[Value, Value]]:
    """Every extension of `seed` sending each constraint's argument tuple to one
    of that constraint's allowed image tuples, restricted to the argument values.

    Constraint-first backtracking: each step takes the first remaining constraint
    with the fewest images consistent with the assignment so far and tries those
    images in name order.  An image is consistent when it agrees with the values
    already assigned and with itself, so E(x,x) never maps to (a,b).  One budget
    node is one tentative image tuple for one constraint.  Anything hashable
    with a ``name`` serves as a value: ``query.atom_homomorphisms`` searches
    over terms.
    """
    # agreeing with itself does not depend on the assignment, so it is checked once
    cons = [(args, sorted((t for t in images if len(set(zip(args, t))) == len(set(args))),
                          key=lambda t: tuple(v.name for v in t)))
            for args, images in constraints]
    dom = {v for args, _ in cons for v in args}
    assign = dict(seed)
    nodes = 0

    def extend(remaining: list) -> Iterator[dict[Value, Value]]:
        nonlocal nodes
        if not remaining:
            yield {v: assign[v] for v in dom}
            return
        best, options = 0, None
        for i, (args, images) in enumerate(remaining):
            live = [t for t in images if all(assign.get(v, w) == w for v, w in zip(args, t))]
            if options is None or len(live) < len(options):
                best, options = i, live
                if not live:
                    break
        args = remaining[best][0]
        rest = remaining[:best] + remaining[best + 1:]
        for t in options:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"homomorphism search exceeded {budget} nodes")
            newly = {v: w for v, w in zip(args, t) if v not in assign}
            assign.update(newly)
            yield from extend(rest)
            for v in newly:
                del assign[v]

    yield from extend(cons)


def all_homomorphisms(src: Instance, dst: Instance,
                      seed: Optional[Mapping[Value, Value]] = None,
                      budget: Optional[int] = None) -> Iterator[Homomorphism]:
    """Every homomorphism src -> dst extending `seed`, each once.

    Constant interpretations are pinned: if c is interpreted at an active value of src,
    that value must map to dst's interpretation of c.  A seed contradicting this raises
    ValueError.  A budget node is one tentative image tuple for one source fact; the
    search raises BudgetExceeded when it needs more nodes than `budget`.
    """
    pinned: dict[Value, Value] = {}
    for name, v in src.const_interp.items():
        if v in active_domain(src):
            w = dst.const_interp.get(name)
            if w is None or pinned.setdefault(v, w) != w:
                return
    for s, t in (seed or {}).items():
        if pinned.get(s, t) != t:
            raise ValueError(f"seed maps {s} to {t}, conflicting with constant pinning")
        pinned[s] = t
    constraints = [(f.args, [g.args for g in dst.rel_facts(f.rel)])
                   for f in sorted(src.facts, key=fact_key)]
    for m in _hom_search(constraints, pinned, budget):
        yield Homomorphism.of(m)


def find_homomorphism(src: Instance, dst: Instance,
                      seed: Optional[Mapping[Value, Value]] = None,
                      budget: Optional[int] = None) -> Optional[Homomorphism]:
    """First homomorphism src -> dst extending `seed`, or None.

    Constants are pinned as in `all_homomorphisms`, and a seed contradicting the
    pinning raises ValueError.  A budget node is one tentative image tuple for one
    source fact, so `budget=0` raises BudgetExceeded as soon as the search tries an
    image.
    """
    return next(all_homomorphisms(src, dst, seed, budget), None)


def pair_value(v1: Value, v2: Value) -> Value:
    return Value(ELEMENT, f"p({v1.name},{v2.name})")


def direct_product_with_projections(i1: Instance, i2: Instance):
    """Direct product plus the two projection homomorphisms."""
    if i1.sig != i2.sig:
        raise ValueError("direct_product: signatures differ")
    facts = []
    proj1: dict[Value, Value] = {}
    proj2: dict[Value, Value] = {}
    for rel in i1.sig.relations():
        for f1 in i1.rel_facts(rel):
            for f2 in i2.rel_facts(rel):
                args = tuple(pair_value(a, b) for a, b in zip(f1.args, f2.args))
                facts.append(Fact(rel, args))
                for p, a, b in zip(args, f1.args, f2.args):
                    proj1[p] = a
                    proj2[p] = b
    interp = {}
    for c in i1.sig.constants:
        v = pair_value(i1.const_interp[c], i2.const_interp[c])
        interp[c] = v
        proj1[v] = i1.const_interp[c]
        proj2[v] = i2.const_interp[c]
    prod = Instance(i1.sig, facts, interp)
    return prod, Homomorphism.of(proj1), Homomorphism.of(proj2)


def direct_product(i1: Instance, i2: Instance) -> Instance:
    """Pairwise product: a fact holds iff both projections are facts; constants pair up."""
    prod, _, _ = direct_product_with_projections(i1, i2)
    return prod


def minus(b: Instance, a: Instance) -> Instance:
    """Facts of b that use at least one value outside the active domain of a."""
    if not weak_substructure(a, b):
        raise ValueError("minus: first argument must extend the second")
    adom_a = active_domain(a)
    return Instance(b.sig, (f for f in b.facts if not set(f.args) <= adom_a), b.const_interp)


def squid_check(a: Instance, b: Instance, tentacles: Iterable[frozenset[Fact]]) -> bool:
    """Verify the two conditions making b a squid-like extension of a with these tentacles.

    (i)  every set of a-elements guarded in b is already guarded in a;
    (ii) the tentacles partition the facts of b-minus-a, distinct tentacles share values
         only inside adom(a) plus constants, and each tentacle's overlap with adom(a) is
         guarded in a (constants discounted).
    """
    if not weak_substructure(a, b):
        raise ValueError("squid_check: b must extend a")
    tent = [frozenset(t) for t in tentacles]
    rest = minus(b, a).facts
    seen: set[Fact] = set()
    for t in tent:
        if t & seen:
            return False
        seen |= t
    if seen != rest:
        return False
    adom_a = active_domain(a)
    consts = b.const_values()
    for f in b.facts:
        if not is_guarded_set(a, set(f.args) & adom_a):
            return False
    adoms = [frozenset(v for f in t for v in f.args) for t in tent]
    allowed = adom_a | consts
    for i, d1 in enumerate(adoms):
        for d2 in adoms[i + 1:]:
            if (d1 & d2) - allowed:
                return False
    for d in adoms:
        if not is_guarded_set(a, (d & adom_a) - consts):
            return False
    return True


def squid_extension(a: Instance, b: Instance):
    """Glue one fresh copy of b onto a per guarded set of a, fixing that set and constants.

    Returns (b_prime, h, tentacles): h projects b_prime onto b (fresh copies fall back to
    their originals), and the tentacles partition b_prime-minus-a by originating copy.
    The result passes squid_check by construction.
    """
    if not weak_substructure(a, b):
        raise ValueError("squid_extension: b must extend a")
    consts = b.const_values()
    gsets = sorted(guarded_sets(a), key=lambda s: sorted(v.name for v in s))
    facts: set[Fact] = set()
    h: dict[Value, Value] = {}
    tentacle_of: dict[Fact, int] = {}
    adom_a = active_domain(a)
    for idx, x in enumerate(gsets):
        fixed = x | consts
        ren: dict[Value, Value] = {}
        for v in sorted(active_domain(b), key=lambda v: v.name):
            if v in fixed:
                ren[v] = v
            else:
                ren[v] = Value(ELEMENT, f"{v.name}#{idx}")
            h[ren[v]] = v
        for f in b.facts:
            g = Fact(f.rel, tuple(ren[arg] for arg in f.args))
            facts.add(g)
            if not set(g.args) <= adom_a:
                tentacle_of.setdefault(g, idx)
    bp = Instance(b.sig, facts, b.const_interp)
    groups: dict[int, set[Fact]] = {}
    for f, idx in tentacle_of.items():
        groups.setdefault(idx, set()).add(f)
    tentacles = [frozenset(groups[i]) for i in sorted(groups)]
    return bp, Homomorphism.of(h), tentacles
