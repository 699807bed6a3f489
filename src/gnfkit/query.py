"""Conjunctive queries: evaluation, containment, cores, acyclicity, treeification."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import (Fact, Instance, Signature, Value, active_domain, elem,
                    find_homomorphism)


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Cst:
    name: str

    def __repr__(self):
        return self.name


Term = Union[Var, Cst]


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[Term, ...]

    def vars(self) -> tuple[str, ...]:
        seen = []
        for t in self.args:
            if isinstance(t, Var) and t.name not in seen:
                seen.append(t.name)
        return tuple(seen)

    def __str__(self):
        return f"{self.rel}({','.join(t.name for t in self.args)})"

    def __repr__(self):
        return str(self)


def atom(rel: str, *args: str) -> Atom:
    """Convenience builder: lowercase-by-convention names are all vars here; use
    cst() explicitly for constants."""
    return Atom(rel, tuple(Var(a) if isinstance(a, str) else a for a in args))


def cst(name: str) -> Cst:
    return Cst(name)


@dataclass(frozen=True)
class ConjunctiveQuery:
    free_vars: tuple[str, ...]
    exist_vars: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if set(self.free_vars) & set(self.exist_vars):
            raise ValueError("free and existential variables overlap")
        used = {v for a in self.atoms for v in a.vars()}
        declared = set(self.free_vars) | set(self.exist_vars)
        if not used <= declared:
            raise ValueError(f"undeclared variables {sorted(used - declared)}")
        for x in self.free_vars:
            if x not in used:
                raise ValueError(f"free variable {x} occurs in no atom")

    def all_vars(self) -> tuple[str, ...]:
        return self.free_vars + self.exist_vars

    def constants(self) -> set[str]:
        return {t.name for a in self.atoms for t in a.args if isinstance(t, Cst)}

    def __str__(self):
        body = ", ".join(str(a) for a in sorted(self.atoms, key=str))
        if self.exist_vars:
            return f"exists {','.join(self.exist_vars)}: {body}"
        return body

    def __repr__(self):
        return f"CQ({','.join(self.free_vars)} | {self})"


def cq(free: Sequence[str], atoms: Sequence[Atom]) -> ConjunctiveQuery:
    """Build a CQ; variables not listed free are existential (first-occurrence order)."""
    free = tuple(free)
    exist = []
    for a in atoms:
        for v in a.vars():
            if v not in free and v not in exist:
                exist.append(v)
    return ConjunctiveQuery(free, tuple(exist), tuple(atoms))


@dataclass(frozen=True)
class UnionOfCQs:
    members: tuple[ConjunctiveQuery, ...]

    def __post_init__(self):
        arities = {len(q.free_vars) for q in self.members}
        if len(arities) > 1:
            raise ValueError("union members disagree on free arity")


def query_signature(q: ConjunctiveQuery, base: Optional[Signature] = None) -> Signature:
    """Signature inferred from the query's atoms, optionally extending a base."""
    rels = {}
    for a in q.atoms:
        if a.rel in rels and rels[a.rel] != len(a.args):
            raise ValueError(f"relation {a.rel} used with two arities")
        rels[a.rel] = len(a.args)
    if base is not None:
        return base.extend(sorted(rels.items()), sorted(q.constants()))
    return Signature(sorted(rels.items()), sorted(q.constants()))


def canon_inst(q: ConjunctiveQuery, sig: Optional[Signature] = None):
    """Canonical instance of q: one element per variable, constants as themselves.

    Returns (instance, free_values) with free_values positionally matching free_vars.
    """
    sig = query_signature(q, sig)

    def tv(t: Term) -> Value:
        return elem(t.name) if isinstance(t, Var) else Value("constant", t.name)

    facts = [Fact(a.rel, tuple(tv(t) for t in a.args)) for a in q.atoms]
    inst = Instance(sig, facts)
    return inst, tuple(elem(x) for x in q.free_vars)


# ---------------------------------------------------------------------------
# joins over fact sets (shared by evaluation, the chase, and Datalog)

def match_atoms(atoms: Sequence[Atom], sources: Sequence[Iterable[tuple[Value, ...]]],
                binding: dict[str, Value],
                const_of) -> Iterator[dict[str, Value]]:
    """All extensions of `binding` matching each atom against its own tuple source.

    `const_of(name)` resolves constant terms to values.  Atoms are matched
    left to right; callers order them (guard first) for pruning.
    """
    if not atoms:
        yield dict(binding)
        return
    a, rest_atoms = atoms[0], atoms[1:]
    rest_sources = sources[1:]
    for tup in sources[0]:
        new = {}
        ok = True
        for t, v in zip(a.args, tup):
            if isinstance(t, Cst):
                if const_of(t.name) != v:
                    ok = False
                    break
            else:
                bound = binding.get(t.name, new.get(t.name))
                if bound is None:
                    new[t.name] = v
                elif bound != v:
                    ok = False
                    break
        if not ok:
            continue
        binding.update(new)
        yield from match_atoms(rest_atoms, rest_sources, binding, const_of)
        for k in new:
            del binding[k]


def _ordered_for_join(atoms: Sequence[Atom]) -> list[Atom]:
    # start from the widest atom, then greedily prefer atoms sharing bound vars
    if not atoms:
        return []
    rest = list(atoms)
    rest.sort(key=lambda a: (-len(set(a.vars())), str(a)))
    out = [rest.pop(0)]
    bound = set(out[0].vars())
    while rest:
        rest.sort(key=lambda a: (-len(set(a.vars()) & bound), str(a)))
        nxt = rest.pop(0)
        out.append(nxt)
        bound |= set(nxt.vars())
    return out


def instance_tuples(inst: Instance, rel: str) -> set[tuple[Value, ...]]:
    return {f.args for f in inst.rel_facts(rel)}


def eval_cq(q: ConjunctiveQuery, inst: Instance,
            binding: Optional[dict[str, Value]] = None) -> set[tuple[Value, ...]]:
    """All answer tuples of q on inst (set semantics, active-domain)."""
    for c in q.constants():
        if c not in inst.const_interp:
            raise ValueError(f"constant {c} not interpreted in instance")
    for a in q.atoms:
        if a.rel not in inst.sig.arities:
            raise ValueError(f"undeclared relation {a.rel}")
        if inst.sig.arities[a.rel] != len(a.args):
            raise ValueError(f"arity mismatch on {a.rel}")
    ordered = _ordered_for_join(q.atoms)
    sources = [instance_tuples(inst, a.rel) for a in ordered]
    out = set()
    start = dict(binding) if binding else {}
    for m in match_atoms(ordered, sources, start, lambda c: inst.const_interp[c]):
        out.add(tuple(m[x] for x in q.free_vars))
    return out


def cq_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Whether every answer of q1 is an answer of q2, by canonical-instance homomorphism."""
    if len(q1.free_vars) != len(q2.free_vars):
        raise ValueError("containment needs equal free arity")
    sig = query_signature(q2, query_signature(q1))
    inst1, free1 = canon_inst(q1, sig)
    inst2, free2 = canon_inst(q2, sig)
    seed = dict(zip(free2, free1))
    return find_homomorphism(inst2, inst1, seed=seed) is not None


def cq_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return cq_contained(q1, q2) and cq_contained(q2, q1)


def core_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Minimize q by endomorphic retracts that fix the free variables."""
    atoms = list(dict.fromkeys(q.atoms))
    free = q.free_vars
    while True:
        cur = cq(free, atoms)
        inst, free_vals = canon_inst(cur)
        seed = {v: v for v in free_vals}
        shrunk = False
        for drop in sorted(active_domain(inst), key=lambda v: v.name):
            if drop in set(free_vals) or drop.kind == "constant":
                continue
            target = Instance(inst.sig,
                              (f for f in inst.facts if drop not in f.args),
                              inst.const_interp)
            h = find_homomorphism(inst, target, seed=seed)
            if h is None:
                continue
            sub = {x.name: Cst(v.name) if v.kind == "constant" else Var(v.name)
                   for x, v in h.as_dict().items() if x.kind != "constant"}
            atoms = list(dict.fromkeys(substitute(a, sub) for a in atoms))
            shrunk = True
            break
        if not shrunk:
            return cq(free, atoms)


def is_answer_guarded(q: ConjunctiveQuery) -> bool:
    """Some atom contains every free variable (vacuously true for Boolean queries)."""
    need = set(q.free_vars)
    if not need:
        return True
    return any(need <= set(a.vars()) for a in q.atoms)


def is_acyclic(q: ConjunctiveQuery) -> bool:
    """Alpha-acyclicity of the atom hypergraph, by GYO reduction.

    Repeatedly drop vertices occurring in a single edge and edges contained in
    other edges; acyclic iff everything reduces away.
    """
    edges: list[set[str]] = [set(a.vars()) for a in q.atoms]
    edges = [e for e in edges if e]
    changed = True
    while changed:
        changed = False
        counts: dict[str, int] = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        for e in edges:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        keep = []
        for i, e in enumerate(edges):
            if not e:
                changed = True
                continue
            if any(e < f or (e == f and j < i)
                   for j, f in enumerate(edges) if j != i):
                changed = True
                continue
            keep.append(e)
        edges = keep
    return not edges


# ---------------------------------------------------------------------------
# canonical naming up to variable renaming

# most variables whose names are chosen by trying every permutation
RENAMING_CAP = 7


def substitute(a: Atom, sub: Mapping[str, Term]) -> Atom:
    """The atom with every variable named in `sub` replaced by its image."""
    return Atom(a.rel, tuple(sub.get(t.name, t) if isinstance(t, Var) else t
                             for t in a.args))


def fresh_names(prefix: str, n: int, kept: Container[str]) -> list[str]:
    """The first n of prefix0, prefix1, ... that are not kept names."""
    out: list[str] = []
    i = 0
    while len(out) < n:
        if f"{prefix}{i}" not in kept:
            out.append(f"{prefix}{i}")
        i += 1
    return out


def _templates(atoms: Sequence[Atom], order: Sequence[str]) -> list[str]:
    """Each atom's text as a format string with field i for variable order[i]."""
    slot = {v: i for i, v in enumerate(order)}
    out = []
    for a in atoms:
        args = ",".join(f"{{{slot[t.name]}}}" if isinstance(t, Var) and t.name in slot
                        else t.name.replace("{", "{{").replace("}", "}}") for t in a.args)
        out.append(f"{a.rel.replace('{', '{{').replace('}', '}}')}({args})")
    return out


def canonical_renaming(atoms: Iterable[Atom], groups: Sequence[tuple[str, Sequence[str]]],
                       head: Optional[Atom] = None, kept: Iterable[str] = ()
                       ) -> tuple[tuple[Atom, ...], Optional[Atom], dict[str, str]]:
    """Canonical names for the variables of each group ``(prefix, variables)``.

    A group's variables are renamed onto prefix0, prefix1, ..., skipping the
    `kept` names, the constants, every variable outside the groups and the
    names of earlier groups.  The renaming chosen is the one whose serialized
    head, then sorted serialized atoms, is least; ties go to the first in the
    order of the permutations of each group's variables as listed, the first
    group varying slowest.  Past ``RENAMING_CAP`` renamed variables, each
    group is named in order of first occurrence in the head, then in the
    atoms sorted by text.  Returns the distinct renamed atoms sorted by text,
    the renamed head and the renaming.
    """
    atoms = list(dict.fromkeys(atoms))
    lead = [] if head is None else [head]
    order = [v for _, vs in groups for v in vs]
    if len(order) > RENAMING_CAP:
        occ = [v for a in lead + sorted(atoms, key=str) for v in a.vars()] + order
        groups = [(prefix, sorted(vs, key=occ.index)) for prefix, vs in groups]
        order = [v for _, vs in groups for v in vs]
    renamed = set(order)
    taken = set(kept).union(t.name for a in lead + atoms for t in a.args
                            if isinstance(t, Cst) or t.name not in renamed)
    pools = []
    for prefix, vs in groups:
        pools.append(fresh_names(prefix, len(vs), taken))
        taken.update(pools[-1])
    texts = None  # the renamed atoms' texts, when the search computed them
    choices = ([pools] if len(order) > RENAMING_CAP
               else list(itertools.product(*map(itertools.permutations, pools))))
    best = choices[0]
    if len(choices) > 1:
        tmpls = _templates(atoms + lead, order)
        least = None
        for choice in choices:
            ns = [n for names in choice for n in names]
            ts = [t.format(*ns) for t in tmpls]
            key = (ts[len(atoms):], sorted(ts[:len(atoms)]))
            if least is None or key < least:
                least, best, texts = key, choice, ts
    ren = dict(zip(order, (n for names in best for n in names)))
    sub = {v: Var(n) for v, n in ren.items()}
    out = [substitute(a, sub) for a in atoms]
    if texts is None:
        out.sort(key=str)
    else:
        out = [out[i] for i in sorted(range(len(out)), key=texts.__getitem__)]
    return tuple(out), None if head is None else substitute(head, sub), ren


def canonical_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Canonical variant: free variables kept, the existentials that occur in
    an atom renamed v0, v1, ... by ``canonical_renaming``."""
    ex = sorted(set(q.exist_vars) & {v for a in q.atoms for v in a.vars()})
    atoms, _, _ = canonical_renaming(q.atoms, [("v", ex)])
    return cq(q.free_vars, atoms)


def _enumerate_cqs(sig: Signature, free: tuple[str, ...], max_atoms: int,
                   max_vars: int) -> Iterator[ConjunctiveQuery]:
    """All canonical CQs over sig with the given free variables, within bounds."""
    pool_vars = list(free) + fresh_names("v", max_vars - len(free), free)
    atoms = []
    for rel in sig.relations():
        ar = sig.arities[rel]
        for combo in itertools.product(pool_vars, repeat=ar):
            atoms.append(Atom(rel, tuple(Var(v) for v in combo)))
    atoms.sort(key=str)
    seen = set()
    for n in range(1, max_atoms + 1):
        for combo in itertools.combinations(atoms, n):
            used = {v for a in combo for v in a.vars()}
            if len(used) > max_vars or not set(free) <= used:
                continue
            try:
                cand = canonical_cq(cq(free, combo))
            except ValueError:
                continue
            key = str(cand)
            if key in seen:
                continue
            seen.add(key)
            yield cand


def treeify(q: ConjunctiveQuery, max_atoms: int, max_vars: int,
            sig: Optional[Signature] = None) -> list[ConjunctiveQuery]:
    """The most general acyclic answer-guarded queries entailing q, within bounds.

    Searches every canonical CQ over the signature with at most max_atoms atoms and
    max_vars variables; keeps those that are acyclic, answer-guarded and contained in q;
    prunes members strictly contained in another member; ties between equivalent members
    go to the lexicographically least serialization.
    """
    if max_atoms < 1 or max_vars < 1:
        raise ValueError("treeify bounds must be positive")
    if not is_answer_guarded(q):
        raise ValueError("treeify requires an answer-guarded query")
    sig = query_signature(q, sig)
    if len(q.free_vars) > max_vars:
        return []
    found: list[ConjunctiveQuery] = []
    for cand in _enumerate_cqs(sig, q.free_vars, max_atoms, max_vars):
        if not is_answer_guarded(cand) or not is_acyclic(cand):
            continue
        if cq_contained(cand, q):
            found.append(core_cq(cand))
    # keep the weakest members: drop t if strictly contained in some other member
    out: list[ConjunctiveQuery] = []
    for i, t in enumerate(found):
        keep = True
        for j, u in enumerate(found):
            if i == j:
                continue
            if cq_contained(t, u):
                if not cq_contained(u, t):
                    keep = False
                    break
                # equivalent: lexicographic tie-break
                ct, cu = str(canonical_cq(t)), str(canonical_cq(u))
                if cu < ct or (cu == ct and j < i):
                    keep = False
                    break
        if keep:
            out.append(canonical_cq(t))
    uniq = sorted(set(out), key=str)
    return uniq
