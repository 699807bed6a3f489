"""Conjunctive queries: the join kernel and semi-naive round planner, evaluation,
homomorphisms between atom sets (containment, cores), acyclicity, treeification.

``match_atoms`` joins relations (evaluation, the chase, Datalog); every
homomorphism test between sets of atoms runs ``model._hom_search`` through
``atom_homomorphisms``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import Fact, Instance, Signature, Value, _hom_search, elem
# unused here, but the benchmark's traced mode wraps gnfkit.query.find_homomorphism
from .model import find_homomorphism


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

class Relation:
    """A set of tuples with hash indexes keyed by bound positions.

    An index is built the first time a probe asks for its positions; `add`
    keeps every index built so far up to date.
    """

    __slots__ = ("tuples", "_indexes")

    def __init__(self, tuples: Iterable[tuple[Value, ...]] = ()):
        self.tuples: set[tuple[Value, ...]] = set(tuples)
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple[Value, ...]]]] = {}

    def add(self, tup: tuple[Value, ...]) -> bool:
        """Insert the tuple; whether it was new."""
        if tup in self.tuples:
            return False
        self.tuples.add(tup)
        for positions, index in self._indexes.items():
            index.setdefault(tuple([tup[i] for i in positions]), []).append(tup)
        return True

    def probe(self, positions: tuple[int, ...], key: tuple) -> Sequence[tuple[Value, ...]]:
        """The tuples whose values at `positions` are `key`."""
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = {}
            for tup in self.tuples:
                index.setdefault(tuple([tup[i] for i in positions]), []).append(tup)
        return index.get(key, ())


def match_atoms(atoms: Sequence[Atom], sources: Sequence[Relation],
                binding: dict[str, Value],
                const_of) -> Iterator[dict[str, Value]]:
    """All extensions of `binding` matching each atom against its own relation.

    `const_of(name)` resolves constant terms to values.  Atoms are matched
    left to right; callers order them (guard first) for pruning.  An atom's
    bound positions are its constants and the variables that `binding` or an
    earlier atom binds: the atom probes its relation's index on those
    positions (a membership test when all are bound) and scans the relation
    only when none is.
    """
    plan = []
    bound = set(binding)
    for a in atoms:
        positions, key, binds, same = [], [], [], []
        first: dict[str, int] = {}
        for i, t in enumerate(a.args):
            if isinstance(t, Cst):
                positions.append(i)
                key.append((None, t.name))
            elif t.name in bound:
                positions.append(i)
                key.append((t.name, None))
            elif t.name in first:
                same.append((first[t.name], i))
            else:
                first[t.name] = i
                binds.append((i, t.name))
        bound.update(first)
        plan.append((tuple(positions), key, len(positions) == len(a.args), binds, same))
    yield from _join(plan, sources, 0, binding, const_of)


def _join(plan, sources, k, binding, const_of):
    if k == len(plan):
        yield dict(binding)
        return
    src = sources[k]
    if not src.tuples:
        return
    positions, key_terms, total, binds, same = plan[k]
    if positions:
        key = tuple([binding[v] if v is not None else const_of(c) for v, c in key_terms])
        if total:
            if key in src.tuples:
                yield from _join(plan, sources, k + 1, binding, const_of)
            return
        candidates = src.probe(positions, key)
    else:
        candidates = src.tuples
    for tup in candidates:
        if same and any(tup[i] != tup[j] for i, j in same):
            continue
        for i, v in binds:
            binding[v] = tup[i]
        yield from _join(plan, sources, k + 1, binding, const_of)
    for _, v in binds:
        binding.pop(v, None)


def _ordered_for_join(atoms: Sequence[Atom], bound: Iterable[str] = ()) -> list[Atom]:
    # with nothing bound, start from the widest atom; then greedily prefer
    # atoms sharing the most bound variables
    rest = list(atoms)
    bound = set(bound)
    out = []
    if rest and not bound:
        rest.sort(key=lambda a: (-len(set(a.vars())), str(a)))
        out.append(rest.pop(0))
        bound |= set(out[0].vars())
    while rest:
        rest.sort(key=lambda a: (-len(set(a.vars()) & bound), str(a)))
        nxt = rest.pop(0)
        out.append(nxt)
        bound |= set(nxt.vars())
    return out


def round_joins(bodies: Sequence[Sequence[Atom]], relations: Mapping[str, Relation],
                delta: Optional[Mapping[str, Relation]]
                ) -> Iterator[tuple[int, list[Atom], list[Relation]]]:
    """The joins of one semi-naive round, as (body index, atom order, sources).

    The chase and Datalog evaluation both plan their rounds here; each matches
    the yielded joins with `match_atoms` and adds what they derive only after
    the round, so `relations` and `delta` do not change while it runs.

    Enumeration is delta-driven.  The first round (`delta` is None) joins every
    body in full.  Each later round joins a body once per position whose
    relation is in the delta, that atom first and matched against the delta,
    the rest against `relations`, so it finds exactly the matches that use a
    fact added by the previous round (a match with new facts at several
    positions is found once per such position).  Relations only grow, so a
    match that uses no new fact was found in an earlier round.  A join with an empty source matches nothing
    and is skipped.  Joins come in body order, then position order.
    """
    for bi, body in enumerate(bodies):
        if delta is None:
            orders = [_ordered_for_join(body)]
        else:
            orders = [[a] + _ordered_for_join(body[:i] + body[i + 1:], a.vars())
                      for i, a in enumerate(body) if a.rel in delta]
        for order in orders:
            sources = [relations[a.rel] for a in order]
            if delta is not None:
                sources[0] = delta[order[0].rel]
            if all(s.tuples for s in sources):
                yield bi, order, sources


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
    rels = {a.rel: Relation(instance_tuples(inst, a.rel)) for a in ordered}
    sources = [rels[a.rel] for a in ordered]
    out = set()
    start = dict(binding) if binding else {}
    for m in match_atoms(ordered, sources, start, lambda c: inst.const_interp[c]):
        out.add(tuple(m[x] for x in q.free_vars))
    return out


def atom_homomorphisms(src: Iterable[Atom], dst: Iterable[Atom],
                       seed: Mapping[Term, Term]) -> Iterator[dict[Term, Term]]:
    """Every map of the terms of `src` that extends `seed`, fixes each
    constant and sends every `src` atom onto a `dst` atom, each once.

    The atoms of `src` become the search's constraints in order of relation,
    then argument names (ties keep input order), and each one's images are
    the argument tuples of the `dst` atoms over its relation.
    """
    atoms = sorted(dict.fromkeys(src), key=lambda a: (a.rel, tuple(t.name for t in a.args)))
    fixed = {t: t for a in atoms for t in a.args if isinstance(t, Cst)}
    if any(seed.get(c, c) != c for c in fixed):
        return
    images: dict[str, list[tuple[Term, ...]]] = {}
    for a in dict.fromkeys(dst):
        images.setdefault(a.rel, []).append(a.args)
    yield from _hom_search([(a.args, images.get(a.rel, ())) for a in atoms], {**seed, **fixed})


def cq_contained(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Whether every answer of q1 is an answer of q2: a homomorphism from q2's
    atoms into q1's sending q2's free variables onto q1's."""
    if len(q1.free_vars) != len(q2.free_vars):
        raise ValueError("containment needs equal free arity")
    query_signature(q2, query_signature(q1))  # a relation used with two arities raises
    seed = {Var(x2): Var(x1) for x2, x1 in zip(q2.free_vars, q1.free_vars)}
    return next(atom_homomorphisms(q2.atoms, q1.atoms, seed), None) is not None


def cq_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return cq_contained(q1, q2) and cq_contained(q2, q1)


def core_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Minimize q by endomorphic retracts that fix the free variables: while
    some existential variable, in name order, can be dropped by mapping the
    atoms into those without it, take the first such map."""
    query_signature(q)  # a relation used with two arities raises
    atoms = list(dict.fromkeys(q.atoms))
    seed = {Var(x): Var(x) for x in q.free_vars}
    while True:
        for drop in sorted({v for a in atoms for v in a.vars()} - set(q.free_vars)):
            target = [a for a in atoms if Var(drop) not in a.args]
            h = next(atom_homomorphisms(atoms, target, seed), None)
            if h is not None:
                atoms = list(dict.fromkeys(Atom(a.rel, tuple(h[t] for t in a.args))
                                           for a in atoms))
                break
        else:
            return cq(q.free_vars, atoms)


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

# a body's distinct atoms, its renamed variables, and per renaming (their new
# names, the renamed atoms' texts sorted)
BodyRenamings = tuple[list[Atom], list[str], list[tuple[list[str], list[str]]]]


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


def body_renamings(atoms: Iterable[Atom], groups: Sequence[tuple[str, Sequence[str]]],
                   kept: Iterable[str] = (), lead: Sequence[Atom] = ()) -> BodyRenamings:
    """The first half of ``canonical_renaming``: the distinct atoms, the
    renamed variables in order, and every renaming of them (with the renamed
    atoms' texts, sorted) in the order of the permutations of each group's
    variables, the first group varying slowest.  A group's
    variables are renamed onto prefix0, prefix1, ..., skipping the `kept`
    names, the constants, every variable outside the groups and the names of
    earlier groups.  Past ``RENAMING_CAP`` renamed variables there is one
    renaming, naming each group in order of first occurrence in `lead`, then
    in the atoms sorted by text."""
    atoms = list(dict.fromkeys(atoms))
    order = [v for _, vs in groups for v in vs]
    if len(order) > RENAMING_CAP:
        occ = [v for a in [*lead, *sorted(atoms, key=str)] for v in a.vars()] + order
        groups = [(prefix, sorted(vs, key=occ.index)) for prefix, vs in groups]
        order = [v for _, vs in groups for v in vs]
    renamed = set(order)
    taken = set(kept).union(t.name for a in atoms for t in a.args
                            if isinstance(t, Cst) or t.name not in renamed)
    pools = []
    for prefix, vs in groups:
        pools.append(fresh_names(prefix, len(vs), taken))
        taken.update(pools[-1])
    tmpls = _templates(atoms, order)
    out = []
    for choice in ([pools] if len(order) > RENAMING_CAP
                   else itertools.product(*map(itertools.permutations, pools))):
        ns = [n for names in choice for n in names]
        out.append((ns, sorted(t.format(*ns) for t in tmpls)))
    return atoms, order, out


def pick_renaming(renamings: BodyRenamings, head: Optional[Atom] = None
                  ) -> tuple[tuple[Atom, ...], Optional[Atom], dict[str, str], list[str]]:
    """The second half of ``canonical_renaming``: of a body's renamings, the
    one whose serialized head, then sorted serialized atoms, is least, the
    first on ties.  Returns the renamed atoms and head, the renaming and the
    atoms' texts.  No name in the head may be one of the new names."""
    atoms, order, choices = renamings
    tmpl = "" if head is None else _templates([head], order)[0]
    ns, texts = min(choices, key=lambda c: (tmpl.format(*c[0]), c[1]))
    ren = dict(zip(order, ns))
    sub = {v: Var(n) for v, n in ren.items()}
    return (tuple(sorted((substitute(a, sub) for a in atoms), key=str)),
            None if head is None else substitute(head, sub), ren, texts)


def canonical_renaming(atoms: Iterable[Atom], groups: Sequence[tuple[str, Sequence[str]]],
                       head: Optional[Atom] = None, kept: Iterable[str] = ()
                       ) -> tuple[tuple[Atom, ...], Optional[Atom], dict[str, str]]:
    """Canonical names for the variables of each group ``(prefix, variables)``:
    ``pick_renaming`` for the head among the atoms' ``body_renamings``, led by
    the head and keeping its other names.  Returns the distinct renamed atoms
    sorted by text, the renamed head and the renaming."""
    lead = [] if head is None else [head]
    renamed = {v for _, vs in groups for v in vs}
    kept = set(kept).union(t.name for a in lead for t in a.args
                           if isinstance(t, Cst) or t.name not in renamed)
    return pick_renaming(body_renamings(atoms, groups, kept, lead), head)[:3]


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
