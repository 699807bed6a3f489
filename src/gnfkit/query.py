"""Conjunctive queries: the join kernel and semi-naive round planner, evaluation,
homomorphisms between atom sets (containment, cores), guards and atom
components, acyclicity, variable quotients, treeification.

``match_atoms`` joins relations (evaluation, the chase, Datalog) on a
``JoinPlan``, an atom order prepared once for the variables bound before the
join.  ``round_joins`` keeps the plans of semi-naive rounds in a plan table
that its caller holds for one evaluation (a chase run, a ``TypeClosure``, a
Datalog evaluation) and drops with it; ``cq_answers`` evaluates a query on
relations, and ``eval_cq`` on an instance.  Every homomorphism test between
sets of atoms runs ``model._hom_search`` through ``atom_homomorphisms``.  ``guard_index`` finds the atom that covers a set of
variables (rule and query guards), and ``components`` groups atoms linked
through shared variables (rule heads, squid decompositions)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import Fact, Instance, Signature, Value, _hom_search, _relational_constraints, elem
# unused here, but the benchmark's traced mode wraps gnfkit.query.find_homomorphism
from .model import find_homomorphism


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.name,)))

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Cst:
    name: str
    _h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.name,)))

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return Cst, (self.name,)

    def __repr__(self):
        return self.name


Term = Union[Var, Cst]


@dataclass(frozen=True, slots=True)
class Atom:
    rel: str
    args: tuple[Term, ...]
    _h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.rel, self.args)))

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return Atom, (self.rel, self.args)

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


def first_occurrence_vars(atoms: Iterable[Atom]) -> list[str]:
    """The atoms' variables, each once, in order of first occurrence."""
    return list({t.name: None for a in atoms for t in a.args if isinstance(t, Var)})


def cq(free: Sequence[str], atoms: Sequence[Atom]) -> ConjunctiveQuery:
    """Build a CQ; variables not listed free are existential (first-occurrence order)."""
    free = tuple(free)
    exist = tuple(v for v in first_occurrence_vars(atoms) if v not in free)
    return ConjunctiveQuery(free, exist, tuple(atoms))


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
    inst = Instance(query_signature(q, sig), canon_facts(q.atoms))
    return inst, tuple(elem(x) for x in q.free_vars)


def canon_facts(atoms: Iterable[Atom]) -> list[Fact]:
    """The atoms as facts: one element per variable, constants as themselves."""
    return [Fact(a.rel, tuple(elem(t.name) if isinstance(t, Var) else Value("constant", t.name)
                              for t in a.args)) for a in atoms]


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


class JoinPlan(list):
    """Atoms in join order, prepared for ``match_atoms`` with the variables
    `bound` bound beforehand: per atom, its bound positions (its constants,
    the bound variables and those an earlier atom binds) with their key
    terms, whether every position is bound, the positions whose values it
    binds and the pairs of positions that must agree."""

    __slots__ = ("bound", "steps")

    def __init__(self, atoms: Iterable[Atom], bound: Iterable[str] = ()):
        super().__init__(atoms)
        self.bound = frozenset(bound)
        self.steps = []
        seen = set(self.bound)
        for a in self:
            positions, key, binds, same = [], [], [], []
            first: dict[str, int] = {}
            for i, t in enumerate(a.args):
                if isinstance(t, Cst):
                    positions.append(i)
                    key.append((None, t.name))
                elif t.name in seen:
                    positions.append(i)
                    key.append((t.name, None))
                elif t.name in first:
                    same.append((first[t.name], i))
                else:
                    first[t.name] = i
                    binds.append((i, t.name))
            seen.update(first)
            self.steps.append((tuple(positions), key, len(positions) == len(a.args),
                               binds, same))


def match_atoms(atoms: Sequence[Atom], sources: Sequence[Relation],
                binding: dict[str, Value],
                const_of) -> Iterator[dict[str, Value]]:
    """All extensions of `binding` matching each atom against its own relation.

    `const_of(name)` resolves constant terms to values.  Atoms are matched
    left to right; callers order them (guard first) for pruning.  An atom
    probes its relation's index on its bound positions (a membership test
    when all are bound) and scans the relation only when none is.  A
    ``JoinPlan`` runs as prepared, for a binding over exactly its bound
    variables; other atoms are planned for this binding's variables.
    """
    if not isinstance(atoms, JoinPlan):
        atoms = JoinPlan(atoms, binding)
    elif atoms.bound != binding.keys():
        raise ValueError("the join plan was prepared for other bound variables")
    return _join(atoms.steps, sources, 0, binding, const_of)


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


# a plan table: the join plan of each body, in full (None) or led by the
# atom at a delta position
JoinPlans = dict[tuple[int, Optional[int]], JoinPlan]


def round_joins(bodies: Sequence[Sequence[Atom]], relations: Mapping[str, Relation],
                delta: Optional[Mapping[str, Relation]], plans: JoinPlans
                ) -> Iterator[tuple[int, JoinPlan, list[Relation]]]:
    """The joins of one semi-naive round, as (body index, join plan, sources).

    The chase, the type closure and Datalog evaluation plan their rounds
    here; each matches the yielded joins with `match_atoms` and adds what
    they derive only after the round, so `relations` and `delta` do not
    change while it runs.  Each holds one plan table for the bodies while
    its evaluation lasts (a chase run, a ``TypeClosure``, a Datalog
    evaluation); a join order is planned the first time a round needs it.

    Enumeration is delta-driven.  The first round (`delta` is None) joins every
    body in full.  Each later round joins a body once per position whose
    relation is in the delta, that atom first and matched against the delta,
    the rest against `relations`, so it finds exactly the matches that use a
    fact added by the previous round (a match with new facts at several
    positions is found once per such position).  Relations only grow, so a
    match that uses no new fact was found in an earlier round.  A join with an
    empty source matches nothing and is skipped, and a body over an empty
    relation before its joins are looked up.  Joins come in body order, then
    position order.
    """
    for bi, body in enumerate(bodies):
        if not all(relations[a.rel].tuples for a in body):
            continue
        for i in [None] if delta is None else [i for i, a in enumerate(body) if a.rel in delta]:
            plan = plans.get((bi, i))
            if plan is None:
                plan = plans[bi, i] = JoinPlan(
                    _ordered_for_join(body) if i is None else
                    [body[i]] + _ordered_for_join(body[:i] + body[i + 1:], body[i].vars()))
            sources = [relations[a.rel] for a in plan]
            if i is not None:
                sources[0] = delta[plan[0].rel]
            if all(s.tuples for s in sources):
                yield bi, plan, sources


def instance_tuples(inst: Instance, rel: str) -> set[tuple[Value, ...]]:
    return {f.args for f in inst.rel_facts(rel)}


def check_cq(q: ConjunctiveQuery, sig: Signature, const_interp: Mapping[str, Value]) -> None:
    """Raise ValueError unless every constant of q is interpreted and every
    relation of q declared with its arity."""
    for c in q.constants():
        if c not in const_interp:
            raise ValueError(f"constant {c} not interpreted in instance")
    for a in q.atoms:
        if a.rel not in sig.arities:
            raise ValueError(f"undeclared relation {a.rel}")
        if sig.arities[a.rel] != len(a.args):
            raise ValueError(f"arity mismatch on {a.rel}")


def cq_answers(q: ConjunctiveQuery, relations: Mapping[str, Relation], const_of,
               binding: Optional[dict[str, Value]] = None) -> set[tuple[Value, ...]]:
    """All answer tuples of q over the relations, by name (set semantics),
    unchecked: the core of ``eval_cq``."""
    start = dict(binding) if binding else {}
    plan = JoinPlan(_ordered_for_join(q.atoms), start)
    return {tuple(m[x] for x in q.free_vars)
            for m in match_atoms(plan, [relations[a.rel] for a in plan], start, const_of)}


def eval_cq(q: ConjunctiveQuery, inst: Instance,
            binding: Optional[dict[str, Value]] = None) -> set[tuple[Value, ...]]:
    """All answer tuples of q on inst (set semantics, active-domain)."""
    check_cq(q, inst.sig, inst.const_interp)
    rels = {a.rel: Relation(instance_tuples(inst, a.rel)) for a in q.atoms}
    return cq_answers(q, rels, inst.const_interp.__getitem__, binding)


def atom_homomorphisms(src: Sequence[Atom], dst: Iterable[Atom],
                       seed: Mapping[Term, Term]) -> Iterator[dict[Term, Term]]:
    """Every map of the terms of `src` that extends `seed`, fixes each
    constant and sends every `src` atom onto a `dst` atom, each once, under
    the constraints ``model._relational_constraints`` builds."""
    fixed = {t: t for a in src for t in a.args if isinstance(t, Cst)}
    if any(seed.get(c, c) != c for c in fixed):
        return
    yield from _hom_search(_relational_constraints(src, dst), {**seed, **fixed})


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


def guard_index(names: Iterable[str], atoms: Sequence[Atom]) -> Optional[int]:
    """The index of the first atom holding every named variable, or None."""
    need = set(names)
    return next((i for i, a in enumerate(atoms) if need <= set(a.vars())), None)


def components(atoms: Sequence[Atom], through: Container[str]) -> list[list[int]]:
    """The atoms' indices grouped into the classes of the atoms linked by
    sharing a variable among `through`, each class increasing, in order of
    its least index."""
    groups: list[tuple[set[str], list[int]]] = []
    for i, a in enumerate(atoms):
        vs, js = {v for v in a.vars() if v in through}, [i]
        for g in [g for g in groups if vs & g[0]]:
            groups.remove(g)
            vs, js = vs | g[0], g[1] + js
        groups.append((vs, js))
    return sorted(sorted(js) for _, js in groups)


def is_answer_guarded(q: ConjunctiveQuery) -> bool:
    """Some atom contains every free variable (vacuously true for Boolean queries)."""
    return not q.free_vars or guard_index(q.free_vars, q.atoms) is not None


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


# ---------------------------------------------------------------------------
# quotients and treeification

def quotients(items: Sequence, max_classes: Optional[int] = None) -> Iterator[dict]:
    """Every partition of the items into at most ``max_classes`` classes (any
    number when None), as the map sending each item to the first item of its
    class.  The bound drops partitions inside the recursion, so the ones
    within it come in the order the unbounded enumeration gives them."""
    def partitions(i: int) -> Iterator[list[list]]:
        if i == len(items):
            yield []
            return
        for part in partitions(i + 1):
            for j in range(len(part)):
                yield part[:j] + [[items[i]] + part[j]] + part[j + 1:]
            if max_classes is None or len(part) < max_classes:
                yield [[items[i]]] + part

    for part in partitions(0):
        yield {x: cls[0] for cls in part for x in cls}


def quotient_atoms(atoms: Iterable[Atom], rep: Mapping[str, str]) -> list[Atom]:
    """The distinct atoms with each variable renamed to its class's name."""
    sub = {v: Var(r) for v, r in rep.items()}
    return list(dict.fromkeys(substitute(a, sub) for a in atoms))


def atoms_over(rels: Iterable[tuple[str, int]], names: Sequence[str]) -> list[Atom]:
    """Every atom over the relations ``(name, arity)`` with the named
    variables as arguments, relation by relation."""
    return [Atom(rel, tuple(map(Var, combo))) for rel, arity in rels
            for combo in itertools.product(names, repeat=arity)]


def treeify(q: ConjunctiveQuery, max_atoms: int, max_vars: int,
            sig: Optional[Signature] = None) -> list[ConjunctiveQuery]:
    """The most general acyclic answer-guarded queries entailing q, within
    bounds: q's acyclic approximations within max_atoms atoms and max_vars
    variables, in the sense of Barceló, Libkin and Romero ("Efficient
    approximations of conjunctive queries", PODS 2012).

    Such a query receives q by a homomorphism fixing the answer variables,
    so it holds q's image, a quotient of q that keeps the answer variables
    apart.  Candidates are built that way: each such quotient within the
    bounds plus up to max_atoms - |quotient| extra atoms over the signature,
    on the quotient's variables and fresh ones up to max_vars.  The
    acyclic, answer-guarded candidates, distinct up to renaming, are cored;
    a core strictly contained in another is dropped, and of equivalent
    cores the one with the least canonical text is kept.  Members are
    returned in canonical form, sorted by text.  A query with a constant
    yields none: every candidate is built without constants.
    """
    if max_atoms < 1 or max_vars < 1:
        raise ValueError("treeify bounds must be positive")
    if not is_answer_guarded(q):
        raise ValueError("treeify requires an answer-guarded query")
    sig = query_signature(q, sig)
    if q.constants() or len(q.free_vars) > max_vars:
        return []
    rels = [(r, sig.arities[r]) for r in sig.relations()]
    seen: set[str] = set()
    cores: dict[str, ConjunctiveQuery] = {}
    # the answer variables come first in all_vars, so each names its class
    for rep in quotients(q.all_vars(), max_vars):
        if len({rep[x] for x in q.free_vars}) < len(q.free_vars):
            continue
        image = quotient_atoms(q.atoms, rep)
        names = first_occurrence_vars(image)
        pool = [a for a in atoms_over(rels, names + fresh_names("w", max_vars - len(names), names))
                if a not in image]
        for n in range(max_atoms - len(image) + 1):
            for extra in itertools.combinations(pool, n):
                cand = cq(q.free_vars, image + list(extra))
                if not is_answer_guarded(cand) or not is_acyclic(cand):
                    continue
                key = str(canonical_cq(cand))
                if key not in seen:
                    seen.add(key)
                    core = canonical_cq(core_cq(cand))
                    cores.setdefault(str(core), core)
    # keep t unless some other u contains it and is strictly weaker, or
    # equivalent with a lesser key
    return [cores[t] for t in sorted(cores)
            if not any(u != t and cq_contained(cores[t], cores[u])
                       and (u < t or not cq_contained(cores[u], cores[t])) for u in cores)]
