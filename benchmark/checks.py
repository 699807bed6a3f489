"""Independent checks of gnfkit outputs, written without calling gnfkit's own
checkers: guard classes of emitted programs, partial isomorphisms,
homomorphisms by brute force, acyclicity, connected components and a naive
first-order evaluator.  They read gnfkit's data types but none of its logic.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from gnfkit.logic import FoAnd, FoEq, FoExists, FoForall, FoNot, FoOr
from gnfkit.query import Atom, Var


def atom_vars(a) -> set[str]:
    return {t.name for t in a.args if isinstance(t, Var)}


def _guarded(rule, needed: set[str]) -> bool:
    return not needed or any(needed <= atom_vars(a) for a in rule.body)


def program_in_class(scheme: str, program) -> bool:
    """atomic: every rule guarded; cq: every rule but the goal rules guarded
    (internally guarded); fg: every rule frontier-guarded."""
    for r in program.rules:
        every = atom_vars(r.head).union(*(atom_vars(a) for a in r.body))
        if scheme == "atomic" and not _guarded(r, every):
            return False
        if scheme == "cq" and r.head.rel != program.goal and not _guarded(r, every):
            return False
        if scheme == "fg" and not _guarded(r, atom_vars(r.head)):
            return False
    return True


# ---------------------------------------------------------------------------
# structures as plain sets of (relation, names) facts


def facts_of(inst) -> set[tuple[str, tuple[str, ...]]]:
    return {(f.rel, tuple(v.name for v in f.args)) for f in inst.facts}


def domain_of(facts) -> set[str]:
    return {v for _, args in facts for v in args}


def is_hom(h: dict[str, str], src, dst) -> bool:
    """Every fact of ``src`` maps into ``dst`` (facts as name tuples)."""
    return all((rel, tuple(h[v] for v in args)) in dst for rel, args in src)


def is_partial_iso(m: dict[str, str], a, b) -> bool:
    """``m`` is injective, its domain and image are guarded sets, and a fact
    over its domain holds in ``a`` exactly when its image holds in ``b``."""
    if len(set(m.values())) != len(m):
        return False
    dom, cod = set(m), set(m.values())
    if m and not any(dom <= set(args) for _, args in a):
        return False
    if m and not any(cod <= set(args) for _, args in b):
        return False
    inv = {w: v for v, w in m.items()}
    forth = all((rel, tuple(m[v] for v in args)) in b
                for rel, args in a if set(args) <= dom)
    back = all((rel, tuple(inv[w] for w in args)) in a
               for rel, args in b if set(args) <= cod)
    return forth and back


def find_hom_brute(src, dst, fixed: dict[str, str]) -> dict[str, str] | None:
    """A homomorphism extending ``fixed``, by trying every assignment."""
    free = sorted(domain_of(src) - set(fixed))
    targets = sorted(domain_of(dst))
    for image in itertools.product(targets, repeat=len(free)):
        h = dict(fixed, **dict(zip(free, image)))
        if is_hom(h, src, dst):
            return h
    return None


def query_facts(q) -> set[tuple[str, tuple[str, ...]]]:
    """The canonical structure of a constant-free query: one element per variable."""
    return {(a.rel, tuple(t.name for t in a.args)) for a in q.atoms}


def query_contained(q1, q2) -> bool:
    """q1 is contained in q2: q2's canonical structure maps into q1's with the
    free variables sent to each other in order."""
    fixed = dict(zip(q2.free_vars, q1.free_vars))
    return find_hom_brute(query_facts(q2), query_facts(q1), fixed) is not None


def hypergraph_acyclic(q) -> bool:
    """Alpha-acyclicity by ear removal: repeatedly drop an edge whose
    variables shared with the other edges all lie inside one other edge."""
    edges = [frozenset(atom_vars(a)) for a in q.atoms]
    edges = [e for e in edges if e]
    while len(edges) > 1:
        for i, e in enumerate(edges):
            others = edges[:i] + edges[i + 1:]
            shared = e & frozenset().union(*others)
            if any(shared <= f for f in others):
                edges = others
                break
        else:
            return False
    return True


def weak_components(edges) -> int:
    parent: dict[str, str] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for x, y in edges:
        parent[find(x)] = find(y)
    return len({find(x) for x in list(parent)})


def degrees(edges) -> tuple[set[int], set[int]]:
    outd: dict[str, int] = defaultdict(int)
    ind: dict[str, int] = defaultdict(int)
    for x, y in edges:
        outd[x] += 1
        ind[y] += 1
    nodes = set(outd) | set(ind)
    return {outd[v] for v in nodes}, {ind[v] for v in nodes}


# ---------------------------------------------------------------------------
# first-order evaluation by the definition


def holds(f, facts, domain, env=None) -> bool:
    env = env or {}
    if isinstance(f, Atom):
        return (f.rel, tuple(env[t.name] for t in f.args)) in facts
    if isinstance(f, FoEq):
        return env[f.left.name] == env[f.right.name]
    if isinstance(f, FoNot):
        return not holds(f.sub, facts, domain, env)
    if isinstance(f, FoAnd):
        return all(holds(p, facts, domain, env) for p in f.parts)
    if isinstance(f, FoOr):
        return any(holds(p, facts, domain, env) for p in f.parts)
    if isinstance(f, FoExists):
        return any(holds(f.sub, facts, domain, {**env, f.var: d}) for d in domain)
    if isinstance(f, FoForall):
        return all(holds(f.sub, facts, domain, {**env, f.var: d}) for d in domain)
    raise TypeError(f"unexpected formula node {f!r}")
