"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in the most direct style possible —
exhaustive enumeration, linear scans, no indexing, no shared helpers from the
package internals — so that agreement with the package is meaningful.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional

from gnfkit.model import Fact, Homomorphism, Instance, Value
from gnfkit.query import Atom, ConjunctiveQuery, Cst, Var
from gnfkit.logic import (FoAnd, FoEq, FoExists, FoForall, FoFormula, FoNot,
                          FoOr)


def _values_of(inst: Instance) -> list[Value]:
    vals = {v for f in inst.facts for v in f.args}
    vals.update(inst.const_interp.values())
    return sorted(vals, key=lambda v: (v.kind, v.name))


def naive_eval_cq(q: ConjunctiveQuery, inst: Instance,
                  binding: Optional[Mapping[str, Value]] = None) -> set[tuple[Value, ...]]:
    """Try every assignment of the query variables into the instance values."""
    binding = dict(binding or {})
    vals = _values_of(inst)
    fact_list = list(inst.facts)
    all_vars = [v for v in (*q.free_vars, *q.exist_vars) if v not in binding]
    out: set[tuple[Value, ...]] = set()
    for combo in itertools.product(vals, repeat=len(all_vars)):
        asg = dict(binding)
        asg.update(zip(all_vars, combo))
        ok = True
        for a in q.atoms:
            args = []
            for t in a.args:
                if isinstance(t, Var):
                    args.append(asg[t.name])
                else:
                    args.append(inst.const_interp[t.name])
            hit = False
            for f in fact_list:
                if f.rel == a.rel and list(f.args) == args:
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            out.add(tuple(asg[v] for v in q.free_vars))
    return out


def naive_homomorphisms(src: Instance, dst: Instance,
                        seed: Optional[Mapping[Value, Value]] = None
                        ) -> Iterator[dict[Value, Value]]:
    """Try every total map from src values into dst values; yield each one
    that pins constants and carries every fact into dst."""
    seed = dict(seed or {})
    src_vals = _values_of(src)
    dst_vals = _values_of(dst)
    free_positions = [v for v in src_vals if v not in seed]
    for combo in itertools.product(dst_vals, repeat=len(free_positions)):
        h = dict(seed)
        h.update(zip(free_positions, combo))
        ok = True
        for c, v in src.const_interp.items():
            if c in dst.const_interp and h.get(v) != dst.const_interp[c]:
                ok = False
                break
        if ok:
            for f in src.facts:
                if Fact(f.rel, tuple(h[a] for a in f.args)) not in dst.facts:
                    ok = False
                    break
        if ok:
            yield h


def naive_find_homomorphism(src: Instance, dst: Instance,
                            seed: Optional[Mapping[Value, Value]] = None
                            ) -> Optional[dict[Value, Value]]:
    """The first map `naive_homomorphisms` yields, or None."""
    return next(naive_homomorphisms(src, dst, seed), None)


def naive_eval_fo(f: FoFormula, inst: Instance, domain=None,
                  binding: Optional[Mapping[str, Value]] = None) -> bool:
    """Direct recursive Tarskian evaluation, scanning the fact list each time."""
    if domain is None:
        dom = _values_of(inst)
    else:
        dom = sorted(domain, key=lambda v: (v.kind, v.name))
    fact_list = list(inst.facts)

    def term(t, b):
        if isinstance(t, Var):
            return b[t.name]
        return inst.const_interp[t.name]

    def ev(g, b) -> bool:
        if isinstance(g, Atom):
            args = [term(t, b) for t in g.args]
            for fa in fact_list:
                if fa.rel == g.rel and list(fa.args) == args:
                    return True
            return False
        if isinstance(g, FoEq):
            return term(g.left, b) == term(g.right, b)
        if isinstance(g, FoAnd):
            for p in g.parts:
                if not ev(p, b):
                    return False
            return True
        if isinstance(g, FoOr):
            for p in g.parts:
                if ev(p, b):
                    return True
            return False
        if isinstance(g, FoNot):
            return not ev(g.sub, b)
        if isinstance(g, FoExists):
            for v in dom:
                b2 = dict(b)
                b2[g.var] = v
                if ev(g.sub, b2):
                    return True
            return False
        if isinstance(g, FoForall):
            for v in dom:
                b2 = dict(b)
                b2[g.var] = v
                if not ev(g.sub, b2):
                    return False
            return True
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, dict(binding or {}))


def join_tree_exists(q: ConjunctiveQuery) -> bool:
    """Brute-force join-tree search: a tree over the atoms such that, for every
    variable, the atoms containing it induce a connected subtree."""
    atoms = list(q.atoms)
    n = len(atoms)
    if n <= 1:
        return True
    var_sets = [set(a.vars()) for a in atoms]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def connected(nodes: set[int], edges: list[tuple[int, int]]) -> bool:
        if not nodes:
            return True
        seen = {next(iter(nodes))}
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for i, j in edges:
                if i == cur and j in nodes and j not in seen:
                    seen.add(j)
                    frontier.append(j)
                elif j == cur and i in nodes and i not in seen:
                    seen.add(i)
                    frontier.append(i)
        return seen == nodes

    for tree_edges in itertools.combinations(pairs, n - 1):
        if not connected(set(range(n)), list(tree_edges)):
            continue
        all_vars = set().union(*var_sets)
        good = True
        for v in all_vars:
            hold = {i for i in range(n) if v in var_sets[i]}
            sub_edges = [(i, j) for i, j in tree_edges if i in hold and j in hold]
            if not connected(hold, sub_edges):
                good = False
                break
        if good:
            return True
    return False
