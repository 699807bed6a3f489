"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in the most direct style possible —
exhaustive enumeration, linear scans, no indexing, no shared helpers from the
package internals — so that agreement with the package is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterator, Mapping, Optional, Sequence

from gnfkit.bisim import _is_partial_iso, _val_key, guarded_tuples
from gnfkit.chase import BUDGET_EXHAUSTED, TERMINATED, ChaseConfig, ChaseResult
from gnfkit.datalog import DatalogProgram, Rule
from gnfkit.model import (BudgetExceeded, Fact, Homomorphism, Instance, Signature, Value,
                          const, elem, find_homomorphism, guarded_sets)
from gnfkit.query import (Atom, ConjunctiveQuery, Cst, Var, canon_inst, canonical_cq,
                          canonical_renaming, core_cq, cq, cq_contained, fresh_names,
                          is_acyclic, is_answer_guarded, query_signature)
from gnfkit.tgd import Tgd, make_tgd
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


def naive_eval_datalog(p: DatalogProgram, inst: Instance) -> dict[str, set[tuple[Value, ...]]]:
    """Every idb relation's least fixpoint: apply each rule under every
    assignment of its variables into the instance values, until a pass over
    all rules derives nothing new."""
    vals = _values_of(inst)
    state = {r: {f.args for f in inst.facts if f.rel == r} for r in p.edb.arities}
    state.update({r: set() for r in p.idb.arities})

    def image(a: Atom, asg: dict[str, Value]) -> tuple[Value, ...]:
        return tuple(asg[t.name] if isinstance(t, Var) else inst.const_interp[t.name]
                     for t in a.args)

    changed = True
    while changed:
        changed = False
        for rule in p.rules:
            names = sorted(rule.vars())
            for combo in itertools.product(vals, repeat=len(names)):
                asg = dict(zip(names, combo))
                if not all(image(a, asg) in state[a.rel] for a in rule.body):
                    continue
                head = image(rule.head, asg)
                if head not in state[rule.head.rel]:
                    state[rule.head.rel].add(head)
                    changed = True
    return {r: state[r] for r in p.idb.arities}


def _scan_join(atoms: Sequence[Atom], facts: dict[str, set[tuple[Value, ...]]],
               binding: dict[str, Value], inst: Instance) -> Iterator[dict[str, Value]]:
    """Every extension of `binding` matching the atoms left to right, each
    against a full scan of its relation."""
    if not atoms:
        yield dict(binding)
        return
    a = atoms[0]
    for tup in list(facts[a.rel]):
        asg = dict(binding)
        ok = True
        for t, v in zip(a.args, tup):
            if isinstance(t, Cst):
                ok = inst.const_interp[t.name] == v
            elif asg.setdefault(t.name, v) != v:
                ok = False
            if not ok:
                break
        if ok:
            yield from _scan_join(atoms[1:], facts, asg, inst)


def naive_chase(inst: Instance, rules: Sequence[Tgd],
                config: Optional[ChaseConfig] = None) -> ChaseResult:
    """The breadth-first chase with every trigger re-enumerated each round by
    full scans: triggers are matched against the round's snapshot, sorted by
    (rule index, body match names) and fired in that order, nulls are named
    _n1, _n2, ... in firing order, and each generated fact records the
    guarded input set its rule's frontier guard hangs from."""
    config = config or ChaseConfig()
    facts = {r: set() for r in inst.sig.arities}
    for f in inst.facts:
        facts[f.rel].add(f.args)
    n_facts = len(inst.facts)
    adom0 = {v for f in inst.facts for v in f.args}
    consts = set(inst.const_interp.values())
    null_k = 1 + max((int(m.group(1)) for v in adom0
                      for m in [re.fullmatch(r"_n(\d+)", v.name)] if m), default=0)

    guards = []
    for t in rules:
        frontier = set(t.frontier())
        guards.append(next((i for i, a in enumerate(t.body.atoms)
                            if frontier <= set(a.vars())), None))
    origin: dict[Fact, Optional[frozenset[Value]]] = {}
    fired: set[tuple[int, tuple[Value, ...]]] = set()
    status = BUDGET_EXHAUSTED
    rounds = 0
    for rnd in range(1, config.max_rounds + 1):
        triggers = []
        for ri, t in enumerate(rules):
            for m in _scan_join(t.body.atoms, facts, {}, inst):
                triggers.append((ri, tuple(m[x] for x in t.body.free_vars)))
        triggers.sort(key=lambda tr: (tr[0], tuple(v.name for v in tr[1])))

        added = fired_now = 0
        stop = False
        for ri, bvals in triggers:
            t = rules[ri]
            binding = dict(zip(t.body.free_vars, bvals))
            if config.mode == "restricted":
                seed = {x: binding[x] for x in t.frontier()}
                if next(_scan_join(t.head.atoms, facts, seed, inst), None) is not None:
                    continue
            else:
                if (ri, bvals) in fired:
                    continue
                fired.add((ri, bvals))
            fired_now += 1

            org = None
            if guards[ri] is not None:
                gatom = t.body.atoms[guards[ri]]
                gargs = tuple(binding[x.name] if isinstance(x, Var)
                              else inst.const_interp[x.name] for x in gatom.args)
                if set(gargs) <= adom0:
                    org = frozenset(gargs) - consts
                else:
                    org = origin.get(Fact(gatom.rel, gargs))
            for z in t.head.exist_vars:
                binding[z] = Value("null", f"_n{null_k}")
                null_k += 1
            for a in t.head.atoms:
                args = tuple(inst.const_interp[x.name] if isinstance(x, Cst)
                             else binding[x.name] for x in a.args)
                if args not in facts[a.rel]:
                    facts[a.rel].add(args)
                    n_facts += 1
                    added += 1
                    origin.setdefault(Fact(a.rel, args), org)
            if n_facts > config.max_facts:
                stop = True
                break

        if added or fired_now:
            rounds = rnd
        if stop:
            break
        if not added and not fired_now:
            status = TERMINATED
            rounds = rnd - 1
            break

    result = Instance(inst.sig, [Fact(r, args) for r, s in facts.items() for args in s],
                      inst.const_interp)
    tentacle_map = {f: origin.get(f) for f in result.facts - inst.facts}
    return ChaseResult(result, rounds, status, tentacle_map,
                       all(g is not None for g in guards))


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


def naive_countermodel(f: FoFormula, max_size: int) -> Optional[tuple[Instance, list[Value]]]:
    """A structure of the least size up to `max_size` that falsifies the
    sentence `f`, with its domain, or None.  Tries, for k = 1, 2, ..., every
    interpretation of the constants and every set of facts over the elements
    e1..ek, with no symmetry reduction."""
    rels: dict[str, int] = {}
    consts: set[str] = set()

    def walk(g) -> None:
        if isinstance(g, (FoAnd, FoOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, (FoNot, FoExists, FoForall)):
            walk(g.sub)
        else:
            terms = g.args if isinstance(g, Atom) else (g.left, g.right)
            if isinstance(g, Atom):
                rels[g.rel] = len(g.args)
            consts.update(t.name for t in terms if isinstance(t, Cst))

    walk(f)
    sig = Signature(sorted(rels.items()), sorted(consts))
    for k in range(1, max_size + 1):
        dom = [elem(f"e{i + 1}") for i in range(k)]
        facts = [Fact(r, args) for r in sorted(rels)
                 for args in itertools.product(dom, repeat=rels[r])]
        for values in itertools.product(dom, repeat=len(consts)):
            interp = dict(zip(sorted(consts), values))
            for chosen in itertools.product((False, True), repeat=len(facts)):
                inst = Instance(sig, [fa for fa, c in zip(facts, chosen) if c], interp)
                if not naive_eval_fo(f, inst, domain=dom):
                    return inst, dom
    return None


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


def naive_rule_candidates(bodies: Sequence[tuple[Sequence[Atom], Sequence[str]]],
                          heads: Sequence[tuple[str, int, Optional[ConjunctiveQuery]]]
                          ) -> dict[str, tuple[Tgd, str, Optional[ConjunctiveQuery]]]:
    """Rule candidates named one at a time: every body with every head
    ``(relation, n, query)`` over each n-tuple of the body's guard variables
    (the constant ``_unit`` when n is 0).  The body's distinct atoms are
    renamed together with the head by ``canonical_renaming``.  Maps each rule
    text, in order of first appearance, to the first (rule, kind, query) with
    it."""
    out: dict[str, tuple[Tgd, str, Optional[ConjunctiveQuery]]] = {}
    for body, gvars in bodies:
        for rel, n, q in heads:
            for combo in itertools.product(gvars, repeat=n):
                head = Atom(rel, tuple(Var(v) for v in combo) or (Cst("_unit"),))
                atoms = sorted(set(body), key=str)
                names = sorted({v for a in atoms for v in a.vars()})
                renamed, new_head, _ = canonical_renaming(atoms, [("v", names)], head)
                rule = make_tgd(list(renamed), [new_head])
                out.setdefault(str(rule), (rule, "rule" if q is None else "query-rule", q))
    return out


def naive_subsumes(general: Rule, specific: Rule) -> bool:
    """Whether the general rule subsumes the specific one: a homomorphism from
    the canonical instance of its body into that of the specific body, seeded
    to send its head arguments onto the specific head's, with constants fixed."""
    if general.head.rel != specific.head.rel:
        return False
    seed: dict[Value, Value] = {}
    for s, t in zip(general.head.args, specific.head.args):
        if isinstance(s, Cst):
            if s != t:
                return False
            continue
        image = elem(t.name) if isinstance(t, Var) else const(t.name)
        if seed.setdefault(elem(s.name), image) != image:
            return False
    return find_homomorphism(_body_instance(general.body), _body_instance(specific.body),
                             seed) is not None


@functools.lru_cache(maxsize=None)
def _body_instance(body: tuple[Atom, ...]) -> Instance:
    return canon_inst(cq([], body))[0]


def naive_hom_search(constraints, seed: Mapping, budget: Optional[int] = None) -> Iterator[dict]:
    """Constraint-first backtracking that filters every remaining
    constraint's images against the whole assignment at every node: the
    first constraint with the fewest consistent images is tried next, its
    images in name order, and one budget node is one tentative image."""
    cons = [(args, sorted((t for t in images if len(set(zip(args, t))) == len(set(args))),
                          key=lambda t: tuple(v.name for v in t)))
            for args, images in constraints]
    dom = {v for args, _ in cons for v in args}
    assign = dict(seed)
    nodes = 0

    def extend(remaining: list) -> Iterator[dict]:
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


def naive_back_and_forth(family, gs_a, gs_b) -> set:
    """The maps of `family` (tuples of pairs) that pass forth and back:
    for every guarded set of `a`, some member with that domain agrees with
    the map on the overlap, found by scanning all such members; likewise
    for `b` with codomains and inverses."""
    def agrees(g: dict, sets, members: list[dict]) -> bool:
        for xs in sets:
            shared = [v for v in xs if v in g]
            if not any(set(m) == set(xs) and all(m[v] == g[v] for v in shared)
                       for m in members):
                return False
        return True

    fwd = [dict(items) for items in family]
    bwd = [{t: s for s, t in items} for items in family]
    return {items for items in family
            if agrees(dict(items), gs_a, fwd) and agrees({t: s for s, t in items}, gs_b, bwd)}


def naive_initial_family(a: Instance, b: Instance) -> set:
    """Every partial isomorphism (constants pinned) from a guarded set of
    `a`, in name order, onto a guarded set of `b`, found by testing every
    permutation of every equal-size pair of sets."""
    gs_a = sorted(guarded_sets(a), key=lambda s: (len(s), sorted(v.name for v in s)))
    gs_b = sorted(guarded_sets(b), key=lambda s: (len(s), sorted(v.name for v in s)))
    family = set()
    for xs in gs_a:
        xs_sorted = sorted(xs, key=_val_key)
        for ys in gs_b:
            if len(ys) != len(xs):
                continue
            for perm in itertools.permutations(sorted(ys, key=_val_key)):
                items = tuple(zip(xs_sorted, perm))
                if _is_partial_iso(a, b, items):
                    family.add(items)
    return family


def naive_initial_pairs(a: Instance, b: Instance) -> set:
    """All well-typed guarded-tuple pairs: equal length, and the positional
    map (with constants pinned) is a partial isomorphism, found by testing
    every length-matched pair."""
    gtb_by_len = {}
    for tb in guarded_tuples(b):
        gtb_by_len.setdefault(len(tb), []).append(tb)
    out = set()
    for ta in guarded_tuples(a):
        for tb in gtb_by_len.get(len(ta), ()):
            if _is_partial_iso(a, b, zip(ta, tb)):
                out.add((ta, tb))
    return out


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


def naive_treeify(q: ConjunctiveQuery, max_atoms: int, max_vars: int,
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
