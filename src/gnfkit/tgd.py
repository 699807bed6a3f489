"""Tuple-generating dependencies: syntactic classes, model checks, head
decomposition, specialization and rewriting into tighter classes.

``disjunctive_holds_in`` is the one model check (``holds_in`` checks a TGD as a
disjunctive TGD with one head), and both rewritings into a tighter class,
``specialize_to_fg`` and ``to_acyclic_fg``, return a ``RuleRewriteResult``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import Instance, Signature
from .query import (Atom, ConjunctiveQuery, Cst, Term, Var, canonical_renaming, components, cq,
                    eval_cq, first_occurrence_vars, fresh_names, guard_index, is_acyclic,
                    is_answer_guarded, query_signature, substitute, treeify)


@dataclass(frozen=True)
class Tgd:
    """body(x,y) -> exists z: head(x,z); body variables are all universal."""

    body: ConjunctiveQuery
    head: ConjunctiveQuery

    def __post_init__(self):
        if self.body.exist_vars:
            raise ValueError("TGD body must not quantify variables")
        if not self.body.atoms or not self.head.atoms:
            raise ValueError("TGD needs nonempty body and head")
        if not set(self.head.free_vars) <= set(self.body.free_vars):
            raise ValueError("head frontier must come from body variables")
        if set(self.head.exist_vars) & set(self.body.free_vars):
            raise ValueError("head existentials clash with body variables")

    def frontier(self) -> tuple[str, ...]:
        return self.head.free_vars

    def __str__(self):
        body = ", ".join(str(a) for a in self.body.atoms)
        head = ", ".join(str(a) for a in self.head.atoms)
        if self.head.exist_vars:
            return f"{body} -> exists {','.join(self.head.exist_vars)}: {head}"
        return f"{body} -> {head}"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class DisjunctiveTgd:
    body: ConjunctiveQuery
    heads: tuple[ConjunctiveQuery, ...]

    def __post_init__(self):
        if not self.heads:
            raise ValueError("disjunctive TGD needs at least one head")

    def __str__(self):
        body = ", ".join(str(a) for a in self.body.atoms)
        return f"{body} -> " + " | ".join(f"({h})" for h in self.heads)


def make_tgd(body_atoms: Sequence[Atom], head_atoms: Sequence[Atom]) -> Tgd:
    """Build a TGD; frontier = body variables occurring in the head, in body order."""
    body_vars = first_occurrence_vars(body_atoms)
    body = ConjunctiveQuery(tuple(body_vars), (), tuple(body_atoms))
    head_used = {v for a in head_atoms for v in a.vars()}
    frontier = tuple(v for v in body_vars if v in head_used)
    head = cq(frontier, head_atoms)
    return Tgd(body, head)


def tgd_signature(rules: Iterable[Tgd], base: Optional[Signature] = None) -> Signature:
    sig = base
    for t in rules:
        sig = query_signature(t.body, sig)
        sig = query_signature(t.head, sig)
    if sig is None:
        raise ValueError("no rules and no base signature")
    return sig


@dataclass(frozen=True)
class TgdClass:
    full: bool
    guarded: bool
    frontier_guarded: bool
    acyclic_frontier_guarded: bool
    quasi_frontier_guarded: bool


def classify(t: Tgd) -> TgdClass:
    full = not t.head.exist_vars
    guarded = guard_index(t.body.free_vars, t.body.atoms) is not None
    fg = guard_index(t.frontier(), t.body.atoms) is not None
    acyclic_fg = False
    if fg:
        body_q = cq(t.frontier(), t.body.atoms)
        both_q = cq(t.frontier(), t.body.atoms + t.head.atoms)
        acyclic_fg = is_acyclic(body_q) and is_acyclic(both_q)
    return TgdClass(full, guarded, fg, acyclic_fg, is_quasi_frontier_guarded(t))


def tgd_graph(t: Tgd) -> list[tuple[int, int]]:
    """Edges between head-atom indices sharing an existential variable."""
    ex = set(t.head.exist_vars)
    edges = []
    for i, a in enumerate(t.head.atoms):
        for j in range(i + 1, len(t.head.atoms)):
            if set(a.vars()) & set(t.head.atoms[j].vars()) & ex:
                edges.append((i, j))
    return edges


def decompose_components(t: Tgd) -> list[Tgd]:
    """Split the head into its existential-sharing components; the conjunction of the
    results is equivalent to t."""
    out = []
    for comp in components(t.head.atoms, t.head.exist_vars):
        atoms = [t.head.atoms[i] for i in comp]
        out.append(make_tgd(t.body.atoms, atoms))
    return out


def is_quasi_frontier_guarded(t: Tgd) -> bool:
    """Every head component's universal variables fit inside one body atom."""
    body_vars = set(t.body.free_vars)
    for comp in components(t.head.atoms, t.head.exist_vars):
        uni = {v for i in comp for v in t.head.atoms[i].vars()} & body_vars
        if guard_index(uni, t.body.atoms) is None:
            return False
    return True


def holds_in(t: Tgd, inst: Instance) -> bool:
    """Model check: every body match extends to a head match."""
    return disjunctive_holds_in(DisjunctiveTgd(t.body, (t.head,)), inst)


def all_hold_in(rules: Iterable[Tgd], inst: Instance) -> bool:
    return all(holds_in(t, inst) for t in rules)


def disjunctive_holds_in(d: DisjunctiveTgd, inst: Instance) -> bool:
    """Model check: every body match extends to a match of some head."""
    for ans in eval_cq(d.body, inst):
        binding = dict(zip(d.body.free_vars, ans))
        ok = False
        for h in d.heads:
            seed = {x: binding[x] for x in h.free_vars if x in binding}
            if eval_cq(h, inst, binding=seed):
                ok = True
                break
        if not ok:
            return False
    return True


def canonical_tgd(t: Tgd) -> Tgd:
    """Canonical head-existential naming (``canonical_renaming``, keeping every
    body variable's name) and sorted atoms, for dedup."""
    head, _, _ = canonical_renaming(t.head.atoms, [("v", sorted(t.head.exist_vars))],
                                    kept=t.body.free_vars)
    body = cq(t.body.free_vars, sorted(dict.fromkeys(t.body.atoms), key=str))
    return Tgd(ConjunctiveQuery(body.free_vars, (), body.atoms), cq(t.head.free_vars, head))


def specializations(t: Tgd, constants: Iterable[str] = ()) -> list[Tgd]:
    """All substitution instances mapping each head existential to itself, a body
    variable, or a constant.  Each result entails t."""
    choices: list[list[Term]] = []
    ex = list(t.head.exist_vars)
    opts: list[Term] = [Var(x) for x in t.body.free_vars] + [Cst(c) for c in sorted(constants)]
    for z in ex:
        choices.append([Var(z)] + opts)
    out: dict[str, Tgd] = {}
    for combo in itertools.product(*choices):
        sub = dict(zip(ex, combo))
        atoms = [substitute(a, sub) for a in t.head.atoms]
        cand = canonical_tgd(make_tgd(t.body.atoms, atoms))
        out.setdefault(str(cand), cand)
    return [out[k] for k in sorted(out)]


def _head_for_body(body: ConjunctiveQuery, h: ConjunctiveQuery) -> Optional[ConjunctiveQuery]:
    """h as a head over this body: frees must be body variables, existentials freshened."""
    if not set(h.free_vars) <= set(body.free_vars):
        return None
    clashing = [z for z in h.exist_vars if z in body.free_vars]
    fresh = fresh_names("z", len(clashing), set(body.free_vars) | set(h.all_vars()))
    sub = {z: Var(n) for z, n in zip(clashing, fresh)}
    atoms = [substitute(a, sub) for a in h.atoms]
    frontier = tuple(x for x in body.free_vars if x in set(h.free_vars))
    return cq(frontier, atoms)


def select_disjunct(rules: Sequence[Tgd], d: DisjunctiveTgd, oracle_config=None) -> Optional[int]:
    """Index of a head disjunct entailed as a plain TGD by the rules, or None when the
    oracle cannot certify any within budget."""
    from .chase import entails_tgd
    for i, h in enumerate(d.heads):
        head = _head_for_body(d.body, h)
        if head is None:
            continue
        if entails_tgd(rules, Tgd(d.body, head), oracle_config) == "yes":
            return i
    return None


@dataclass
class RuleRewriteResult:
    """Rules rewritten into a tighter class, the input rules that could not be,
    and whether a treeification cap decided a failure."""

    rules: list[Tgd]
    failed: list[Tgd]
    capped: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed


def specialize_to_fg(rules: Sequence[Tgd], constants: Iterable[str] = (),
                     oracle_config=None) -> RuleRewriteResult:
    """For each rule, find a quasi-frontier-guarded specialization entailed by the rule
    set, and return the union of the frontier-guarded component decompositions."""
    from .chase import entails_tgd
    out: list[Tgd] = []
    failed: list[Tgd] = []
    for t in rules:
        chosen = None
        if is_quasi_frontier_guarded(t):
            chosen = t
        else:
            for cand in specializations(t, constants):
                if not is_quasi_frontier_guarded(cand):
                    continue
                if entails_tgd(rules, cand, oracle_config) == "yes":
                    chosen = cand
                    break
        if chosen is None:
            failed.append(t)
            continue
        out.extend(decompose_components(chosen))
    seen: dict[str, Tgd] = {}
    for t in map(canonical_tgd, out):
        seen.setdefault(str(t), t)
    return RuleRewriteResult([seen[k] for k in sorted(seen)], failed)


def to_acyclic_fg(rules: Sequence[Tgd], max_atoms: int, max_vars: int,
                  oracle_config=None) -> RuleRewriteResult:
    """Rewrite frontier-guarded rules into acyclic frontier-guarded rules when possible.

    Bodies and heads are replaced by members of their treeifications; body disjunction is
    expanded into separate rules, and a single entailed head disjunct is selected per
    body member via the entailment oracle.  Acyclic frontier-guarded rules are kept as
    they are.  Of the others, a rule that is not frontier-guarded, whose head is not
    answer-guarded, or whose body or head holds a constant fails without a cap: no
    treeification exists for it at any bound.
    """
    out: list[Tgd] = []
    failed: list[Tgd] = []
    capped = False
    for t in rules:
        cls = classify(t)
        if cls.acyclic_frontier_guarded:
            out.append(t)
            continue
        if (not cls.frontier_guarded or not is_answer_guarded(t.head)
                or t.body.constants() or t.head.constants()):
            failed.append(t)
            continue
        body_q = cq(t.frontier(), t.body.atoms)
        body_members = treeify(body_q, max_atoms, max_vars)
        head_members = treeify(t.head, max_atoms, max_vars)
        if not body_members or not head_members:
            failed.append(t)
            capped = True
            continue
        ok = True
        for b in body_members:
            bt = _cq_as_body(b)
            d = DisjunctiveTgd(bt, tuple(head_members))
            i = select_disjunct(rules, d, oracle_config)
            if i is None:
                ok = False
                break
            out.append(Tgd(bt, _head_for_body(bt, head_members[i])))
        if not ok:
            failed.append(t)
    return RuleRewriteResult(out, failed, capped)


def _cq_as_body(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Reopen a CQ's existentials as plain body variables (fresh names kept)."""
    return cq(list(q.free_vars) + list(q.exist_vars), q.atoms)
