"""Datalog programs over an input signature: least-fixpoint evaluation and guard classes.

Evaluation is semi-naive, with its rounds planned by `query.round_joins`, the planner
the chase shares: a full rule under the chase is a Datalog rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Signature, Value
from .query import Atom, Cst, Relation, Var, guard_index, match_atoms, round_joins


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("rule body must be nonempty")
        body_vars = {v for a in self.body for v in a.vars()}
        if not set(self.head.vars()) <= body_vars:
            raise ValueError(f"head variables must occur in the body: {self}")

    def vars(self) -> set[str]:
        out = {v for a in self.body for v in a.vars()}
        out |= set(self.head.vars())
        return out

    def __str__(self):
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class DatalogProgram:
    """Rules deriving idb relations from an edb instance, with a designated goal.

    By convention the goal relation stays out of rule bodies in programs assembled
    from goal rules; programs that reuse a derived relation as the goal (the
    atomic-query rewriting does) are accepted as-is.
    """

    edb: Signature
    idb: Signature
    rules: tuple[Rule, ...]
    goal: str

    def __post_init__(self):
        overlap = set(self.edb.arities) & set(self.idb.arities)
        if overlap:
            raise ValueError(f"edb/idb overlap: {sorted(overlap)}")
        if self.goal not in self.idb.arities:
            raise ValueError(f"goal {self.goal} must be an idb relation")
        known = dict(self.edb.arities) | dict(self.idb.arities)
        for r in self.rules:
            if r.head.rel not in self.idb.arities:
                raise ValueError(f"rule head {r.head.rel} must be idb")
            for a in (r.head, *r.body):
                if a.rel not in known:
                    raise ValueError(f"undeclared relation {a.rel}")
                if known[a.rel] != len(a.args):
                    raise ValueError(f"arity mismatch on {a.rel}")


@dataclass(frozen=True)
class DatalogClass:
    guarded: bool
    internally_guarded: bool
    frontier_guarded: bool


def classify_datalog(p: DatalogProgram) -> DatalogClass:
    """Guard classes: an eligible guard is any single body atom covering the required
    variables.  Goal rules (goal-headed) are exempt for the internally-guarded class."""
    def has_guard(rule: Rule, needed: set[str]) -> bool:
        return guard_index(needed, rule.body) is not None

    guarded = all(has_guard(r, r.vars()) for r in p.rules)
    internally = all(has_guard(r, r.vars()) for r in p.rules if r.head.rel != p.goal)
    frontier = all(has_guard(r, set(r.head.vars())) for r in p.rules)
    return DatalogClass(guarded, internally, frontier)


def eval_datalog_fixpoint(p: DatalogProgram, inst: Instance) -> dict[str, set[tuple[Value, ...]]]:
    """Semi-naive least fixpoint; returns every idb relation's content."""
    if inst.sig != p.edb:
        missing = set(p.edb.arities) - set(inst.sig.arities)
        if missing or any(inst.sig.arities.get(r) != a for r, a in p.edb.arities.items()):
            raise ValueError("instance does not match the program's edb signature")
    for rule in p.rules:
        for a in (rule.head, *rule.body):
            for t in a.args:
                if isinstance(t, Cst) and t.name not in inst.const_interp:
                    raise ValueError(f"constant {t.name} not interpreted in the input instance")
    idb = {r: Relation() for r in p.idb.arities}
    relations = {r: Relation(f.args for f in inst.rel_facts(r)) for r in p.edb.arities} | idb
    bodies = [rule.body for rule in p.rules]
    const_of = inst.const_interp.__getitem__

    delta = None  # idb tuples added by the previous round
    while delta is None or delta:
        # every head tuple is collected before any is added, so the round's joins see
        # the relations and the delta as they were when it began
        heads: set[tuple[str, tuple[Value, ...]]] = set()
        for ri, order, sources in round_joins(bodies, relations, delta):
            head = p.rules[ri].head
            for m in match_atoms(order, sources, {}, const_of):
                heads.add((head.rel, tuple(m[t.name] if isinstance(t, Var) else const_of(t.name)
                                           for t in head.args)))
        delta = {}
        for rel, tup in heads:
            if idb[rel].add(tup):
                if rel not in delta:
                    delta[rel] = Relation()
                delta[rel].add(tup)
    return {r: rel.tuples for r, rel in idb.items()}


def eval_datalog(p: DatalogProgram, inst: Instance) -> set[tuple[Value, ...]]:
    """Goal tuples of the least fixpoint."""
    return eval_datalog_fixpoint(p, inst)[p.goal]
