"""Datalog programs over an input signature: least-fixpoint evaluation and guard classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import Instance, Signature, Value
from .query import Atom, Relation, Var, match_atoms, _ordered_for_join


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

    def goal_arity(self) -> int:
        return self.idb.arities[self.goal]

    def __str__(self):
        lines = [f"edb {r}/{self.edb.arities[r]}." for r in self.edb.relations()]
        lines += [f"idb {r}/{self.idb.arities[r]}." for r in self.idb.relations()
                  if r != self.goal]
        lines.append(f"goal {self.goal}/{self.idb.arities[self.goal]}.")
        lines += sorted(str(r) for r in self.rules)
        return "\n".join(lines)


@dataclass(frozen=True)
class DatalogClass:
    guarded: bool
    internally_guarded: bool
    frontier_guarded: bool


def classify_datalog(p: DatalogProgram) -> DatalogClass:
    """Guard classes: an eligible guard is any single body atom covering the required
    variables.  Goal rules (goal-headed) are exempt for the internally-guarded class."""
    def has_guard(rule: Rule, needed: set[str]) -> bool:
        return not needed or any(needed <= set(a.vars()) for a in rule.body)

    guarded = all(has_guard(r, r.vars()) for r in p.rules)
    internally = all(has_guard(r, r.vars()) for r in p.rules if r.head.rel != p.goal)
    frontier = all(has_guard(r, set(r.head.vars())) for r in p.rules)
    return DatalogClass(guarded, internally, frontier)


def _resolve(inst: Instance, name: str) -> Value:
    if name not in inst.const_interp:
        raise ValueError(f"constant {name} not interpreted in the input instance")
    return inst.const_interp[name]


def eval_datalog_fixpoint(p: DatalogProgram, inst: Instance) -> dict[str, set[tuple[Value, ...]]]:
    """Semi-naive least fixpoint; returns every idb relation's content."""
    if inst.sig != p.edb:
        missing = set(p.edb.arities) - set(inst.sig.arities)
        if missing or any(inst.sig.arities.get(r) != a for r, a in p.edb.arities.items()):
            raise ValueError("instance does not match the program's edb signature")
    edb = {r: Relation(f.args for f in inst.rel_facts(r)) for r in p.edb.arities}
    full = {r: Relation() for r in p.idb.arities}
    const_of = lambda c: _resolve(inst, c)

    def source(a: Atom) -> Relation:
        return edb[a.rel] if a.rel in edb else full[a.rel]

    # rules write into `out`, never into `full` or the delta, so both are matched in place
    def run_rule(body: Sequence[Atom], sources: Sequence[Relation], rule: Rule,
                 out: dict[str, set[tuple[Value, ...]]]) -> None:
        for m in match_atoms(body, sources, {}, const_of):
            args = tuple(m[t.name] if isinstance(t, Var) else const_of(t.name)
                         for t in rule.head.args)
            out.setdefault(rule.head.rel, set()).add(args)

    def merge(new: dict[str, set[tuple[Value, ...]]]) -> dict[str, Relation]:
        delta: dict[str, Relation] = {}
        for r, tuples in new.items():
            for tup in tuples:
                if full[r].add(tup):
                    delta.setdefault(r, Relation()).add(tup)
        return delta

    # round 0: rules with edb-only bodies
    first: dict[str, set[tuple[Value, ...]]] = {}
    for rule in p.rules:
        if all(a.rel in edb for a in rule.body):
            body = _ordered_for_join(rule.body)
            run_rule(body, [edb[a.rel] for a in body], rule, first)
    delta = merge(first)

    # per rule and idb body position: that atom first, to be matched against the delta
    delta_runs = [(rule, [[a] + _ordered_for_join(rule.body[:i] + rule.body[i + 1:], a.vars())
                          for i, a in enumerate(rule.body) if a.rel in p.idb.arities])
                  for rule in p.rules]
    while delta:
        new: dict[str, set[tuple[Value, ...]]] = {}
        for rule, orders in delta_runs:
            for body in orders:
                if body[0].rel in delta:
                    run_rule(body, [delta[body[0].rel]] + [source(a) for a in body[1:]],
                             rule, new)
        delta = merge(new)
    return {r: rel.tuples for r, rel in full.items()}


def eval_datalog(p: DatalogProgram, inst: Instance) -> set[tuple[Value, ...]]:
    """Goal tuples of the least fixpoint."""
    return eval_datalog_fixpoint(p, inst)[p.goal]
