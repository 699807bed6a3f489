"""Datalog programs over an input signature: least-fixpoint evaluation and guard classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import Instance, Signature, Value
from .query import Atom, Cst, Var, match_atoms, _ordered_for_join


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
    edb_tuples = {r: frozenset(f.args for f in inst.rel_facts(r)) for r in p.edb.arities}
    full: dict[str, set[tuple[Value, ...]]] = {r: set() for r in p.idb.arities}
    delta: dict[str, set[tuple[Value, ...]]] = {r: set() for r in p.idb.arities}
    const_of = lambda c: _resolve(inst, c)

    ordered = [(_ordered_for_join(r.body), r) for r in p.rules]

    # rules write into `out`, never into `full` or `delta`, so both are matched in place
    def run_rule(body: Sequence[Atom], rule: Rule, use_delta: Optional[int],
                 out: dict[str, set[tuple[Value, ...]]]) -> None:
        sources = []
        for i, a in enumerate(body):
            if a.rel in p.edb.arities:
                sources.append(edb_tuples[a.rel])
            elif use_delta is not None and i == use_delta:
                sources.append(delta[a.rel])
            else:
                sources.append(full[a.rel])
        for m in match_atoms(list(body), sources, {}, const_of):
            args = tuple(m[t.name] if isinstance(t, Var) else const_of(t.name)
                         for t in rule.head.args)
            out.setdefault(rule.head.rel, set()).add(args)

    # round 0: rules with edb-only bodies
    first: dict[str, set[tuple[Value, ...]]] = {}
    for body, rule in ordered:
        if all(a.rel in p.edb.arities for a in body):
            run_rule(body, rule, None, first)
    for r, tuples in first.items():
        fresh = tuples - full[r]
        full[r] |= fresh
        delta[r] |= fresh

    while any(delta.values()):
        new: dict[str, set[tuple[Value, ...]]] = {}
        for body, rule in ordered:
            idb_positions = [i for i, a in enumerate(body) if a.rel in p.idb.arities]
            for pos in idb_positions:
                if not delta[body[pos].rel]:
                    continue
                run_rule(body, rule, pos, new)
        delta = {r: set() for r in p.idb.arities}
        for r, tuples in new.items():
            fresh = tuples - full[r]
            full[r] |= fresh
            delta[r] |= fresh
    return full


def eval_datalog(p: DatalogProgram, inst: Instance) -> set[tuple[Value, ...]]:
    """Goal tuples of the least fixpoint."""
    return eval_datalog_fixpoint(p, inst)[p.goal]
