"""The chase: saturate an instance under TGDs, and the entailment oracles built on it.

Rounds are breadth-first: triggers are enumerated against the snapshot at the start of
the round and fired in a canonical order (rule index, then the lexicographic body match),
so runs are reproducible byte for byte.  Fresh nulls are named _n1, _n2, ... in firing
order.  For frontier-guarded rules the run also records, per generated fact, the guarded
set of the input instance its derivation hangs from; that map is a squid decomposition
of the result over the input.

Triggers are enumerated by `query.round_joins`, the round planner Datalog evaluation
shares: round 1 enumerates every trigger, and each later round only the triggers that use
a fact added by the previous round.  The firing order stays the same.  A trigger that uses
no new fact was enumerated in an earlier round, and when that round completed the trigger
had fired or was already satisfied (a budget stop ends the run, so no round resumes half
done).  Facts only grow, so the restricted mode would find it satisfied again.  Each
trigger is thus enumerated exactly once, and the oblivious mode fires every trigger it
enumerates.  A run holds one plan table for the rule bodies, so each join order is
planned once, and one head plan per rule, with the frontier bound, for the restricted
mode's check.  Its result keeps the relations the run built; the oracles evaluate
queries on them, and ``ChaseResult.result`` reads them as an instance when first read.

``TypeClosure`` computes, for guarded rules, exactly the facts over an instance's own
values and the constants that every chase of it derives, where a chase may never end.
A guarded chase is a tree whose child nodes are fixed by the facts over their own
terms, so those facts are a least fixpoint over finitely many node types (Calì,
Gottlob and Kifer, "Taming the Infinite Chase", KR 2008).  A closure holds one plan
table for as long as it lives, shared by all its nodes and rounds.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .model import (CONSTANT, ELEMENT, Fact, Instance, Signature, Value, active_domain,
                    is_guarded_set, minus, null)
from .query import (Atom, ConjunctiveQuery, Cst, JoinPlan, JoinPlans, Relation, Var, canon_inst,
                    check_cq, cq_answers, guard_index, match_atoms, round_joins,
                    _ordered_for_join)
# unused here, but the benchmark's traced mode wraps gnfkit.chase.classify
from .tgd import Tgd, classify, tgd_signature

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

TERMINATED = "terminated"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class ChaseConfig:
    mode: str = "restricted"  # "restricted" | "oblivious_dedup"
    max_rounds: int = 30
    max_facts: int = 10000

    def __post_init__(self):
        if self.mode not in ("restricted", "oblivious_dedup"):
            raise ValueError(f"unknown chase mode {self.mode!r}")
        if self.max_rounds < 1 or self.max_facts < 1:
            raise ValueError("chase budgets must be positive")


@dataclass
class ChaseResult:
    """A chase run: its facts by relation, and the instance it chased, whose
    signature and constants `result` reads them under."""
    relations: dict[str, Relation]
    source: Instance
    rounds_executed: int
    status: str
    # generated fact -> guarded set of the input it hangs from (frontier-guarded rules)
    tentacle_map: dict[Fact, Optional[frozenset[Value]]] = field(default_factory=dict)
    rules_frontier_guarded: bool = False

    @cached_property
    def result(self) -> Instance:
        """The facts as an instance, built when first read."""
        return Instance(self.source.sig, _facts(self.relations), self.source.const_interp)


def _facts(relations: Mapping[str, Relation]) -> list[Fact]:
    return [Fact(r, args) for r, rel in relations.items() for args in rel.tuples]


def _next_null_start(inst: Instance) -> int:
    mx = 0
    for v in active_domain(inst):
        m = v.name.startswith("_n") and re.fullmatch(r"_n(\d+)", v.name)
        if m:
            mx = max(mx, int(m.group(1)))
    return mx + 1


def _instantiate(atoms: Sequence[Atom], binding: Mapping[str, Value], const_of) -> list[Fact]:
    return [Fact(a.rel, tuple(const_of(x.name) if isinstance(x, Cst) else binding[x.name]
                              for x in a.args)) for a in atoms]


def chase(inst: Instance, rules: Sequence[Tgd], config: Optional[ChaseConfig] = None) -> ChaseResult:
    config = config or ChaseConfig()
    sig = inst.sig
    for t in rules:
        for a in list(t.body.atoms) + list(t.head.atoms):
            if a.rel not in sig.arities:
                raise ValueError(f"rule uses undeclared relation {a.rel}")
            if sig.arities[a.rel] != len(a.args):
                raise ValueError(f"arity mismatch on {a.rel} in rule {t}")
        for c in t.body.constants() | t.head.constants():
            if c not in inst.const_interp:
                raise ValueError(f"rule constant {c} not interpreted")

    cur = {r: Relation() for r in sig.arities}
    for f in inst.facts:
        cur[f.rel].add(f.args)
    n_facts = len(inst.facts)
    const_of = lambda c: inst.const_interp[c]

    guards = [guard_index(t.frontier(), t.body.atoms) for t in rules]
    bodies = [t.body.atoms for t in rules]
    plans: JoinPlans = {}
    head_plans = [JoinPlan(_ordered_for_join(t.head.atoms, t.frontier()), t.frontier())
                  for t in rules]
    # each fact the chase adds -> the guarded set of the input it hangs from
    origin: dict[Fact, Optional[frozenset[Value]]] = {}
    adom0 = active_domain(inst)
    consts = inst.const_values()

    null_k = _next_null_start(inst)
    status = BUDGET_EXHAUSTED
    rounds = 0
    delta: Optional[dict[str, Relation]] = None  # facts added by the previous round

    for rnd in range(1, config.max_rounds + 1):
        # every trigger is enumerated before any fires, so `cur` is the round's snapshot
        found: set[tuple[int, tuple[Value, ...]]] = set()
        for ri, plan, sources in round_joins(bodies, cur, delta, plans):
            free = rules[ri].body.free_vars
            for m in match_atoms(plan, sources, {}, const_of):
                found.add((ri, tuple(m[x] for x in free)))
        triggers = sorted(found, key=lambda tr: (tr[0], tuple(v.name for v in tr[1])))
        delta = {}

        added_this_round = 0
        fired_this_round = 0
        stop = False
        for ri, bvals in triggers:
            t = rules[ri]
            binding = dict(zip(t.body.free_vars, bvals))
            if config.mode == "restricted":
                seed = {x: binding[x] for x in t.frontier()}
                sources = [cur[a.rel] for a in head_plans[ri]]
                satisfied = next(match_atoms(head_plans[ri], sources, seed, const_of), None)
                if satisfied is not None:
                    continue
            fired_this_round += 1

            gi = guards[ri]
            org: Optional[frozenset[Value]] = None
            if gi is not None:
                gatom = t.body.atoms[gi]
                gargs = tuple(binding[x.name] if isinstance(x, Var) else const_of(x.name)
                              for x in gatom.args)
                gfact = Fact(gatom.rel, gargs)
                if set(gargs) <= adom0:
                    org = frozenset(gargs) - consts
                else:
                    org = origin.get(gfact)

            for z in t.head.exist_vars:
                binding[z] = null(f"_n{null_k}")
                null_k += 1
            for fct in _instantiate(t.head.atoms, binding, const_of):
                if cur[fct.rel].add(fct.args):
                    if fct.rel not in delta:
                        delta[fct.rel] = Relation()
                    delta[fct.rel].add(fct.args)
                    n_facts += 1
                    added_this_round += 1
                    origin[fct] = org
            if n_facts > config.max_facts:
                stop = True
                break

        if not added_this_round and not fired_this_round:
            status = TERMINATED
            break
        rounds = rnd
        if stop:
            break

    fg = all(g is not None for g in guards)
    return ChaseResult(cur, inst, rounds, status, origin, fg)


# ---------------------------------------------------------------------------
# the type closure of guarded rules

# a node type: its initial facts and its own values, those it shares with its
# parent (at the root, the input's); its other values are the nulls it made
_Type = tuple[frozenset[Fact], frozenset[Value]]


def _rename(f: Fact, ren: Mapping[Value, Value]) -> Fact:
    return Fact(f.rel, tuple(ren.get(v, v) for v in f.args))


class _Node:
    """A node type under saturation: its facts by relation, those added
    since it last published, the facts its children sent since it last ran,
    the child type each existential trigger (rule index, frontier values)
    read last, the facts over its own values and the constants that it has
    published, and the types of the nodes that read it, each with the map
    from its slots to the reader's values.  Readers are held by type, so no
    node refers to another and a dropped closure is freed at once."""

    __slots__ = ("key", "rels", "fresh", "pending", "triggers", "out", "readers", "started",
                 "queued")

    def __init__(self, key: _Type):
        self.key = key
        self.rels: dict[str, Relation] = defaultdict(Relation)
        for f in key[0]:
            self.rels[f.rel].add(f.args)
        self.fresh: list[Fact] = list(key[0])
        self.pending: list[Fact] = []
        self.triggers: dict[tuple[int, tuple[Value, ...]], Optional[_Type]] = {}
        self.out: list[Fact] = []
        self.readers: list[tuple[_Type, dict[Value, Value]]] = []
        self.started = False
        self.queued = True

    def add(self, facts: Iterable[Fact]) -> dict[str, Relation]:
        """Add the facts; those that were new, by relation."""
        delta: dict[str, Relation] = {}
        for f in facts:
            if self.rels[f.rel].add(f.args):
                delta.setdefault(f.rel, Relation()).add(f.args)
                self.fresh.append(f)
        return delta


class TypeClosure:
    """The facts over an instance's own values and the constants that every
    chase of it under guarded rules derives, exact where no chase ends.

    A node's type is its initial facts: at the root the instance; at a child
    the head of the existential rule that made it and the facts its parent
    holds over the frontier, with the frontier values renamed to slots
    ``#0``, ``#1``, ... and the nulls named by the rule's existential
    variables.  Constants are values of every node.  A node is saturated
    semi-naively under the rules, and each existential trigger adds back the
    facts over its frontier that the memo entry of its child's type holds;
    when the node's facts over that frontier grow, the trigger reads the
    entry of the larger type.  When an entry's facts over its own values
    grow, a worklist runs its readers again.  Types are finitely many, so
    the fixpoint is reached.  Each child type holds in its parent, so every
    fact found is derived by the chase, and a guarded chase is a tree of such
    nodes, so every fact it derives over the input is found.

    One closure serves any number of instances over the same constants: its
    memo of node types grows with each.
    """

    def __init__(self, rules: Sequence[Tgd], const_interp: Mapping[str, Value]):
        for t in rules:
            if guard_index(t.body.free_vars, t.body.atoms) is None:
                raise ValueError(f"rule is not guarded: {t}")
            for c in t.body.constants() | t.head.constants():
                if c not in const_interp:
                    raise ValueError(f"rule constant {c} not interpreted")
        if any(v.kind != CONSTANT for v in const_interp.values()):
            raise ValueError("the type closure needs constants interpreted as themselves")
        self._rules = list(rules)
        self._bodies = [t.body.atoms for t in rules]
        self._plans: JoinPlans = {}
        self._const_interp = dict(const_interp)
        self._consts = frozenset(const_interp.values())
        self._nodes: dict[_Type, _Node] = {}
        self._todo: list[_Node] = []

    def closure(self, inst: Instance) -> Instance:
        """The instance's facts, and those the rules derive, over its values
        and the constants."""
        if inst.const_interp != self._const_interp:
            raise ValueError("the instance interprets the constants otherwise")
        return Instance(inst.sig, _facts(self.close(inst.facts)), inst.const_interp)

    def close(self, facts: Collection[Fact]) -> Mapping[str, Relation]:
        """``closure`` of facts whose constants are interpreted as themselves,
        by relation: the root node's relations, which hold exactly the facts
        it publishes.  Callers only read them."""
        root = self._node(facts, {v for f in facts for v in f.args} - self._consts)
        while self._todo:
            self._saturate(self._todo.pop())
        return root.rels

    def _node(self, facts: Iterable[Fact], own: Iterable[Value]) -> _Node:
        key = (frozenset(facts), frozenset(own))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(key)
            self._todo.append(node)
        return node

    def _saturate(self, node: _Node) -> None:
        const_of = self._const_interp.__getitem__
        node.queued = False
        delta = node.add(node.pending) if node.started else None
        node.started, node.pending = True, []
        while True:
            if delta is not None and not delta:
                delta = node.add(self._read_children(node))
                if not delta:
                    break
            derived: list[Fact] = []
            for ri, plan, sources in round_joins(self._bodies, node.rels, delta, self._plans):
                t = self._rules[ri]
                for m in match_atoms(plan, sources, {}, const_of):
                    if t.head.exist_vars:
                        node.triggers.setdefault((ri, tuple(m[x] for x in t.frontier())), None)
                    else:
                        derived += _instantiate(t.head.atoms, m, const_of)
            delta = node.add(derived)
        self._publish(node)

    def _read_children(self, node: _Node) -> list[Fact]:
        """For each existential trigger whose child type changed since it
        was read, the facts the new type's entry holds, over the node's values."""
        const_of = self._const_interp.__getitem__
        got: list[Fact] = []
        for trigger, last in node.triggers.items():
            ri, fvals = trigger
            t = self._rules[ri]
            slot: dict[Value, Value] = {}
            for v in fvals:
                if v not in self._consts and v not in slot:
                    slot[v] = Value(ELEMENT, f"#{len(slot)}")
            shared = slot.keys() | self._consts
            facts = [Fact(rel, tuple(slot.get(v, v) for v in args))
                     for rel, r in node.rels.items() for args in r.tuples
                     if all(v in shared for v in args)]
            binding = {x: slot.get(v, v) for x, v in zip(t.frontier(), fvals)}
            binding.update((z, null(z)) for z in t.head.exist_vars)
            key = (frozenset(facts + _instantiate(t.head.atoms, binding, const_of)),
                   frozenset(slot.values()))
            if key == last:
                continue
            node.triggers[trigger] = key
            child = self._node(*key)
            back = {s: v for v, s in slot.items()}
            child.readers.append((node.key, back))
            got += [_rename(f, back) for f in child.out]
        return got

    def _publish(self, node: _Node) -> None:
        """Record the node's new facts over its own values and the constants,
        and send them to each reader, which runs again."""
        own = node.key[1] | self._consts
        new = [f for f in node.fresh if all(v in own for v in f.args)]
        node.fresh = []
        if not new:
            return
        node.out += new
        for key, back in node.readers:
            reader = self._nodes[key]
            reader.pending += [_rename(f, back) for f in new]
            if not reader.queued:
                reader.queued = True
                self._todo.append(reader)


def chase_entails_cq(inst: Instance, rules: Sequence[Tgd], q: ConjunctiveQuery,
                     ans: tuple[Value, ...],
                     config: Optional[ChaseConfig] = None) -> str:
    """Certain-answer membership for the tuple: sound 'yes' from the chase prefix,
    'no' only on termination."""
    if len(ans) != len(q.free_vars):
        raise ValueError("answer tuple arity mismatch")
    allowed = active_domain(inst) | inst.const_values()
    if not set(ans) <= allowed:
        raise ValueError("answer values must come from the instance")
    res = chase(inst, rules, config)
    check_cq(q, inst.sig, inst.const_interp)
    if cq_answers(q, res.relations, inst.const_interp.__getitem__, dict(zip(q.free_vars, ans))):
        return YES
    return NO if res.status == TERMINATED else UNKNOWN


def entails_tgd(rules: Sequence[Tgd], t: Tgd,
                config: Optional[ChaseConfig] = None,
                sig: Optional[Signature] = None) -> str:
    """Does the rule set entail the TGD?  Freeze the body, chase, test the head."""
    base = tgd_signature(list(rules) + [t], sig)
    inst, _ = canon_inst(t.body, base)
    frozen = tuple(Value("element", x) for x in t.frontier())
    return chase_entails_cq(inst, rules, t.head, frozen, config)


@dataclass(frozen=True)
class SaturationReport:
    verdict: str  # yes | no | unknown
    witness: Optional[Fact] = None


def _saturation(inst: Instance, rules: Sequence[Tgd], config: Optional[ChaseConfig],
                guarded_only: bool) -> SaturationReport:
    res = chase(inst, rules, config)
    allowed = active_domain(inst) | inst.const_values()
    missing = []
    for f in res.result.facts - inst.facts:
        if set(f.args) <= allowed:
            if guarded_only and not is_guarded_set(inst, set(f.args)):
                continue
            missing.append(f)
    if missing:
        # report the witness for the earliest-declared relation first
        order = {rel: i for i, rel in enumerate(inst.sig.arities)}
        missing.sort(key=lambda f: (order[f.rel], str(f)))
        return SaturationReport(NO, missing[0])
    if res.status == TERMINATED:
        return SaturationReport(YES)
    return SaturationReport(UNKNOWN)


def is_fact_saturated(inst: Instance, rules: Sequence[Tgd],
                      config: Optional[ChaseConfig] = None) -> SaturationReport:
    """Is every entailed fact over the instance's own values already present?"""
    return _saturation(inst, rules, config, guarded_only=False)


def is_guardedly_fact_saturated(inst: Instance, rules: Sequence[Tgd],
                                config: Optional[ChaseConfig] = None) -> SaturationReport:
    """Like is_fact_saturated, restricted to facts over guarded value sets."""
    return _saturation(inst, rules, config, guarded_only=True)


def tentacle_decomposition(res: ChaseResult, inst: Instance) -> list[frozenset[Fact]]:
    """Partition the new facts outside adom(input) by originating guarded set.

    Only meaningful for frontier-guarded rules (and a terminated run); together with
    the input this forms a squid decomposition of the chase result (checkable via
    model.squid_check).
    """
    if not res.rules_frontier_guarded:
        raise ValueError("tentacle decomposition needs a chase over frontier-guarded rules")
    rest = minus(res.result, inst).facts
    groups: dict[frozenset[Value], set[Fact]] = {}
    for f in rest:
        org = res.tentacle_map.get(f)
        if org is None:
            raise ValueError(f"fact {f} has no recorded origin")
        groups.setdefault(org, set()).add(f)
    return [frozenset(groups[k]) for k in sorted(groups, key=lambda s: sorted(v.name for v in s))]
