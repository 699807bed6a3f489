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
done).  Facts only grow, so the restricted mode would find it satisfied again, and the
oblivious mode's fired set would skip it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import (Fact, Instance, Signature, Value, active_domain,
                    is_guarded_set, minus, null)
from .query import (ConjunctiveQuery, Cst, Relation, Var, canon_inst, eval_cq,
                    match_atoms, round_joins, _ordered_for_join)
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
    result: Instance
    rounds_executed: int
    status: str
    # generated fact -> guarded set of the input it hangs from (frontier-guarded rules)
    tentacle_map: dict[Fact, Optional[frozenset[Value]]] = field(default_factory=dict)
    rules_frontier_guarded: bool = False


def _next_null_start(inst: Instance) -> int:
    mx = 0
    for v in active_domain(inst):
        m = re.fullmatch(r"_n(\d+)", v.name)
        if m:
            mx = max(mx, int(m.group(1)))
    return mx + 1


def _guard_atom_index(t: Tgd) -> Optional[int]:
    frontier = set(t.frontier())
    for i, a in enumerate(t.body.atoms):
        if frontier <= set(a.vars()):
            return i
    return None


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

    guards = [_guard_atom_index(t) for t in rules]
    bodies = [t.body.atoms for t in rules]
    head_order = [_ordered_for_join(t.head.atoms, t.frontier()) for t in rules]
    origin: dict[Fact, Optional[frozenset[Value]]] = {}
    adom0 = active_domain(inst)
    consts = inst.const_values()

    null_k = _next_null_start(inst)
    fired: set[tuple[int, tuple[Value, ...]]] = set()
    status = BUDGET_EXHAUSTED
    rounds = 0
    delta: Optional[dict[str, Relation]] = None  # facts added by the previous round

    for rnd in range(1, config.max_rounds + 1):
        # every trigger is enumerated before any fires, so `cur` is the round's snapshot
        found: set[tuple[int, tuple[Value, ...]]] = set()
        for ri, order, sources in round_joins(bodies, cur, delta):
            free = rules[ri].body.free_vars
            for m in match_atoms(order, sources, {}, const_of):
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
                sources = [cur[a.rel] for a in head_order[ri]]
                satisfied = next(match_atoms(head_order[ri], sources, seed, const_of), None)
                if satisfied is not None:
                    continue
            else:
                key = (ri, bvals)
                if key in fired:
                    continue
                fired.add(key)
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

            fresh = {}
            for z in t.head.exist_vars:
                fresh[z] = null(f"_n{null_k}")
                null_k += 1
            for a in t.head.atoms:
                args = []
                for x in a.args:
                    if isinstance(x, Cst):
                        args.append(const_of(x.name))
                    elif x.name in fresh:
                        args.append(fresh[x.name])
                    else:
                        args.append(binding[x.name])
                fct = Fact(a.rel, tuple(args))
                if cur[fct.rel].add(fct.args):
                    delta.setdefault(fct.rel, Relation()).add(fct.args)
                    n_facts += 1
                    added_this_round += 1
                    origin.setdefault(fct, org)
            if n_facts > config.max_facts:
                stop = True
                break

        if added_this_round or fired_this_round:
            rounds = rnd
        if stop:
            status = BUDGET_EXHAUSTED
            break
        if not added_this_round and not fired_this_round:
            status = TERMINATED
            rounds = rnd - 1
            break

    facts = [Fact(r, args) for r, s in cur.items() for args in s.tuples]
    result = Instance(sig, facts, inst.const_interp)
    new_facts = result.facts - inst.facts
    tentacle_map = {f: origin.get(f) for f in new_facts}
    fg = all(g is not None for g in guards)
    return ChaseResult(result, rounds, status, tentacle_map, fg)


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
    binding = dict(zip(q.free_vars, ans))
    if eval_cq(q, res.result, binding=binding):
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
