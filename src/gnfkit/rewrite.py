"""Compiling certain-answer problems over guarded rule sets into Datalog.

All three compilation schemes run one pipeline: enumerate a capped space of
candidate rules, chase each distinct canonical candidate body once to certify
every candidate as a consequence of the input rules, keep exactly the
certified ones, assemble them into a program, and drop each program rule
that a kept rule subsumes.  The emitted program therefore carries a
certificate for every rule and is subsumption-minimal, and the returned
artifacts record the enumeration caps together with the verdict for every
candidate and every dropped rule.

The schemes, one per guardedness tier:

- ``rewrite_atomic_guarded``: atomic query + guarded rules -> guarded program;
- ``rewrite_cq_guarded``: conjunctive query + guarded rules -> internally
  guarded program (only goal rules may lack a guard);
- ``rewrite_fg``: answer-guarded query + frontier-guarded rules -> frontier
  guarded program, via guard-extension and query-extension predicates.

Programs run over copies of the input relations (one import rule per input
relation), so derived facts never touch input relation names.  Boolean goals
and other zero-argument derived predicates are represented as unary relations
holding the reserved constant ``_unit``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .chase import TERMINATED, ChaseConfig, chase
from .datalog import DatalogProgram, Rule, classify_datalog, eval_datalog
from .model import Fact, Instance, Signature, active_domain, align_instance, elem
# canonical_cq is unused here, but the benchmark's traced mode wraps it at this name
from .query import (RENAMING_CAP, Atom, BodyRenamings, ConjunctiveQuery, Cst, Term, Var,
                    atom_homomorphisms, body_renamings, canon_inst, canonical_cq,
                    canonical_renaming, core_cq, cq, cq_contained, eval_cq,
                    is_answer_guarded, pick_renaming, query_signature, substitute)
from .tgd import Tgd, classify, make_tgd, tgd_signature

ENTAILED = "entailed"
SUBSUMED = "subsumed"
REJECTED = "rejected"
UNKNOWN = "unknown"

COMPLETE_WITHIN_CAPS = "complete_within_caps"
CAPPED = "capped"

UNIT_CONST = "_unit"


# ---------------------------------------------------------------------------
# configuration and result types

@dataclass(frozen=True)
class RewriteConfig:
    """Caps for candidate enumeration plus the chase budget used to certify.

    ``k`` bounds the number of variables in derived queries and goal rules.
    Every step that uses it reads it from here; ``query_generation_rules`` and
    ``goal_rules`` also take a ``k`` argument, which overrides it.
    When neither is set, with ``body vars`` the largest variable count of a
    rule body (1 without rules) and ``query vars`` the query's variable count:

    - ``rewrite_cq_guarded`` and ``query_generation_rules`` use
      ``min(max(body vars, query vars, 1), max_k)``;
    - ``rewrite_fg`` uses ``max(min(max(body vars, 1), max_k), query vars)``,
      so the query's count is never clamped;
    - ``goal_rules`` uses ``max(query vars, 1)``;
    - ``rewrite_atomic_guarded`` does not use ``k``.

    The remaining caps bound the enumeration space itself; every produced
    artifact records the caps it was built under.  ``jobs`` (at least 1) is
    the number of processes that certify candidates.
    """

    k: Optional[int] = None
    max_relations: int = 4
    max_arity: int = 3
    max_k: int = 3
    max_extra_body_atoms: int = 2
    fg_max_extra_body_atoms: int = 1
    extra_atom_pool_limit: int = 12
    max_goal_premises: int = 3
    max_quotient_vars: int = 6
    oracle: ChaseConfig = ChaseConfig()
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class CertainAnswerProblem:
    """A rule set paired with a conjunctive query to answer over any input."""

    rules: tuple[Tgd, ...]
    query: ConjunctiveQuery
    name: str = ""


@dataclass(frozen=True)
class CertificationRecord:
    """One candidate rule and the verdict the certifying oracle reached."""

    candidate: str
    # entailed | rejected | unknown | subsumed (a program rule that a kept one
    # subsumes, under its program text; its kind is rule, goal-rule or import)
    verdict: str
    kind: str     # rule | query-rule | goal-rule | axiom | import


@dataclass
class CandidateSpace:
    candidates: tuple[Tgd, ...]
    caps: dict[str, int]
    capped: bool


@dataclass
class DerivationResult:
    """Certified full guarded consequences of a rule set."""

    rules: tuple[Tgd, ...]
    certification: tuple[CertificationRecord, ...]
    caps: dict[str, int]
    capped: bool


@dataclass
class QueryRulesResult:
    """Guarded rules deriving query-extension predicates, with certificates."""

    rules: tuple[Tgd, ...]
    certification: tuple[CertificationRecord, ...]
    query_predicates: dict[str, str]  # predicate name -> canonical query text
    caps: dict[str, int]
    capped: bool


@dataclass
class GoalRulesResult:
    """Goal rules assembling query-extension premises into answers."""

    rules: tuple[Rule, ...]
    certification: tuple[CertificationRecord, ...]
    query_predicates: dict[str, str]
    capped: bool


@dataclass
class GuardExtensionResult:
    """Projection predicates for every argument-position subset of each relation.

    The predicate for the full position set is declared for uniformity but
    needs no axioms: the relation itself plays that role.  The empty subset
    yields a unary predicate over the reserved constant ``_unit`` recording
    nonemptiness of the relation.
    """

    predicates: dict[tuple[str, tuple[int, ...]], str]
    axioms: tuple[Tgd, ...]
    signature: Signature


@dataclass
class RewriteArtifacts:
    """A compiled program plus everything needed to audit how it was built."""

    program: DatalogProgram
    certification: tuple[CertificationRecord, ...]
    caps: dict[str, int]
    capped: bool
    completeness: str  # complete_within_caps | capped
    query_predicates: dict[str, str]
    boolean_goal: bool
    answer_projection: tuple[int, ...]


# ---------------------------------------------------------------------------
# small combinatorial helpers

def _set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of the list; each class lists its members in input order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@lru_cache(maxsize=None)
def _position_patterns(arity: int) -> tuple[tuple[str, ...], ...]:
    """Variable patterns for an atom: every way to repeat variables across
    positions, named v0, v1, ... in first-occurrence order."""
    out: list[tuple[str, ...]] = []

    def rec(i: int, assignment: list[int], used: int):
        if i == arity:
            out.append(tuple(f"v{j}" for j in assignment))
            return
        for j in range(used + 1):
            rec(i + 1, assignment + [j], max(used, j + 1))

    rec(0, [], 0)
    return tuple(out)


def _atoms_over(rels: Sequence[tuple[str, int]], names: Sequence[str]) -> list[Atom]:
    out = []
    for rel, arity in rels:
        for combo in itertools.product(names, repeat=arity):
            out.append(Atom(rel, tuple(Var(v) for v in combo)))
    return out


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "'"
    return name


def _copy_map(sig: Signature) -> dict[str, str]:
    """A primed copy name per relation, fresh with respect to the signature."""
    used = set(sig.arities) | set(sig.constants)
    out = {}
    for rel in sig.arities:
        name = _fresh_name(rel + "'", used)
        used.add(name)
        out[rel] = name
    return out


def _family_head(name: str, frees: Sequence[str]) -> Atom:
    if frees:
        return Atom(name, tuple(Var(v) for v in frees))
    return Atom(name, (Cst(UNIT_CONST),))


# ---------------------------------------------------------------------------
# canonical forms

def _vars(atoms: Iterable[Atom]) -> list[str]:
    return sorted({v for a in atoms for v in a.vars()})


@lru_cache(maxsize=None)
def _cored_body(atoms: tuple[Atom, ...], kept_vars: frozenset[str]) -> tuple[Atom, ...]:
    """Core of a body, fixing the given variables (a rule's head variables)."""
    order = [v for a in atoms for v in a.vars()]
    frees = tuple(v for v in dict.fromkeys(order) if v in kept_vars)
    return tuple(core_cq(cq(frees, atoms)).atoms)


def _canonical_family_form(q: ConjunctiveQuery) -> tuple[str, ConjunctiveQuery, list[str]]:
    """Canonicalize a query up to renaming: core it, rename its answer
    variables to f0, f1, ... and the others to v0, v1, ...  Returns the
    canonical key, the canonical query, and the original answer variables in
    the order of the canonical ones."""
    cored = core_cq(q)
    atoms, _, ren = canonical_renaming(cored.atoms, [("f", cored.free_vars),
                                                     ("v", cored.exist_vars)])
    # every variable is renamed, so the answer variables become exactly f0, f1, ...
    frees = [f"f{i}" for i in range(len(cored.free_vars))]
    canonq = cq(frees, atoms)
    origin = {ren[x]: x for x in cored.free_vars}
    return f"({','.join(frees)}) {canonq}", canonq, [origin[f] for f in frees]


# ---------------------------------------------------------------------------
# candidate enumeration

# a candidate body with its guard's variables
_Body = tuple[tuple[Atom, ...], tuple[str, ...]]


class _Candidate(NamedTuple):
    body: tuple[Atom, ...]  # named, sorted by text
    head: Atom
    kind: str = "rule"  # rule | query-rule | axiom (entailed without a chase)
    query: Optional[ConjunctiveQuery] = None  # a query-rule's head stands for it

    @property
    def rule(self) -> Tgd:
        return make_tgd(list(self.body), [self.head])

    @staticmethod
    def of(t: Tgd, kind: str = "rule") -> "_Candidate":
        return _Candidate(t.body.atoms, t.head.atoms[0], kind)


def _enumeration_relations(sig: Signature, config: RewriteConfig) -> tuple[list[tuple[str, int]], bool]:
    rels = [(r, a) for r, a in sig.arities.items()]
    kept = [(r, a) for r, a in rels if a <= config.max_arity]
    capped = len(kept) < len(rels)
    if len(kept) > config.max_relations:
        kept = kept[:config.max_relations]
        capped = True
    return kept, capped


def _guarded_bodies(rels: Sequence[tuple[str, int]], max_extra: int,
                    config: RewriteConfig, k: int = 0) -> tuple[list[_Body], bool]:
    """All bodies consisting of a guard atom plus at most ``max_extra`` atoms
    over its variables and fresh ones w0, w1, ... up to ``k`` variables; each
    with the guard's variables."""
    capped = False
    bodies = []
    for rel, arity in rels:
        for pattern in _position_patterns(arity):
            guard = Atom(rel, tuple(Var(v) for v in pattern))
            gvars = tuple(dict.fromkeys(pattern))
            fresh = tuple(f"w{i}" for i in range(k - len(gvars)))
            pool = [a for a in _atoms_over(rels, gvars + fresh) if a != guard]
            if len(pool) > config.extra_atom_pool_limit:
                pool = pool[:config.extra_atom_pool_limit]
                capped = True
            top = min(max_extra, len(pool))
            for n in range(top + 1):
                for extra in itertools.combinations(pool, n):
                    bodies.append(((guard,) + extra, gvars))
    return bodies, capped


def _guarded_space(sig: Signature,
                   config: RewriteConfig) -> tuple[list[tuple[str, int]], list[_Body], bool]:
    """The relations and guarded bodies the guarded schemes enumerate over."""
    rels, capped = _enumeration_relations(sig, config)
    bodies, pool_capped = _guarded_bodies(rels, config.max_extra_body_atoms, config)
    return rels, bodies, capped or pool_capped


def _rule_candidates(bodies: Iterable[_Body],
                     heads: Sequence[tuple[str, int, Optional[ConjunctiveQuery]]]
                     ) -> dict[str, _Candidate]:
    """Every body with every head ``(relation, n, query)``, whose arguments
    are each n-tuple of the body's guard variables (``_unit`` when n is 0).
    A head standing for a query is judged by that query, and its body is
    kept uncored.  Each body is cored once per set of head variables, each
    cored body's renamings are listed once, and each head picks its own
    among them."""
    cands: dict[str, _Candidate] = {}
    prepared: dict[tuple[Atom, ...], BodyRenamings] = {}
    for body, gvars in bodies:
        atoms = tuple(sorted(set(body), key=str))
        cored: dict[Optional[frozenset[str]], tuple[tuple[Atom, ...], BodyRenamings]] = {}
        for rel, n, q in heads:
            for combo in itertools.product(gvars, repeat=n):
                head = _family_head(rel, combo)
                hvars = None if q is not None else frozenset(combo)
                if hvars not in cored:
                    b = atoms if hvars is None else _cored_body(atoms, hvars)
                    if b not in prepared:
                        prepared[b] = body_renamings(b, [("v", _vars(b))])
                    cored[hvars] = b, prepared[b]
                b, renamings = cored[hvars]
                if len(renamings[1]) > RENAMING_CAP:  # then the head orders the naming
                    renamings = body_renamings(b, [("v", renamings[1])], lead=[head])
                renamed, new_head, _, texts = pick_renaming(renamings, head)
                key = f"{', '.join(texts)} -> {new_head}"
                if key not in cands:
                    cands[key] = _Candidate(renamed, new_head,
                                            "rule" if q is None else "query-rule", q)
    return cands


def _inject_input_rules(rules: Sequence[Tgd], require_guarded: bool) -> list[Tgd]:
    """Input rules that already have the shape of program rules: full, and
    (when required) guarded.  Multi-atom heads split into one rule per atom,
    whose body is cored around the head variables and then named."""
    out = []
    for t in rules:
        if t.head.exist_vars:
            continue
        if require_guarded and not classify(t).guarded:
            continue
        for ha in t.head.atoms:
            atoms = _cored_body(tuple(sorted(set(t.body.atoms), key=str)), frozenset(ha.vars()))
            body, head, _ = canonical_renaming(atoms, [("v", _vars(atoms))], ha)
            out.append(make_tgd(list(body), [head]))
    return out


def _derivation_candidates(rules: Sequence[Tgd], sig: Signature, config: RewriteConfig
                           ) -> tuple[list[_Body], dict[str, _Candidate], bool]:
    """Guarded bodies, and full guarded candidates plus the input rules of
    that shape."""
    rels, bodies, capped = _guarded_space(sig, config)
    cands = _rule_candidates(bodies, [(r, a, None) for r, a in rels])
    for c in _inject_input_rules(rules, require_guarded=True):
        cands.setdefault(str(c), _Candidate.of(c))
    return bodies, cands, capped


def enumerate_full_guarded_candidates(sig: Signature, head_rel: Optional[str] = None,
                                      config: Optional[RewriteConfig] = None) -> CandidateSpace:
    """Every full guarded single-head rule over the signature, up to renaming,
    with cored bodies, within the configured enumeration caps."""
    config = config or RewriteConfig()
    if head_rel is not None and head_rel not in sig.arities:
        raise ValueError(f"undeclared head relation {head_rel}")
    rels, bodies, capped = _guarded_space(sig, config)
    cands = _rule_candidates(bodies, [(r, a, None) for r, a in rels
                                      if head_rel in (None, r)])
    return CandidateSpace(tuple(cands[s].rule for s in sorted(cands)),
                          _caps(config), capped)


# ---------------------------------------------------------------------------
# certification: chase each candidate body once, judge all heads against it

@lru_cache(maxsize=None)
def _closure_request(atoms: tuple[Atom, ...]
                     ) -> tuple[str, tuple[Atom, ...], tuple[tuple[str, str], ...]]:
    """The closure that certifies a body: its key, its canonical atoms, and
    the renaming of the body's variables into them."""
    canon, _, ren = canonical_renaming(atoms, [("v", _vars(atoms))])
    return " & ".join(str(a) for a in canon), canon, tuple(sorted(ren.items()))


def _closure_chunk(arg):
    rules, sig, items, oracle = arg
    out = []
    for key, atoms in items:
        inst, _ = canon_inst(cq([], list(atoms)), sig)
        res = chase(inst, list(rules), oracle)
        out.append((key, (res.status, res.result)))
    return out


def _verdict(cand: _Candidate, status: str, closure: Instance, ren: dict[str, str]) -> str:
    head = cand.head
    if cand.query is None:
        args = tuple(closure.const_interp[t.name] if isinstance(t, Cst)
                     else elem(ren.get(t.name, t.name)) for t in head.args)
        holds = Fact(head.rel, args) in closure
    else:
        binding = {f: elem(ren[t.name]) for f, t in zip(cand.query.free_vars, head.args)}
        holds = eval_cq(cand.query, closure, binding=binding)
    if holds:
        return ENTAILED
    return REJECTED if status == TERMINATED else UNKNOWN


def _certify(rules: Sequence[Tgd], sig: Signature, groups: Sequence[dict[str, _Candidate]],
             config: RewriteConfig) -> tuple[list[CertificationRecord], list[Tgd]]:
    """Chase each distinct canonical body once under the rules and judge every
    candidate against its closure; axioms are entailed without a chase.
    Returns the verdicts, group by group and each group in text order, and
    the entailed rules in the same order."""
    requests = {s: _closure_request(c.body)
                for group in groups for s, c in group.items() if c.kind != "axiom"}
    items = sorted({key: canon for key, canon, _ in requests.values()}.items())
    if config.jobs > 1 and len(items) > 1:
        # imported here: only this branch needs multiprocessing, and loading
        # it would slow every import of the package
        from concurrent.futures import ProcessPoolExecutor
        chunks = [items[i::config.jobs] for i in range(config.jobs)]
        args = [(tuple(rules), sig, chunk, config.oracle) for chunk in chunks if chunk]
        closures: dict[str, tuple[str, Instance]] = {}
        with ProcessPoolExecutor(max_workers=len(args)) as ex:
            for part in ex.map(_closure_chunk, args):
                closures.update(part)
    else:
        closures = dict(_closure_chunk((tuple(rules), sig, items, config.oracle)))
    records, kept = [], []
    for group in groups:
        for s in sorted(group):
            c = group[s]
            if c.kind == "axiom":
                verdict = ENTAILED
            else:
                key, _, ren = requests[s]
                verdict = _verdict(c, *closures[key], dict(ren))
            records.append(CertificationRecord(s, verdict, c.kind))
            if verdict == ENTAILED:
                kept.append(c.rule)
    return records, kept


def derive_full_guarded(rules: Sequence[Tgd], config: Optional[RewriteConfig] = None,
                        sig: Optional[Signature] = None) -> DerivationResult:
    """Chase-certified full guarded consequences of the rule set, within caps."""
    config = config or RewriteConfig()
    base = tgd_signature(list(rules), sig)
    _, cands, capped = _derivation_candidates(rules, base, config)
    records, kept = _certify(rules, base, [cands], config)
    return DerivationResult(tuple(kept), tuple(records), _caps(config), capped)


# ---------------------------------------------------------------------------
# query families: quotients of subqueries, canonicalized

def _quotients(query: ConjunctiveQuery,
               config: RewriteConfig) -> tuple[list[tuple[list[Atom], list[str]]], bool]:
    """Each variable quotient of the query as its distinct atoms and its
    answer variables.  Past ``max_quotient_vars`` only the identity quotient
    is taken, and the result is flagged as capped."""
    allvars = list(query.all_vars())
    capped = len(allvars) > config.max_quotient_vars
    out = []
    for part in [[[v] for v in allvars]] if capped else _set_partitions(allvars):
        rep = {v: Var(cls[0]) for cls in part for v in cls}
        out.append((list(dict.fromkeys(substitute(a, rep) for a in query.atoms)),
                    [rep[x].name for x in query.free_vars]))
    return out, capped


def _subquery(atoms: list[Atom], free: list[str], group: Sequence[int]) -> ConjunctiveQuery:
    """The atoms at the given indices, exposing the variables they share with
    the other atoms or with the answer."""
    sub = [atoms[i] for i in group]
    outside = {v for i, a in enumerate(atoms) if i not in group for v in a.vars()} | set(free)
    return cq([v for v in dict.fromkeys(v for a in sub for v in a.vars()) if v in outside], sub)


def _query_family(query: ConjunctiveQuery, k: int, config: RewriteConfig, used: set[str],
                  answer_guarded_only: bool = False
                  ) -> tuple[dict[str, ConjunctiveQuery], dict[str, str], bool]:
    """Queries relevant to answering the input query: take a variable quotient,
    keep a subset of its atoms, and expose the variables shared with the rest
    (plus answer variables).  Canonicalized and capped at k variables.
    Returns the family by canonical key, a predicate name per key (Q0, Q1,
    ... in key order, avoiding the used names) and whether it was capped."""
    quotients, capped = _quotients(query, config)
    family: dict[str, ConjunctiveQuery] = {}
    for atoms, free in quotients:
        for mask in range(1, 1 << len(atoms)):
            qsub = _subquery(atoms, free, [i for i in range(len(atoms)) if mask >> i & 1])
            if len(set(qsub.all_vars())) > k:
                continue
            key, canonq, _ = _canonical_family_form(qsub)
            if answer_guarded_only and not is_answer_guarded(canonq):
                continue
            family.setdefault(key, canonq)
    names = {}
    i = 0
    for key in sorted(family):
        while f"Q{i}" in used:
            i += 1
        names[key] = f"Q{i}"
        i += 1
    return family, names, capped


def _query_heads(family: dict[str, ConjunctiveQuery],
                 names: dict[str, str]) -> list[tuple[str, int, ConjunctiveQuery]]:
    return [(names[key], len(q.free_vars), q) for key, q in family.items()]


# ---------------------------------------------------------------------------
# query generation rules (guarded bodies deriving query-extension predicates)

def query_generation_rules(rules: Sequence[Tgd], query: ConjunctiveQuery,
                           k: Optional[int] = None,
                           config: Optional[RewriteConfig] = None) -> QueryRulesResult:
    """Guarded full rules deriving query-extension predicates: body B entails
    the predicate's query with the head arguments, certified by the chase."""
    config = config or RewriteConfig()
    sig = tgd_signature(list(rules), query_signature(query))
    k = k if k is not None else _default_k(rules, query, config)
    family, names, fam_capped = _query_family(query, k, config,
                                              set(sig.arities) | set(sig.constants))
    _, bodies, capped = _guarded_space(sig, config)
    records, kept = _certify(rules, sig, [_rule_candidates(bodies, _query_heads(family, names))],
                             config)
    return QueryRulesResult(tuple(kept), tuple(records), {names[key]: key for key in family},
                            _caps(config, k), fam_capped or capped)


# ---------------------------------------------------------------------------
# goal rules (conjunctions of query-extension predicates entailing the query)

def _goal_rules_impl(query: ConjunctiveQuery, k: int, names: dict[str, str], goal_name: str,
                     config: RewriteConfig) -> tuple[list[Rule], list[CertificationRecord], bool]:
    quotients, capped = _quotients(query, config)
    rules_out: dict[str, Rule] = {}
    records: dict[str, CertificationRecord] = {}
    for atoms, free in quotients:
        if len({v for a in atoms for v in a.vars()}) > k:
            continue
        for atom_part in _set_partitions(list(range(len(atoms)))):
            if len(atom_part) > config.max_goal_premises:
                continue
            premises = []
            for group in atom_part:
                key, _, args = _canonical_family_form(_subquery(atoms, free, group))
                if key not in names:
                    break
                premises.append(_family_head(names[key], args))
            else:
                rule = Rule(_family_head(goal_name, free), tuple(sorted(premises, key=str)))
                s = str(rule)
                if s in records:
                    continue
                verdict = ENTAILED if cq_contained(cq(tuple(free), atoms), query) else REJECTED
                records[s] = CertificationRecord(s, verdict, "goal-rule")
                if verdict == ENTAILED:
                    rules_out[s] = rule
    return ([rules_out[s] for s in sorted(rules_out)],
            [records[s] for s in sorted(records)], capped)


def goal_rules(query: ConjunctiveQuery, k: Optional[int] = None,
               config: Optional[RewriteConfig] = None,
               goal_name: str = "Goal") -> GoalRulesResult:
    """All goal rules over query-extension predicates whose premise conjunction
    is contained in the query (checked by the containment test)."""
    config = config or RewriteConfig()
    if k is None:
        k = config.k if config.k is not None else max(len(query.all_vars()), 1)
    sig = query_signature(query)
    family, names, fam_capped = _query_family(
        query, k, config, set(sig.arities) | set(sig.constants) | {goal_name})
    rules, records, capped = _goal_rules_impl(query, k, names, goal_name, config)
    return GoalRulesResult(tuple(rules), tuple(records), {names[key]: key for key in family},
                           capped or fam_capped)


# ---------------------------------------------------------------------------
# program assembly

def _default_k(rules: Sequence[Tgd], query: ConjunctiveQuery,
               config: RewriteConfig) -> int:
    """``config.k`` when set, else the cq-scheme default."""
    if config.k is not None:
        return config.k
    maxbody = max((len(t.body.free_vars) for t in rules), default=1)
    return min(max(maxbody, len(query.all_vars()), 1), config.max_k)


def _caps(config: RewriteConfig, k: Optional[int] = None,
          max_extra: str = "max_extra_body_atoms") -> dict[str, int]:
    """The enumeration caps a result was built under, led by k where used."""
    caps = {} if k is None else {"k": k}
    for name in ("max_relations", "max_arity", max_extra, "extra_atom_pool_limit"):
        caps[name] = getattr(config, name)
    return caps


def _completeness(capped: bool, records: Iterable[CertificationRecord]) -> str:
    if capped or any(r.verdict == UNKNOWN for r in records):
        return CAPPED
    return COMPLETE_WITHIN_CAPS


def _subsumes(general: Rule, specific: Rule) -> bool:
    """Whether the general rule's body maps into the specific rule's body by
    a homomorphism sending the general head exactly onto the specific one.
    Terms stand for themselves, so constants map only to themselves."""
    seed: dict[Term, Term] = {}
    for s, t in zip(general.head.args, specific.head.args):
        if (isinstance(s, Cst) and s != t) or seed.setdefault(s, t) != t:
            return False
    if not {a.rel for a in general.body} <= {a.rel for a in specific.body}:
        return False
    return next(atom_homomorphisms(general.body, specific.body, seed), None) is not None


def _prune_subsumed(rules: dict[str, Rule]) -> set[str]:
    """Of rules by text, the texts to keep.  Taken in order of (body size,
    text), a rule is dropped when a kept rule with its head relation
    subsumes it, and is otherwise kept in place of every kept rule it
    subsumes; a later rule can subsume an earlier one of the same size, as
    ``H(x) :- E(x,y)`` does ``H(x) :- E(x,x)``.  No kept rule then subsumes
    another, each dropped rule is subsumed by a kept one (subsumption
    composes), and of rules subsuming each other the least stays."""
    kept: dict[str, dict[str, Rule]] = {}
    for s, r in sorted(rules.items(), key=lambda item: (len(item[1].body), item[0])):
        same_head = kept.setdefault(r.head.rel, {})
        if any(_subsumes(k, r) for k in same_head.values()):
            continue
        for other in [other for other, k in same_head.items() if _subsumes(r, k)]:
            del same_head[other]
        same_head[s] = r
    return {s for same_head in kept.values() for s in same_head}


def _assemble(sig: Signature, copies: dict[str, str], query: ConjunctiveQuery, goal: str,
              derived: Iterable[Tgd], records: Iterable[CertificationRecord],
              caps: dict[str, int], capped: bool, *, goal_list: Iterable[Rule] = (),
              idb: Sequence[tuple[str, int]] = (),
              idb_if_used: Sequence[tuple[str, int]] = (),
              query_predicates: Optional[dict[str, str]] = None,
              projection: Optional[tuple[int, ...]] = None) -> RewriteArtifacts:
    """The program over relation copies: each certified rule that is not a
    tautology, moved onto the copies, the goal rules, and one import rule per
    input relation, less the rules a kept rule subsumes; each of those gets
    a ``subsumed`` record after the import records.  The idb declares the
    copies, then the relations of ``idb_if_used`` that some rule before the
    prune mentions, then ``idb``."""
    def onto_copies(a: Atom) -> Atom:
        return Atom(copies.get(a.rel, a.rel), a.args)

    prog_rules: dict[str, tuple[Rule, str]] = {}
    for t in derived:
        if t.head.atoms[0] not in t.body.atoms:
            r = Rule(onto_copies(t.head.atoms[0]), tuple(onto_copies(a) for a in t.body.atoms))
            prog_rules[str(r)] = r, "rule"
    for r in goal_list:
        prog_rules[str(r)] = r, "goal-rule"
    records = list(records)
    for rel, arity in sig.arities.items():
        args = tuple(Var(f"x{i}") for i in range(arity))
        r = Rule(Atom(copies[rel], args), (Atom(rel, args),))
        prog_rules[str(r)] = r, "import"
        records.append(CertificationRecord(str(r), ENTAILED, "import"))

    ordered = {s: prog_rules[s] for s in sorted(prog_rules)}
    atoms = [a for r, _ in ordered.values() for a in (r.head, *r.body)]
    referenced = {a.rel for a in atoms}
    idb_rels = ([(copies[rel], arity) for rel, arity in sig.arities.items()]
                + [(r, a) for r, a in idb_if_used if r in referenced] + list(idb))
    edb = sig
    if UNIT_CONST not in sig.constants and any(
            isinstance(t, Cst) and t.name == UNIT_CONST for a in atoms for t in a.args):
        edb = sig.extend(constants=(UNIT_CONST,))
    kept = _prune_subsumed({s: r for s, (r, _) in ordered.items()})
    records += [CertificationRecord(s, SUBSUMED, kind)
                for s, (_, kind) in ordered.items() if s not in kept]
    return RewriteArtifacts(
        program=DatalogProgram(edb, Signature(idb_rels),
                               tuple(r for s, (r, _) in ordered.items() if s in kept), goal),
        certification=tuple(records),
        caps=caps,
        capped=capped,
        completeness=_completeness(capped, records),
        query_predicates=query_predicates or {},
        boolean_goal=not query.free_vars,
        answer_projection=(tuple(range(len(query.free_vars))) if projection is None
                           else projection),
    )


# ---------------------------------------------------------------------------
# scheme 1: atomic queries under guarded rules

def _require_atomic(query: ConjunctiveQuery) -> Atom:
    if len(query.atoms) != 1:
        raise ValueError("atomic rewriting needs a single-atom query")
    a = query.atoms[0]
    if not all(isinstance(t, Var) for t in a.args):
        raise ValueError("atomic rewriting needs variable arguments")
    if len(set(t.name for t in a.args)) != len(a.args):
        raise ValueError("atomic rewriting needs pairwise distinct variables")
    if set(query.free_vars) != set(a.vars()):
        raise ValueError("atomic rewriting needs every variable free")
    return a


def rewrite_atomic_guarded(rules: Sequence[Tgd], query: ConjunctiveQuery,
                           config: Optional[RewriteConfig] = None) -> RewriteArtifacts:
    """Compile certain answers of an atomic query under guarded rules into a
    guarded Datalog program over relation copies."""
    config = config or RewriteConfig()
    qatom = _require_atomic(query)
    for t in rules:
        if not classify(t).guarded:
            raise ValueError(f"rule is not guarded: {t}")
    sig = tgd_signature(list(rules), query_signature(query))
    derivation = derive_full_guarded(rules, config, sig)
    copies = _copy_map(sig)
    positions = {t.name: i for i, t in enumerate(qatom.args)}
    return _assemble(sig, copies, query, copies[qatom.rel], derivation.rules,
                     derivation.certification, derivation.caps, derivation.capped,
                     projection=tuple(positions[x] for x in query.free_vars))


# ---------------------------------------------------------------------------
# scheme 2: conjunctive queries under guarded rules

def rewrite_cq_guarded(rules: Sequence[Tgd], query: ConjunctiveQuery,
                       config: Optional[RewriteConfig] = None) -> RewriteArtifacts:
    """Compile certain answers of a conjunctive query under guarded rules into
    an internally guarded program: guarded rules derive consequences and
    query-extension predicates; goal rules assemble the answers."""
    config = config or RewriteConfig()
    for t in rules:
        if not classify(t).guarded:
            raise ValueError(f"rule is not guarded: {t}")
    sig = tgd_signature(list(rules), query_signature(query))
    k = _default_k(rules, query, config)

    copies = _copy_map(sig)
    used = set(sig.arities) | set(sig.constants) | set(copies.values())
    goal_name = _fresh_name("Goal", used)
    family, names, fam_capped = _query_family(query, k, config, used | {goal_name})

    bodies, full_cands, body_capped = _derivation_candidates(rules, sig, config)
    query_cands = _rule_candidates(bodies, _query_heads(family, names))
    records, kept = _certify(rules, sig, [full_cands, query_cands], config)
    goal_list, goal_records, goal_capped = _goal_rules_impl(query, k, names, goal_name, config)

    capped = (k < len(query.all_vars()) or fam_capped or body_capped or goal_capped)
    art = _assemble(sig, copies, query, goal_name, kept, records + goal_records,
                    {**_caps(config, k), "max_goal_premises": config.max_goal_premises},
                    capped, goal_list=goal_list,
                    idb=[(goal_name, max(1, len(query.free_vars)))],
                    idb_if_used=[(names[key], max(1, len(family[key].free_vars)))
                                 for key in names],
                    query_predicates={names[key]: key for key in family})
    assert classify_datalog(art.program).internally_guarded
    return art


# ---------------------------------------------------------------------------
# guard extension predicates

def guard_extension_axioms(sig: Signature) -> GuardExtensionResult:
    """Projection predicates for every argument-position subset of each input
    relation, with axioms tying them to the relation in both directions."""
    used = set(sig.arities) | set(sig.constants)
    predicates: dict[tuple[str, tuple[int, ...]], str] = {}
    axioms: list[Tgd] = []
    new_rels: list[tuple[str, int]] = []
    for rel, arity in sig.arities.items():
        positions = list(range(1, arity + 1))
        subsets = [tuple(s) for size in range(arity + 1)
                   for s in itertools.combinations(positions, size)]
        for subset in subsets:
            suffix = "".join(str(p) for p in subset) or "0"
            name = _fresh_name(f"{rel}_p{suffix}", used)
            used.add(name)
            predicates[(rel, subset)] = name
            new_rels.append((name, max(1, len(subset))))
            if len(subset) == arity:
                continue  # the relation itself plays this role
            full_args = tuple(Var(f"x{i}") for i in positions)
            if subset:
                proj = tuple(Var(f"x{p}") for p in subset)
                axioms.append(make_tgd([Atom(rel, full_args)], [Atom(name, proj)]))
                axioms.append(make_tgd([Atom(name, proj)], [Atom(rel, full_args)]))
            else:
                axioms.append(make_tgd([Atom(rel, full_args)],
                                       [Atom(name, (Cst(UNIT_CONST),))]))
                axioms.append(make_tgd([Atom(name, (Var("u"),))],
                                       [Atom(rel, full_args)]))
    constants = () if UNIT_CONST in sig.constants else (UNIT_CONST,)
    extended = sig.extend(relations=new_rels, constants=constants)
    return GuardExtensionResult(predicates, tuple(axioms), extended)


# ---------------------------------------------------------------------------
# scheme 3: answer-guarded queries under frontier-guarded rules

def rewrite_fg(rules: Sequence[Tgd], query: ConjunctiveQuery,
               config: Optional[RewriteConfig] = None) -> RewriteArtifacts:
    """Compile certain answers of an answer-guarded query under frontier-guarded
    rules into a frontier-guarded program, using guard-extension and
    query-extension predicates to carry derived information."""
    config = config or RewriteConfig()
    for t in rules:
        if not classify(t).frontier_guarded:
            raise ValueError(f"rule is not frontier-guarded: {t}")
    if not is_answer_guarded(query):
        raise ValueError("query must be answer-guarded")
    base_sig = tgd_signature(list(rules), query_signature(query))
    maxbody = max((len(t.body.free_vars) for t in rules), default=1)
    if config.k is not None:
        k = config.k
    else:
        k = max(min(max(maxbody, 1), config.max_k), len(query.all_vars()))

    ext = guard_extension_axioms(base_sig)
    used = set(ext.signature.arities) | set(ext.signature.constants)
    ans_name = _fresh_name("Ans", used)
    family, names, fam_capped = _query_family(query, k, config, used | {ans_name},
                                              answer_guarded_only=True)

    # the theory: input rules, the answer rule, and axioms defining every
    # guard-extension and query-extension predicate in both directions
    theory = list(rules) + [make_tgd(list(query.atoms), [_family_head(ans_name, query.free_vars)])]
    theory += ext.axioms
    for key, name in names.items():
        canonq = family[key]
        head = _family_head(name, canonq.free_vars)
        back = head if canonq.free_vars else Atom(name, (Var("u"),))
        theory += [make_tgd(list(canonq.atoms), [head]), make_tgd([back], list(canonq.atoms))]
    extension_rels = ([(ans_name, max(1, len(query.free_vars)))]
                      + [(name, max(1, len(family[key].free_vars))) for key, name in names.items()]
                      + [(name, ext.signature.arities[name])
                         for name in sorted(set(ext.signature.arities) - set(base_sig.arities))])

    base_rels, rel_capped = _enumeration_relations(base_sig, config)
    rels = base_rels + [(r, a) for r, a in extension_rels if a <= config.max_arity]
    bodies, pool_capped = _guarded_bodies(rels, config.fg_max_extra_body_atoms, config, k)
    cands = _rule_candidates(bodies, [(r, a, None) for r, a in rels]
                             + [(r, 0, None) for r, a in rels if a == 1])
    for c in _inject_input_rules(theory, require_guarded=False):
        cands[str(c)] = _Candidate.of(c, "axiom")
    records, kept = _certify(theory, ext.signature.extend(relations=extension_rels),
                             [cands], config)

    capped = k < len(query.all_vars()) or fam_capped or rel_capped or pool_capped
    art = _assemble(base_sig, _copy_map(base_sig), query, ans_name, kept, records,
                    _caps(config, k, "fg_max_extra_body_atoms"), capped,
                    idb=extension_rels,
                    query_predicates={names[key]: key for key in family})
    assert classify_datalog(art.program).frontier_guarded
    return art


# ---------------------------------------------------------------------------
# the reference oracle and program evaluation

def certain_answers_oracle(rules: Sequence[Tgd], query: ConjunctiveQuery,
                           inst: Instance,
                           config: Optional[RewriteConfig] = None) -> tuple[frozenset, bool]:
    """Certain answers by chasing the instance and evaluating the query on the
    result, keeping tuples over the input's values only.  The second component
    reports whether the chase terminated (answers are complete) or the budget
    ran out (answers are a sound lower approximation)."""
    config = config or RewriteConfig()
    sig = tgd_signature(list(rules), query_signature(query, inst.sig))
    inst2 = Instance(sig, inst.facts, inst.const_interp)
    res = chase(inst2, list(rules), config.oracle)
    allowed = active_domain(inst2) | inst2.const_values()
    answers = frozenset(t for t in eval_cq(query, res.result)
                        if set(t) <= allowed)
    return answers, res.status == TERMINATED


def evaluate_program(artifacts: RewriteArtifacts, inst: Instance) -> set[tuple]:
    """Run a compiled program on an input instance and return the answers in
    the original query's free-variable order (Boolean queries: {()} or set())."""
    answers = eval_datalog(artifacts.program, align_instance(inst, artifacts.program.edb))
    if artifacts.boolean_goal:
        return {()} if answers else set()
    return {tuple(t[i] for i in artifacts.answer_projection) for t in answers}
