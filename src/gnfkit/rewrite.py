"""Compiling certain-answer problems over guarded rule sets into Datalog.

All three compilation schemes run one pipeline: enumerate a capped space of
candidate bodies and heads, chase each distinct candidate body once, in
canonical form, read off its closure the heads it entails, name a rule for
each of those, assemble the certified rules into a program, and drop each
program rule that a kept rule subsumes.  Bodies are named as enumerated, not
cored: a rule and the rule over its body's core subsume each other, and the
prune keeps the one over the core, which has fewer atoms, whenever both are
enumerated.  The emitted program therefore carries a certificate for every
rule and is subsumption-minimal, and the returned artifacts record the
enumeration caps together with the verdict for every candidate and every
dropped rule.

A compile names only the candidates its program and its completeness need:
the entailed heads that are not in their body, and every head of a body
whose chase stopped at its budget (those not entailed are ``unknown``).
The certification trail, which lists every candidate with its verdict, is
produced when it is first read, by the same naming over the same bodies.

The schemes, one per guardedness tier:

- ``rewrite_atomic_guarded``: atomic query + guarded rules -> guarded program;
- ``rewrite_cq_guarded``: conjunctive query + guarded rules -> internally
  guarded program (only goal rules may lack a guard);
- ``rewrite_fg``: answer-guarded query + frontier-guarded rules -> frontier
  guarded program.  On guarded rules it is the cq scheme; only a rule set
  with an unguarded rule goes through fg's own construction, with
  guard-extension and query-extension predicates.

The cq scheme certifies, in one pass over the guarded bodies, the full
guarded candidates and the rules deriving query-extension predicates, so
each body is prepared and chased once; its trail lists the full-rule
records first, exactly the atomic scheme's over the same signature, then
the query-rule records, then the goal rules (conjunctions of
query-extension predicates).  A goal rule's premises conjoin to a variable
quotient of the query, onto which the quotient map sends the query and its
answers, so every goal rule is entailed by construction.  Any cap that
drops a candidate body, a query quotient, a subquery past ``k`` variables
or a goal-premise partition marks the result ``capped``, in each scheme.

Programs run over copies of the input relations (one import rule per input
relation), so derived facts never touch input relation names.  Boolean goals
and other zero-argument derived predicates are represented as unary relations
holding the reserved constant ``_unit``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .chase import TERMINATED, ChaseConfig, chase
from .datalog import DatalogProgram, Rule, classify_datalog, eval_datalog
from .model import ELEMENT, Fact, Instance, Signature, active_domain, align_instance
# canonical_cq and cq_contained are unused here, but the benchmark's traced
# mode wraps them at these names
from .query import (RENAMING_CAP, Atom, ConjunctiveQuery, Cst, Term, Var,
                    atom_homomorphisms, body_renamings, canon_inst, canonical_cq,
                    canonical_renaming, core_cq, cq, cq_contained, eval_cq,
                    first_occurrence_vars, is_answer_guarded, pick_renaming,
                    query_signature, substitute)
from .tgd import Tgd, classify, make_tgd, tgd_signature

ENTAILED = "entailed"
SUBSUMED = "subsumed"
REJECTED = "rejected"
UNKNOWN = "unknown"

COMPLETE_WITHIN_CAPS = "complete_within_caps"
CAPPED = "capped"

UNIT_CONST = "_unit"

# Enumeration caps that no caller varies.  Artifacts record each cap they
# were built under by its lower-cased name; MAX_K and MAX_QUOTIENT_VARS are
# recorded through k and the capped flag instead.
MAX_RELATIONS = 4            # relations past this many are left out
MAX_ARITY = 3                # relations of higher arity are left out
MAX_K = 3                    # caps the default k (see ``RewriteConfig``)
MAX_EXTRA_BODY_ATOMS = 2     # extra body atoms beside a guard
FG_MAX_EXTRA_BODY_ATOMS = 1  # extra body atoms in fg's extension construction
EXTRA_ATOM_POOL_LIMIT = 12   # extra atoms a guard may draw from
MAX_QUOTIENT_VARS = 6        # past this many query variables, no quotients
MAX_GOAL_PREMISES = 3        # premises of a goal rule


# ---------------------------------------------------------------------------
# configuration and result types

@dataclass(frozen=True)
class RewriteConfig:
    """The variable bound ``k`` and the chase budget used to certify.

    ``k`` bounds the number of variables in derived queries and goal rules.
    A ``k`` below the query's variable count marks the compile ``capped``.
    When it is not set, with ``body vars`` the largest variable count of a
    rule body (1 without rules) and ``query vars`` the query's variable
    count:

    - ``rewrite_cq_guarded`` uses ``min(max(body vars, query vars, 1), MAX_K)``;
    - ``rewrite_fg`` uses ``max(min(max(body vars, 1), MAX_K), query vars)``,
      so the query's count is never clamped; on guarded rules it passes that
      ``k`` to ``rewrite_cq_guarded``;
    - ``rewrite_atomic_guarded`` does not use ``k``.

    The module constants ``MAX_RELATIONS``, ``MAX_ARITY``,
    ``MAX_EXTRA_BODY_ATOMS``, ``FG_MAX_EXTRA_BODY_ATOMS``,
    ``EXTRA_ATOM_POOL_LIMIT``, ``MAX_QUOTIENT_VARS`` and ``MAX_GOAL_PREMISES``
    bound the enumeration space; every produced artifact records the caps it
    was built under.  ``k``, when set, is at least 0.

    ``jobs`` selects nothing: certification runs in one process, and the
    field stays, only ever 1, for the benchmark, which still passes it.
    """

    k: Optional[int] = None
    oracle: ChaseConfig = ChaseConfig()
    jobs: int = 1

    def __post_init__(self):
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be at least 0, got {self.k}")
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1: certification runs in one process, got {self.jobs}")


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


class _Trail:
    """Certification records produced when first read, then kept.  Two
    trails are equal when their records are."""

    __slots__ = ("_produce", "_records")

    def __init__(self, produce: Callable[[], tuple[CertificationRecord, ...]]):
        self._produce: Optional[Callable[[], tuple[CertificationRecord, ...]]] = produce
        self._records: Optional[tuple[CertificationRecord, ...]] = None

    def records(self) -> tuple[CertificationRecord, ...]:
        if self._records is None:
            self._records, self._produce = self._produce(), None
        return self._records

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Trail) and self.records() == other.records()


@dataclass
class RewriteArtifacts:
    """A compiled program plus everything needed to audit how it was built.

    ``certification`` holds a record per candidate and per dropped program
    rule.  It is computed when first read: the compile names only the
    candidates its program and completeness need, and reading the trail
    names the rest (most candidates are rejected)."""

    program: DatalogProgram
    _trail: _Trail = field(repr=False)
    caps: dict[str, int]
    capped: bool
    completeness: str  # complete_within_caps | capped
    query_predicates: dict[str, str]
    boolean_goal: bool
    answer_projection: tuple[int, ...]

    @property
    def certification(self) -> tuple[CertificationRecord, ...]:
        return self._trail.records()


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
# a head: its relation, its number of arguments and the query it stands for
_Head = tuple[str, int, Optional[ConjunctiveQuery]]
# a head over named arguments: its relation and their names, () for ``_unit``
_HeadArgs = tuple[str, tuple[str, ...]]


class _Closure(NamedTuple):
    """The chase that certifies a body: its key, the body's canonical atoms,
    and the renaming of the body's variables into them."""
    key: str
    atoms: tuple[Atom, ...]
    ren: dict[str, str]


# bodies prepared for naming, by their distinct atoms sorted: each one's
# renamed variables in order, its renamings as (new names, joined atom texts)
# sorted by those texts, a format slot per renamed variable, and its closure
_Prepared = dict[tuple[Atom, ...],
                 tuple[list[str], list[tuple[list[str], str]], dict[str, str], _Closure]]
# the heads to name over a body's guard variables, given its closure and
# those variables; None for every head
_Pick = Callable[[_Closure, tuple[str, ...]], Optional[set[_HeadArgs]]]


class _Candidate(NamedTuple):
    """A candidate rule: a body, sorted by text, and a head over its
    variables.  An enumerated candidate keeps its body as enumerated and the
    renaming that names it; ``named`` applies that renaming when it is
    called, so only the candidates kept as entailed build their named atoms."""
    body: tuple[Atom, ...]
    head: Atom
    kind: str = "rule"  # rule | query-rule | axiom
    query: Optional[ConjunctiveQuery] = None  # a query-rule's head stands for it
    closure: Optional[_Closure] = None  # None: entailed without a chase
    ren: Optional[dict[str, str]] = None  # None: body and head are named already

    def named(self) -> tuple[tuple[Atom, ...], Atom]:
        """The renamed body, sorted by text, and the renamed head."""
        if self.ren is None:
            return self.body, self.head
        sub = {v: Var(n) for v, n in self.ren.items()}
        return (tuple(sorted((substitute(a, sub) for a in self.body), key=str)),
                substitute(self.head, sub))

    @property
    def rule(self) -> Tgd:
        body, head = self.named()
        return make_tgd(list(body), [head])

    @staticmethod
    def of(t: Tgd, kind: str = "rule") -> "_Candidate":
        """An input rule or axiom, which entails itself."""
        return _Candidate(t.body.atoms, t.head.atoms[0], kind)


class _Space(NamedTuple):
    """What candidates are named from: guarded bodies as enumerated, heads
    over their guard variables, and the rules entailed without a chase, by
    text.  An axiom takes the place of the enumerated candidate with its
    text; an input rule leaves that candidate in place."""
    bodies: list[_Body]
    heads: list[_Head]
    given: dict[str, _Candidate]


def _enumeration_relations(sig: Signature) -> tuple[list[tuple[str, int]], bool]:
    rels = [(r, a) for r, a in sig.arities.items()]
    kept = [(r, a) for r, a in rels if a <= MAX_ARITY]
    capped = len(kept) < len(rels)
    if len(kept) > MAX_RELATIONS:
        kept = kept[:MAX_RELATIONS]
        capped = True
    return kept, capped


def _guarded_bodies(rels: Sequence[tuple[str, int]], max_extra: int,
                    k: int = 0) -> tuple[list[_Body], bool]:
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
            if len(pool) > EXTRA_ATOM_POOL_LIMIT:
                pool = pool[:EXTRA_ATOM_POOL_LIMIT]
                capped = True
            top = min(max_extra, len(pool))
            for n in range(top + 1):
                for extra in itertools.combinations(pool, n):
                    bodies.append(((guard,) + extra, gvars))
    return bodies, capped


def _rule_candidates(bodies: Iterable[_Body], heads: Sequence[_Head],
                     pick: Optional[_Pick] = None, prepared: Optional[_Prepared] = None
                     ) -> dict[str, _Candidate]:
    """Every body with every head ``(relation, n, query)``, whose arguments
    are each n-tuple of the body's guard variables (``_unit`` when n is 0).
    A head standing for a query is judged by that query.  Bodies are taken as
    enumerated, not cored: the prune drops a candidate that the one over the
    body's core subsumes.  Each distinct body is prepared once: its
    renamings, listed and sorted by their atom texts, a format slot per
    renamed variable, and its canonical form, the closure that judges all its
    heads.  A head is then named on text alone: of the sorted renamings, the
    first with the least head text, which is ``pick_renaming``'s choice.  A
    candidate keeps the body as enumerated and its renaming, so no atom is
    renamed until the candidate is kept.  No enumerated body reaches
    ``RENAMING_CAP``: a guard has at most ``MAX_ARITY`` variables, atomic
    and cq extra atoms use only those, and fg's one extra atom adds at most
    ``MAX_ARITY`` fresh ones.

    With ``pick``, a body's heads are named only where ``pick(closure, guard
    variables)`` lists them as (relation, arguments), or all of them when it
    returns None.  ``prepared`` keeps each body's preparation for a later
    call; a call with no heads only prepares.  Certification prepares the
    bodies, chases their closures, then names the heads read off those;
    reading a trail names every head."""
    cands: dict[str, _Candidate] = {}
    prepared = {} if prepared is None else prepared
    for body, gvars in bodies:
        atoms = tuple(sorted(set(body), key=str))
        if atoms not in prepared:
            _, order, choices = renamings = body_renamings(atoms, [("v", _vars(atoms))])
            assert len(order) <= RENAMING_CAP
            canon, _, ren, texts = pick_renaming(renamings)
            ranked = [(ns, ", ".join(t)) for ns, t in sorted(choices, key=lambda c: c[1])]
            slots = {v: f"{{{i}}}" for i, v in enumerate(order)}
            prepared[atoms] = order, ranked, slots, _Closure(" & ".join(texts), canon, ren)
        order, ranked, slots, closure = prepared[atoms]
        wanted = None if pick is None else pick(closure, gvars)
        for rel, n, q in heads:
            name = rel.replace("{", "{{").replace("}", "}}")  # escaped as query._templates does
            for combo in itertools.product(gvars, repeat=n):
                if wanted is not None and (rel, combo) not in wanted:
                    continue
                tmpl = f"{name}({','.join(slots[v] for v in combo) or UNIT_CONST})"
                ns, body_text = min(ranked, key=lambda c: tmpl.format(*c[0]))
                key = f"{body_text} -> {tmpl.format(*ns)}"
                if key not in cands:
                    kind = "rule" if q is None else "query-rule"
                    cands[key] = _Candidate(atoms, _family_head(rel, combo), kind, q, closure,
                                            dict(zip(order, ns)))
    return cands


def _inject_input_rules(rules: Sequence[Tgd]) -> list[Tgd]:
    """Input rules that already have the shape of program rules: full ones.
    Multi-atom heads split into one rule per atom, whose body is cored
    around the head variables and then named."""
    out = []
    for t in rules:
        if t.head.exist_vars:
            continue
        atoms = sorted(set(t.body.atoms), key=str)
        for ha in t.head.atoms:
            frees = [v for v in first_occurrence_vars(atoms) if v in ha.vars()]
            cored = core_cq(cq(frees, atoms)).atoms
            body, head, _ = canonical_renaming(cored, [("v", _vars(cored))], ha)
            out.append(make_tgd(list(body), [head]))
    return out


def _derivation_space(rules: Sequence[Tgd], sig: Signature,
                      query_heads: Sequence[_Head] = ()) -> tuple[_Space, bool]:
    """The guarded bodies with the full guarded heads followed by the query
    heads, and the input rules of full guarded shape; and whether a cap
    dropped a body."""
    rels, capped = _enumeration_relations(sig)
    bodies, pool_capped = _guarded_bodies(rels, MAX_EXTRA_BODY_ATOMS)
    inputs = {str(c): _Candidate.of(c) for c in _inject_input_rules(rules)}
    return (_Space(bodies, [(r, a, None) for r, a in rels] + list(query_heads), inputs),
            capped or pool_capped)


# ---------------------------------------------------------------------------
# certification: chase each candidate body once, read off the heads it entails

def _heads_holding(closure: Instance, heads: Sequence[_Head]) -> set[_HeadArgs]:
    """The heads that hold in a body's closure over the body's elements:
    a full head's facts over them, ``rel(_unit)`` for a head of no
    arguments, and a query head's answers among them."""
    unit = closure.const_interp.get(UNIT_CONST)
    out: set[_HeadArgs] = set()
    for rel, n, q in heads:
        if q is not None:
            found: Iterable[tuple] = eval_cq(q, closure)
        elif n:
            found = (f.args for f in closure.rel_facts(rel))
        else:
            found = [()] if unit is not None and Fact(rel, (unit,)) in closure else []
        out.update((rel, tuple(v.name for v in args)) for args in found
                   if all(v.kind == ELEMENT for v in args))
    return out


class _Verdicts(NamedTuple):
    """What the chases decided, by closure key: the heads that hold in each
    closure, over the canonical body's variables, and the keys whose chase
    stopped at its budget."""
    holds: dict[str, set[_HeadArgs]]
    stopped: set[str]

    def of(self, cand: _Candidate) -> str:
        if cand.closure is None:
            return ENTAILED
        ren = cand.closure.ren
        args = tuple(ren[t.name] for t in cand.head.args if isinstance(t, Var))
        if (cand.head.rel, args) in self.holds[cand.closure.key]:
            return ENTAILED
        return UNKNOWN if cand.closure.key in self.stopped else REJECTED

    def to_name(self, closure: _Closure, gvars: tuple[str, ...]) -> Optional[set[_HeadArgs]]:
        """The heads over a body's guard variables that hold in its closure
        and are not among its atoms (enumerated bodies hold variables only);
        None, for every head, when its chase stopped at its budget, so that
        each unknown candidate is named."""
        if closure.key in self.stopped:
            return None
        back = {closure.ren[g]: g for g in gvars}
        own = {(a.rel, tuple(t.name for t in a.args)) for a in closure.atoms}
        return {(rel, tuple(back[n] for n in names))
                for rel, names in self.holds[closure.key] - own
                if all(n in back for n in names)}


def _judged(space: _Space, verdicts: _Verdicts, pick: Optional[_Pick] = None,
            prepared: Optional[_Prepared] = None
            ) -> list[tuple[CertificationRecord, _Candidate]]:
    """The space's candidates, all of them or those ``pick`` names (see
    ``_rule_candidates``), each with its record: the query rules after the
    others, and each part in text order."""
    cands = _rule_candidates(space.bodies, space.heads, pick, prepared)
    for s, c in space.given.items():
        if c.kind == "axiom" or s not in cands:
            cands[s] = c
    return [(CertificationRecord(s, verdicts.of(cands[s]), cands[s].kind), cands[s])
            for s in sorted(cands, key=lambda s: (cands[s].kind == "query-rule", s))]


def _records(space: _Space, verdicts: _Verdicts) -> tuple[CertificationRecord, ...]:
    """The record of every candidate of the space.  It names them all, so a
    trail calls it only when it is read."""
    return tuple(r for r, _ in _judged(space, verdicts))


class _Certified(NamedTuple):
    """A certified space: its entailed candidates that are not tautologies
    (head in body), whether one of its candidates is unknown, and its
    records, produced by ``_records`` when called."""
    kept: list[_Candidate]
    unknown: bool
    records: Callable[[], tuple[CertificationRecord, ...]]


def _certify(rules: Sequence[Tgd], sig: Signature, space: _Space,
             config: RewriteConfig) -> _Certified:
    """Chase each distinct canonical body of the space once under the rules,
    in key order, read the heads that hold in its closure, then drop the
    closure.  Name only the entailed heads that are not in their body, and
    every head of a body whose chase stopped at its budget: the program
    needs the entailed rules, and completeness the unknown ones.  Input
    rules and axioms are entailed without a chase.  The other candidates
    are named only when the records are read."""
    prepared: _Prepared = {}
    _rule_candidates(space.bodies, (), prepared=prepared)
    verdicts = _Verdicts({}, set())
    for key, atoms in sorted({c.key: c.atoms for *_, c in prepared.values()}.items()):
        inst, _ = canon_inst(cq([], list(atoms)), sig)
        res = chase(inst, list(rules), config.oracle)
        verdicts.holds[key] = _heads_holding(res.result, space.heads)
        if res.status != TERMINATED:
            verdicts.stopped.add(key)
    judged = _judged(space, verdicts, verdicts.to_name, prepared)
    return _Certified([c for r, c in judged if r.verdict == ENTAILED and c.head not in c.body],
                      any(r.verdict == UNKNOWN for r, _ in judged),
                      lambda: _records(space, verdicts))


# ---------------------------------------------------------------------------
# query families: quotients of subqueries, canonicalized

def _quotients(query: ConjunctiveQuery) -> tuple[list[tuple[list[Atom], list[str]]], bool]:
    """Each variable quotient of the query as its distinct atoms and its
    answer variables.  Past ``MAX_QUOTIENT_VARS`` only the identity quotient
    is taken, and the result is flagged as capped."""
    allvars = list(query.all_vars())
    capped = len(allvars) > MAX_QUOTIENT_VARS
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
    return cq([v for v in first_occurrence_vars(sub) if v in outside], sub)


def _query_family(query: ConjunctiveQuery, k: int, used: set[str],
                  answer_guarded_only: bool = False
                  ) -> tuple[dict[str, ConjunctiveQuery], dict[str, str], bool]:
    """Queries relevant to answering the input query: take a variable quotient,
    keep a subset of its atoms, and expose the variables shared with the rest
    (plus answer variables).  Canonicalized and capped at k variables.
    Returns the family by canonical key, a predicate name per key (Q0, Q1,
    ... in key order, avoiding the used names) and whether it was capped:
    by the quotient cap, or by a k below the query's variable count, which
    drops the subqueries and goal rules that need more variables."""
    quotients, capped = _quotients(query)
    capped = capped or k < len(query.all_vars())
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


# ---------------------------------------------------------------------------
# goal rules (conjunctions of query-extension predicates entailing the query)

def _goal_rules(query: ConjunctiveQuery, k: int, names: dict[str, str],
                goal_name: str) -> tuple[list[Rule], bool]:
    """Every goal rule over query-extension predicates: for each variable
    quotient of the query within ``k`` variables and each partition of its
    atoms into at most ``MAX_GOAL_PREMISES`` groups, the rule joining the
    groups' subqueries.  The premises conjoin to the quotient, onto which
    the quotient map sends the query and its answers, so each rule is
    entailed."""
    quotients, capped = _quotients(query)
    rules_out: dict[str, Rule] = {}
    for atoms, free in quotients:
        if len({v for a in atoms for v in a.vars()}) > k:
            continue
        for atom_part in _set_partitions(list(range(len(atoms)))):
            if len(atom_part) > MAX_GOAL_PREMISES:
                capped = True  # a skipped partition may be the only one deriving an answer
                continue
            # each group's subquery has at most the quotient's k variables,
            # so the family holds it
            premises = []
            for group in atom_part:
                key, _, args = _canonical_family_form(_subquery(atoms, free, group))
                premises.append(_family_head(names[key], args))
            rule = Rule(_family_head(goal_name, free), tuple(sorted(premises, key=str)))
            rules_out.setdefault(str(rule), rule)
    return [rules_out[s] for s in sorted(rules_out)], capped


# ---------------------------------------------------------------------------
# program assembly

def _default_k(rules: Sequence[Tgd], query: ConjunctiveQuery,
               config: RewriteConfig) -> int:
    """``config.k`` when set, else the cq-scheme default."""
    if config.k is not None:
        return config.k
    maxbody = max((len(t.body.free_vars) for t in rules), default=1)
    return min(max(maxbody, len(query.all_vars()), 1), MAX_K)


def _caps(k: Optional[int] = None,
          max_extra: Optional[tuple[str, int]] = None) -> dict[str, int]:
    """The enumeration caps a result was built under, led by k where used;
    ``max_extra`` names the extra-body-atom cap when it is not
    ``MAX_EXTRA_BODY_ATOMS``."""
    name, value = max_extra or ("max_extra_body_atoms", MAX_EXTRA_BODY_ATOMS)
    return {**({} if k is None else {"k": k}), "max_relations": MAX_RELATIONS,
            "max_arity": MAX_ARITY, name: value,
            "extra_atom_pool_limit": EXTRA_ATOM_POOL_LIMIT}


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
              certified: _Certified, caps: dict[str, int], capped: bool, *,
              goal_list: Sequence[Rule] = (),
              idb: Sequence[tuple[str, int]] = (),
              idb_if_used: Sequence[tuple[str, int]] = (),
              query_predicates: Optional[dict[str, str]] = None,
              projection: Optional[tuple[int, ...]] = None) -> RewriteArtifacts:
    """The program over relation copies: each certified rule that is not a
    tautology, moved onto the copies, the goal rules, and one import rule per
    input relation, less the rules a kept rule subsumes.  The trail lists
    the certified records, an ``entailed`` record per goal rule, the import
    records, then a ``subsumed`` record per dropped rule.  The idb declares
    the copies, then the relations of ``idb_if_used`` that some rule before
    the prune mentions, then ``idb``."""
    def onto_copies(a: Atom) -> Atom:
        return Atom(copies.get(a.rel, a.rel), a.args)

    prog_rules: dict[str, tuple[Rule, str]] = {}
    for c in certified.kept:
        body, head = c.named()
        r = Rule(onto_copies(head), tuple(onto_copies(a) for a in body))
        prog_rules[str(r)] = r, "rule"
    for r in goal_list:
        prog_rules[str(r)] = r, "goal-rule"
    rest = [CertificationRecord(str(r), ENTAILED, "goal-rule") for r in goal_list]
    for rel, arity in sig.arities.items():
        args = tuple(Var(f"x{i}") for i in range(arity))
        r = Rule(Atom(copies[rel], args), (Atom(rel, args),))
        prog_rules[str(r)] = r, "import"
        rest.append(CertificationRecord(str(r), ENTAILED, "import"))

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
    rest += [CertificationRecord(s, SUBSUMED, kind)
             for s, (_, kind) in ordered.items() if s not in kept]
    certified_records = certified.records  # the trail keeps no named candidate
    return RewriteArtifacts(
        program=DatalogProgram(edb, Signature(idb_rels),
                               tuple(r for s, (r, _) in ordered.items() if s in kept), goal),
        _trail=_Trail(lambda: certified_records() + tuple(rest)),
        caps=caps,
        capped=capped,
        completeness=CAPPED if capped or certified.unknown else COMPLETE_WITHIN_CAPS,
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
    space, capped = _derivation_space(rules, sig)
    copies = _copy_map(sig)
    positions = {t.name: i for i, t in enumerate(qatom.args)}
    return _assemble(sig, copies, query, copies[qatom.rel],
                     _certify(rules, sig, space, config), _caps(), capped,
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
    family, names, fam_capped = _query_family(query, k, used | {goal_name})

    space, body_capped = _derivation_space(
        rules, sig, [(names[key], len(q.free_vars), q) for key, q in family.items()])
    certified = _certify(rules, sig, space, config)
    goal_list, goal_capped = _goal_rules(query, k, names, goal_name)

    capped = fam_capped or body_capped or goal_capped
    art = _assemble(sig, copies, query, goal_name, certified,
                    {**_caps(k), "max_goal_premises": MAX_GOAL_PREMISES},
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
    rules into a frontier-guarded program.

    When every rule is guarded, this is ``rewrite_cq_guarded`` at fg's ``k``:
    its internally guarded program is frontier-guarded for an answer-guarded
    query.  Otherwise guard-extension and query-extension predicates carry
    the derived information through rules that need only a frontier guard."""
    config = config or RewriteConfig()
    classes = [classify(t) for t in rules]
    for t, c in zip(rules, classes):
        if not c.frontier_guarded:
            raise ValueError(f"rule is not frontier-guarded: {t}")
    if not is_answer_guarded(query):
        raise ValueError("query must be answer-guarded")
    maxbody = max((len(t.body.free_vars) for t in rules), default=1)
    k = config.k if config.k is not None else max(min(max(maxbody, 1), MAX_K),
                                                  len(query.all_vars()))
    if all(c.guarded for c in classes):
        art = rewrite_cq_guarded(rules, query, replace(config, k=k))
    else:
        art = _rewrite_fg_extended(rules, query, k, config)
    assert classify_datalog(art.program).frontier_guarded
    return art


def _rewrite_fg_extended(rules: Sequence[Tgd], query: ConjunctiveQuery, k: int,
                         config: RewriteConfig) -> RewriteArtifacts:
    """fg's own construction: candidate rules over the input relations,
    guard-extension predicates and the query's answer-guarded family,
    certified under a theory that defines each of them."""
    base_sig = tgd_signature(list(rules), query_signature(query))
    ext = guard_extension_axioms(base_sig)
    used = set(ext.signature.arities) | set(ext.signature.constants)
    ans_name = _fresh_name("Ans", used)
    family, names, fam_capped = _query_family(query, k, used | {ans_name},
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

    base_rels, rel_capped = _enumeration_relations(base_sig)
    rels = base_rels + [(r, a) for r, a in extension_rels if a <= MAX_ARITY]
    bodies, pool_capped = _guarded_bodies(rels, FG_MAX_EXTRA_BODY_ATOMS, k)
    space = _Space(bodies, [(r, a, None) for r, a in rels] + [(r, 0, None) for r, a in rels if a == 1],
                   {str(c): _Candidate.of(c, "axiom")
                    for c in _inject_input_rules(theory)})
    certified = _certify(theory, ext.signature.extend(relations=extension_rels), space, config)

    return _assemble(base_sig, _copy_map(base_sig), query, ans_name, certified,
                     _caps(k, ("fg_max_extra_body_atoms", FG_MAX_EXTRA_BODY_ATOMS)),
                     fam_capped or rel_capped or pool_capped, idb=extension_rels,
                     query_predicates={names[key]: key for key in family})


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
