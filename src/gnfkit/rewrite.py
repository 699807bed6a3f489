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
the entailed heads that are not in their body and hold in the closure of
none of its sub-bodies (the body less one atom beside its guard, whose rule
would subsume the candidate by inclusion), and every head of a body whose
chase stopped at its budget (those not entailed are ``unknown``).  This is
the redundancy elimination of ExbDR/SkDR (Benedikt, Buron, Germano,
Kappelmann and Motik, ICDT 2022), which generates only rules that survive
subsumption; the prune still drops the subsumptions that are not
inclusions, such as ``H(x) :- E(x,x)`` under ``H(x) :- E(x,y)``.

Certification is one value, ``_Certification``: the candidate space, the
heads that hold in each distinct body's closure, and the closures whose
chase stopped at its budget.  The compile names from it the candidates
above.  The certification trail, which lists every candidate with its
verdict and every dropped program rule, is produced from it when first
read, by the same naming over the same bodies; it keeps no named candidate.

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
answers, so every goal rule is entailed by construction.  The query family
and the goal rules come from one list, the squid decompositions of the
query's quotients: each splits a quotient's atoms into a head over input
elements and tentacles below one guarded set each, every part is a family
member, and the parts' predicates join in one goal rule.  Any cap that drops
a candidate body, a query quotient or a quotient past ``k`` variables marks
the result ``capped``, in each scheme.

Every scheme compiles only what the query can reach (see ``_relevant``): it
enumerates bodies and heads over the relations the query reaches and
certifies under the rules that derive those, so a relation the query cannot
reach takes no place under ``MAX_RELATIONS``.  fg's own construction reaches
from its answer predicate through its extension axioms, and so also keeps
only the relevant relations' guard-extension predicates.  The program still
imports every input relation.

Programs run over copies of the input relations (one import rule per input
relation), so derived facts never touch input relation names.  Boolean goals
and other zero-argument derived predicates are represented as unary relations
holding the reserved constant ``_unit``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .chase import TERMINATED, ChaseConfig, chase
from .datalog import DatalogProgram, Rule, classify_datalog, eval_datalog
from .model import ELEMENT, Fact, Instance, Signature, active_domain, align_instance
# canonical_cq and cq_contained are unused here, but the benchmark's traced
# mode wraps them at these names
from .query import (RENAMING_CAP, Atom, ConjunctiveQuery, Cst, Term, Var,
                    atom_homomorphisms, body_renamings, canon_inst, canonical_cq,
                    canonical_renaming, components, core_cq, cq, cq_contained, eval_cq,
                    atoms_over, first_occurrence_vars, is_answer_guarded, pick_renaming,
                    query_signature, quotient_atoms, quotients, substitute)
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
MAX_K = 3                    # caps the rule bodies' share of the default k
MAX_EXTRA_BODY_ATOMS = 2     # extra body atoms beside a guard
FG_MAX_EXTRA_BODY_ATOMS = 1  # extra body atoms in fg's extension construction
EXTRA_ATOM_POOL_LIMIT = 12   # extra atoms a guard may draw from
MAX_QUOTIENT_VARS = 6        # past this many query variables, no quotients


# ---------------------------------------------------------------------------
# configuration and result types

@dataclass(frozen=True)
class RewriteConfig:
    """The variable bound ``k`` and the chase budget used to certify.

    ``k`` bounds the number of variables in the query quotients that derived
    queries and goal rules come from.  A ``k`` below the query's variable
    count marks the compile ``capped``.  When it is not set, with ``body
    vars`` the largest variable count of a rule body (1 without rules) and
    ``query vars`` the query's variable count:

    - ``rewrite_cq_guarded`` and ``rewrite_fg`` use
      ``max(min(max(body vars, 1), MAX_K), query vars)``, so the query's
      count is never clamped;
    - ``rewrite_atomic_guarded`` does not use ``k``.

    The module constants ``MAX_RELATIONS``, ``MAX_ARITY``,
    ``MAX_EXTRA_BODY_ATOMS``, ``FG_MAX_EXTRA_BODY_ATOMS``,
    ``EXTRA_ATOM_POOL_LIMIT`` and ``MAX_QUOTIENT_VARS`` bound the
    enumeration space; every produced artifact records the caps it
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

    Each proper subset gets a fresh predicate, tied to the relation by an
    axiom in each direction.  The full position set maps to the relation
    itself, which needs no axioms and no fresh name.  The empty subset yields
    a unary predicate over the reserved constant ``_unit`` recording
    nonemptiness of the relation.
    """

    predicates: dict[tuple[str, tuple[int, ...]], str]
    axioms: tuple[Tgd, ...]
    signature: Signature


@dataclass
class RewriteArtifacts:
    """A compiled program plus everything needed to audit how it was built.

    ``certification`` holds a record per candidate and per dropped program
    rule.  It is produced when first read, then kept: the compile names only
    the candidates its program and completeness need, and reading the trail
    names the rest (most candidates are rejected)."""

    program: DatalogProgram
    caps: dict[str, int]
    capped: bool
    completeness: str  # complete_within_caps | capped
    query_predicates: dict[str, str]
    boolean_goal: bool
    answer_projection: tuple[int, ...]
    _produce: Callable[[], tuple[CertificationRecord, ...]] = field(repr=False, compare=False)

    @functools.cached_property
    def certification(self) -> tuple[CertificationRecord, ...]:
        return self._produce()


# ---------------------------------------------------------------------------
# small combinatorial helpers

def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "'"
    return name


def _copy_map(sig: Signature, taken: Iterable[str] = ()) -> dict[str, str]:
    """A primed copy name per relation, fresh with respect to the signature
    and the taken names."""
    used = set(sig.arities) | set(sig.constants) | set(taken)
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


class _Candidate(NamedTuple):
    """A candidate rule: a body, sorted by text, and a head over its
    variables.  An enumerated candidate keeps its body as enumerated and the
    renaming that names it; ``named`` applies that renaming when it is
    called, so only the candidates kept as entailed build their named atoms."""
    body: tuple[Atom, ...]
    head: Atom
    kind: str = "rule"  # rule | query-rule | axiom
    closure: Optional[_Closure] = None  # None: entailed without a chase
    ren: Optional[dict[str, str]] = None  # None: body and head are named already

    def named(self) -> tuple[tuple[Atom, ...], Atom]:
        """The renamed body, sorted by text, and the renamed head."""
        if self.ren is None:
            return self.body, self.head
        sub = {v: Var(n) for v, n in self.ren.items()}
        return (tuple(sorted((substitute(a, sub) for a in self.body), key=str)),
                substitute(self.head, sub))


class _Space(NamedTuple):
    """What candidates are named from and certified under: guarded bodies
    as enumerated, heads over their guard variables, the rules entailed
    without a chase, by text, and the rules the chases run.  A rule entailed
    without a chase takes the place of the enumerated candidate with its
    text."""
    bodies: list[_Body]
    heads: list[_Head]
    given: dict[str, _Candidate]
    rules: Sequence[Tgd]


def _relevant(rules: Sequence[Tgd], query: ConjunctiveQuery) -> tuple[list[Tgd], set[str]]:
    """The rules with a relevant relation in their head, in input order, and
    the relevant relations: to a fixpoint, those the query uses or a body
    of such a rule does.  Facts only grow, so no other rule's facts reach a
    relevant body, and the query's certain answers are those under these
    rules, read off facts of these relations."""
    relevant = {a.rel for a in query.atoms}
    while True:
        kept = [t for t in rules if any(a.rel in relevant for a in t.head.atoms)]
        reach = relevant.union(a.rel for t in kept for a in t.body.atoms)
        if reach == relevant:
            return kept, relevant
        relevant = reach


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
        patterns = []
        for rep in quotients(range(arity)):
            firsts = sorted(set(rep.values()))
            patterns.append(tuple(f"v{firsts.index(rep[i])}" for i in range(arity)))
        for pattern in sorted(patterns):
            guard = Atom(rel, tuple(Var(v) for v in pattern))
            gvars = tuple(dict.fromkeys(pattern))
            fresh = tuple(f"w{i}" for i in range(k - len(gvars)))
            pool = [a for a in atoms_over(rels, gvars + fresh) if a != guard]
            if len(pool) > EXTRA_ATOM_POOL_LIMIT:
                pool = pool[:EXTRA_ATOM_POOL_LIMIT]
                capped = True
            top = min(max_extra, len(pool))
            for n in range(top + 1):
                for extra in itertools.combinations(pool, n):
                    bodies.append(((guard,) + extra, gvars))
    return bodies, capped


def _prepare(bodies: Iterable[_Body]) -> _Prepared:
    """Each distinct body, by its distinct atoms sorted, prepared once for
    naming: its renamings, listed and sorted by their atom texts, a format
    slot per renamed variable, and its canonical form, the closure that
    judges all its heads.  No enumerated body reaches ``RENAMING_CAP``: a
    guard has at most ``MAX_ARITY`` variables, atomic and cq extra atoms use
    only those, and fg's one extra atom adds at most ``MAX_ARITY`` fresh
    ones."""
    prepared: _Prepared = {}
    for body, _ in bodies:
        atoms = tuple(sorted(set(body), key=str))
        if atoms not in prepared:
            _, order, choices = renamings = body_renamings(atoms, [("v", _vars(atoms))])
            assert len(order) <= RENAMING_CAP
            canon, _, ren, texts = pick_renaming(renamings)
            ranked = [(ns, ", ".join(t)) for ns, t in sorted(choices, key=lambda c: c[1])]
            slots = {v: f"{{{i}}}" for i, v in enumerate(order)}
            prepared[atoms] = order, ranked, slots, _Closure(" & ".join(texts), canon, ren)
    return prepared


def _rule_candidates(bodies: Iterable[_Body], heads: Sequence[_Head], prepared: _Prepared,
                     certification: Optional[_Certification] = None) -> dict[str, _Candidate]:
    """Every body with every head ``(relation, n, query)``, whose arguments
    are each n-tuple of the body's guard variables (``_unit`` when n is 0),
    named over the bodies as ``_prepare`` gave them.  Bodies are taken as
    enumerated, not cored: the prune drops a candidate that the one over the
    body's core subsumes.  A head is named on text alone: of the body's
    sorted renamings, the first with the least head text, which is
    ``pick_renaming``'s choice.  A candidate keeps the body as enumerated
    and its renaming, so no atom is renamed until the candidate is kept.
    With a certification, a body's heads are named only where its
    ``to_name`` lists them, or all of them when it returns None."""
    cands: dict[str, _Candidate] = {}
    for body, gvars in bodies:
        atoms = tuple(sorted(set(body), key=str))
        order, ranked, slots, closure = prepared[atoms]
        wanted = (None if certification is None
                  else certification.to_name(closure, (body, gvars), prepared))
        for rel, n, q in heads:
            name = rel.replace("{", "{{").replace("}", "}}")  # escaped as query._templates does
            for combo in itertools.product(gvars, repeat=n):
                if wanted is not None and (rel, combo) not in wanted:
                    continue
                tmpl = f"{name}({','.join(slots[v] for v in combo) or UNIT_CONST})"
                ns, body_text = min(ranked, key=lambda c: tmpl.format(*c[0]))
                key = f"{body_text} -> {tmpl.format(*ns)}"
                if key not in cands:
                    cands[key] = _Candidate(atoms, _family_head(rel, combo),
                                            "rule" if q is None else "query-rule", closure,
                                            dict(zip(order, ns)))
    return cands


def _inject_input_rules(rules: Sequence[Tgd], kind: str = "rule") -> dict[str, _Candidate]:
    """Input rules that already have the shape of program rules, full ones,
    as candidates by text, each entailed by itself.  Multi-atom heads split
    into one rule per atom, whose body is cored around the head variables
    and then named."""
    out = {}
    for t in rules:
        if t.head.exist_vars:
            continue
        atoms = sorted(set(t.body.atoms), key=str)
        for ha in t.head.atoms:
            frees = [v for v in first_occurrence_vars(atoms) if v in ha.vars()]
            cored = core_cq(cq(frees, atoms)).atoms
            body, head, _ = canonical_renaming(cored, [("v", _vars(cored))], ha)
            out[f"{', '.join(map(str, body))} -> {head}"] = _Candidate(body, head, kind)
    return out


def _derivation_space(rules: Sequence[Tgd], sig: Signature, query: ConjunctiveQuery,
                      query_heads: Sequence[_Head] = ()) -> tuple[_Space, bool]:
    """The space of the rules relevant to the query (see ``_relevant``): the
    guarded bodies over the relevant relations with the full guarded heads
    followed by the query heads, the relevant input rules of full guarded
    shape, and the relevant rules; and whether a cap dropped a body."""
    rules, relevant = _relevant(rules, query)
    rels, capped = _enumeration_relations(
        Signature((r, a) for r, a in sig.arities.items() if r in relevant))
    bodies, pool_capped = _guarded_bodies(rels, MAX_EXTRA_BODY_ATOMS)
    return (_Space(bodies, [(r, a, None) for r, a in rels] + list(query_heads),
                   _inject_input_rules(rules), rules), capped or pool_capped)


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


class _Certification(NamedTuple):
    """A certified space: what its chases decided, by closure key, the heads
    that hold in each closure, over the canonical body's variables, and the
    keys whose chase stopped at its budget.  It keeps no named candidate:
    its trail names every candidate again when it is read."""
    space: _Space
    holds: dict[str, set[_HeadArgs]]
    stopped: set[str]

    def verdict(self, cand: _Candidate) -> str:
        if cand.closure is None:
            return ENTAILED
        args = tuple(cand.closure.ren[t.name] for t in cand.head.args if isinstance(t, Var))
        if (cand.head.rel, args) in self.holds[cand.closure.key]:
            return ENTAILED
        return UNKNOWN if cand.closure.key in self.stopped else REJECTED

    def to_name(self, closure: _Closure, body: _Body, prepared: _Prepared
                ) -> Optional[set[_HeadArgs]]:
        """The heads over a body's guard variables that hold in its closure,
        are not among its atoms (enumerated bodies hold variables only) and
        hold in the closure of none of its sub-bodies, the body less one atom
        beside its guard, which is enumerated and prepared too.  The rule on
        such a sub-body is entailed, subsumes the rule by inclusion and comes
        first in the prune, which would drop the rule without evicting any
        other, so skipping it leaves the program as it is.  None, for every
        head, when the body's chase stopped at its budget, so that each
        unknown candidate is named."""
        if closure.key in self.stopped:
            return None
        atoms, gvars = body
        back = {closure.ren[g]: g for g in gvars}
        own = {(a.rel, tuple(t.name for t in a.args)) for a in closure.atoms}
        heads = {(rel, tuple(back[n] for n in names))
                 for rel, names in self.holds[closure.key] - own
                 if all(n in back for n in names)}
        for extra in atoms[1:]:
            sub = prepared[tuple(sorted(set(atoms) - {extra}, key=str))][3]
            holds = self.holds[sub.key]
            heads = {(rel, args) for rel, args in heads
                     if (rel, tuple(sub.ren[g] for g in args)) not in holds}
        return heads

    def judged(self, prepared: _Prepared, needed_only: bool = False
               ) -> tuple[tuple[CertificationRecord, ...], list[_Candidate]]:
        """The space's candidates, all of them or those ``to_name`` lists:
        the record of each, the query rules after the others and each part
        in text order, and the entailed ones that are not tautologies (head
        in body)."""
        cands = _rule_candidates(self.space.bodies, self.space.heads, prepared,
                                 self if needed_only else None)
        cands.update(self.space.given)
        order = sorted(cands, key=lambda s: (cands[s].kind == "query-rule", s))
        records = tuple(CertificationRecord(s, self.verdict(cands[s]), cands[s].kind)
                        for s in order)
        return records, [cands[r.candidate] for r in records if r.verdict == ENTAILED
                         and cands[r.candidate].head not in cands[r.candidate].body]

    def trail(self) -> tuple[tuple[CertificationRecord, ...], list[_Candidate]]:
        """``judged`` over every candidate, on the bodies prepared again."""
        return self.judged(_prepare(self.space.bodies))


def _certify(sig: Signature, space: _Space, config: RewriteConfig
             ) -> tuple[_Certification, list[_Candidate], bool]:
    """Chase each distinct canonical body of the space once under its rules,
    in key order, read the heads that hold in its closure, then drop the
    closure.  Name only the entailed heads that are not in their body and
    hold in no sub-body's closure (see ``_Certification.to_name``), and
    every head of a body whose chase stopped at its budget: the program
    needs those entailed rules, and completeness the unknown ones.  Returns
    the certification, those entailed candidates, and whether one of the
    named candidates is unknown.  Input rules and axioms are entailed
    without a chase.  The other candidates are named only when the trail is
    read."""
    prepared = _prepare(space.bodies)
    cert = _Certification(space, {}, set())
    for key, atoms in sorted({c.key: c.atoms for *_, c in prepared.values()}.items()):
        inst, _ = canon_inst(cq([], list(atoms)), sig)
        res = chase(inst, list(space.rules), config.oracle)
        cert.holds[key] = _heads_holding(res.result, space.heads)
        if res.status != TERMINATED:
            cert.stopped.add(key)
    records, kept = cert.judged(prepared, needed_only=True)
    return cert, kept, any(r.verdict == UNKNOWN for r in records)


# ---------------------------------------------------------------------------
# query families and goal rules: squid decompositions of the query's quotients

def _subquery(atoms: list[Atom], free: list[str], group: Sequence[int]) -> ConjunctiveQuery:
    """The atoms at the given indices, exposing the variables they share with
    the other atoms or with the answer."""
    sub = [atoms[i] for i in group]
    outside = {v for i, a in enumerate(atoms) if i not in group for v in a.vars()} | set(free)
    return cq([v for v in first_occurrence_vars(sub) if v in outside], sub)


# a squid decomposition: its quotient's answer variables and, per group of the
# quotient's atoms, the group's subquery as ``_canonical_family_form`` gives it
_Squid = tuple[list[str], list[tuple[str, ConjunctiveQuery, list[str]]]]


def _squids(query: ConjunctiveQuery, k: int) -> tuple[list[_Squid], bool]:
    """The squid decompositions of the query: for each variable quotient
    within ``k`` variables and each set H of its variables holding its answer
    variables, the atoms joined through variables outside H form one group
    (a tentacle), and each atom over H alone is a group of its own (the
    head).  Each group stands for its subquery, which exposes the variables
    it shares with the other groups or the answer, in canonical form.  A
    match of the quotient into a guarded chase, with H the variables sent to
    input elements, sends each tentacle below one guarded set of the input.
    The quotients are ``query.quotients`` of the variables that occur in an
    atom, within ``k`` classes, each class named after its first variable in
    ``all_vars`` order; past ``MAX_QUOTIENT_VARS`` such variables only the
    identity quotient is taken.  Also returns whether a cap dropped a
    decomposition: the quotient cap, or a ``k`` below the number of such
    variables; an existential that occurs in no atom counts for neither."""
    used = set(_vars(query.atoms))
    names = [v for v in query.all_vars() if v in used]
    capped = len(names) > MAX_QUOTIENT_VARS
    if capped:
        reps = [{v: v for v in names}] if len(names) <= k else []
    else:
        reps = quotients(names, k)
    out: list[_Squid] = []
    for rep in reps:
        atoms, free = quotient_atoms(query.atoms, rep), [rep[x] for x in query.free_vars]
        qvars = _vars(atoms)
        nonfree = [v for v in qvars if v not in free]
        parts = set()
        for n in range(len(nonfree) + 1):
            for outside in map(set, itertools.combinations(nonfree, n)):
                parts.add(tuple(map(tuple, components(atoms, outside))))
        forms = {g: _canonical_family_form(_subquery(atoms, free, g)) for g in set().union(*parts)}
        out += [(free, [forms[g] for g in part]) for part in sorted(parts)]
    return out, capped or k < len(names)


def _query_family(squids: Sequence[_Squid], used: set[str], answer_guarded_only: bool = False
                  ) -> tuple[dict[str, ConjunctiveQuery], dict[str, str]]:
    """The canonical subqueries of the decompositions' groups, answer-guarded
    ones only if asked, by canonical key, and a predicate name per key (Q0,
    Q1, ... in key order, avoiding the used names)."""
    family = {key: canonq for _, groups in squids for key, canonq, _ in groups
              if not answer_guarded_only or is_answer_guarded(canonq)}
    names = {}
    i = 0
    for key in sorted(family):
        while f"Q{i}" in used:
            i += 1
        names[key] = f"Q{i}"
        i += 1
    return family, names


def _goal_rules(squids: Sequence[_Squid], names: dict[str, str], goal_name: str) -> list[Rule]:
    """A goal rule per decomposition, joining its groups' query-extension
    predicates.  The premises conjoin to the quotient, onto which the
    quotient map sends the query and its answers, so each rule is entailed."""
    rules_out: dict[str, Rule] = {}
    for free, groups in squids:
        premises = sorted((_family_head(names[key], args) for key, _, args in groups), key=str)
        rule = Rule(_family_head(goal_name, free), tuple(premises))
        rules_out.setdefault(str(rule), rule)
    return [rules_out[s] for s in sorted(rules_out)]


# ---------------------------------------------------------------------------
# program assembly

def _default_k(rules: Sequence[Tgd], query: ConjunctiveQuery,
               config: RewriteConfig) -> int:
    """``config.k`` when set, else the default of ``RewriteConfig``."""
    if config.k is not None:
        return config.k
    maxbody = max((len(t.body.free_vars) for t in rules), default=1)
    return max(min(max(maxbody, 1), MAX_K), len(query.all_vars()))


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
              certified: tuple[_Certification, list[_Candidate], bool],
              caps: dict[str, int], capped: bool, *,
              goal_list: Sequence[Rule] = (),
              query_predicates: Optional[dict[str, str]] = None,
              projection: Optional[tuple[int, ...]] = None) -> RewriteArtifacts:
    """The program over relation copies: each certified rule, moved onto
    the copies, the goal rules, and one import rule per input relation, less
    the rules a kept rule subsumes.  The trail lists the certified records,
    an ``entailed`` record per goal rule, the import records, then a
    ``subsumed`` record per dropped rule, in text order.  Those records are
    produced when the trail is read, from every entailed candidate that is
    not a tautology: the ones certification skipped for a sub-body's rule
    are subsumed too.  The idb declares each relation outside ``sig`` that
    a rule before the prune mentions (the copies, through the import
    heads), and the goal."""
    def onto_copies(a: Atom) -> Atom:
        return Atom(copies.get(a.rel, a.rel), a.args)

    imports = []
    for rel, arity in sig.arities.items():
        args = tuple(Var(f"x{i}") for i in range(arity))
        imports.append(Rule(Atom(copies[rel], args), (Atom(rel, args),)))
    rest = ([CertificationRecord(str(r), ENTAILED, "goal-rule") for r in goal_list]
            + [CertificationRecord(str(r), ENTAILED, "import") for r in imports])

    def program_rules(cands: Iterable[_Candidate]) -> dict[str, tuple[Rule, str]]:
        """The candidates' rules, moved onto the copies, the goal rules and
        the import rules, each with its kind, by text in text order."""
        out: dict[str, tuple[Rule, str]] = {}
        for c in cands:
            body, head = c.named()
            r = Rule(onto_copies(head), tuple(onto_copies(a) for a in body))
            out[str(r)] = r, "rule"
        for r in goal_list:
            out[str(r)] = r, "goal-rule"
        for r in imports:
            out[str(r)] = r, "import"
        return {s: out[s] for s in sorted(out)}

    certification, entailed_named, unknown = certified
    ordered = program_rules(entailed_named)
    atoms = [a for r, _ in ordered.values() for a in (r.head, *r.body)]
    idb = {a.rel: len(a.args) for a in atoms if a.rel not in sig.arities}
    idb.setdefault(goal, max(1, len(query.free_vars)))
    edb = sig
    if UNIT_CONST not in sig.constants and any(
            isinstance(t, Cst) and t.name == UNIT_CONST for a in atoms for t in a.args):
        edb = sig.extend(constants=(UNIT_CONST,))
    kept = _prune_subsumed({s: r for s, (r, _) in ordered.items()})

    def records() -> tuple[CertificationRecord, ...]:
        candidate_records, entailed = certification.trail()
        return candidate_records + tuple(rest) + tuple(
            CertificationRecord(s, SUBSUMED, kind)
            for s, (_, kind) in program_rules(entailed).items() if s not in kept)

    return RewriteArtifacts(
        program=DatalogProgram(edb, Signature(idb.items()),
                               tuple(r for s, (r, _) in ordered.items() if s in kept), goal),
        caps=caps,
        capped=capped,
        completeness=CAPPED if capped or unknown else COMPLETE_WITHIN_CAPS,
        query_predicates=query_predicates or {},
        boolean_goal=not query.free_vars,
        answer_projection=(tuple(range(len(query.free_vars))) if projection is None
                           else projection),
        _produce=records,
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
    space, capped = _derivation_space(rules, sig, query)
    copies = _copy_map(sig)
    positions = {t.name: i for i, t in enumerate(qatom.args)}
    return _assemble(sig, copies, query, copies[qatom.rel],
                     _certify(sig, space, config), _caps(), capped,
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
    squids, squid_capped = _squids(query, k)
    family, names = _query_family(squids, used | {goal_name})

    space, body_capped = _derivation_space(
        rules, sig, query, [(names[key], len(q.free_vars), q) for key, q in family.items()])
    certified = _certify(sig, space, config)
    art = _assemble(sig, copies, query, goal_name, certified, _caps(k),
                    squid_capped or body_capped, goal_list=_goal_rules(squids, names, goal_name),
                    query_predicates={names[key]: key for key in family})
    assert classify_datalog(art.program).internally_guarded
    return art


# ---------------------------------------------------------------------------
# guard extension predicates

def guard_extension_axioms(sig: Signature) -> GuardExtensionResult:
    """Projection predicates for every argument-position subset of each input
    relation, with axioms tying each proper one to the relation in both
    directions; the full position set maps to the relation itself."""
    used = set(sig.arities) | set(sig.constants)
    predicates: dict[tuple[str, tuple[int, ...]], str] = {}
    axioms: list[Tgd] = []
    new_rels: list[tuple[str, int]] = []
    for rel, arity in sig.arities.items():
        positions = tuple(range(1, arity + 1))
        full_args = tuple(Var(f"x{i}") for i in positions)
        proper = [s for size in range(arity) for s in itertools.combinations(positions, size)]
        for subset in proper:
            suffix = "".join(str(p) for p in subset) or "0"
            name = _fresh_name(f"{rel}_p{suffix}", used)
            used.add(name)
            predicates[(rel, subset)] = name
            new_rels.append((name, max(1, len(subset))))
            if subset:
                proj = tuple(Var(f"x{p}") for p in subset)
                axioms.append(make_tgd([Atom(rel, full_args)], [Atom(name, proj)]))
                axioms.append(make_tgd([Atom(name, proj)], [Atom(rel, full_args)]))
            else:
                axioms.append(make_tgd([Atom(rel, full_args)],
                                       [Atom(name, (Cst(UNIT_CONST),))]))
                axioms.append(make_tgd([Atom(name, (Var("u"),))],
                                       [Atom(rel, full_args)]))
        predicates[(rel, positions)] = rel
    constants = () if UNIT_CONST in sig.constants else (UNIT_CONST,)
    extended = sig.extend(relations=new_rels, constants=constants)
    return GuardExtensionResult(predicates, tuple(axioms), extended)


# ---------------------------------------------------------------------------
# scheme 3: answer-guarded queries under frontier-guarded rules

def rewrite_fg(rules: Sequence[Tgd], query: ConjunctiveQuery,
               config: Optional[RewriteConfig] = None) -> RewriteArtifacts:
    """Compile certain answers of an answer-guarded query under frontier-guarded
    rules into a frontier-guarded program.

    When every rule is guarded, this is ``rewrite_cq_guarded``: its
    internally guarded program is frontier-guarded for an answer-guarded
    query.  Otherwise guard-extension and query-extension predicates carry
    the derived information through rules that need only a frontier guard."""
    config = config or RewriteConfig()
    classes = [classify(t) for t in rules]
    for t, c in zip(rules, classes):
        if not c.frontier_guarded:
            raise ValueError(f"rule is not frontier-guarded: {t}")
    if not is_answer_guarded(query):
        raise ValueError("query must be answer-guarded")
    if all(c.guarded for c in classes):
        art = rewrite_cq_guarded(rules, query, config)
    else:
        art = _rewrite_fg_extended(rules, query, config)
    assert classify_datalog(art.program).frontier_guarded
    return art


def _rewrite_fg_extended(rules: Sequence[Tgd], query: ConjunctiveQuery,
                         config: RewriteConfig) -> RewriteArtifacts:
    """fg's own construction: candidate rules over the input relations,
    guard-extension predicates and the query's answer-guarded family,
    certified under a theory that defines each of them.  As in the other
    schemes, only the relations and rules of that theory that the answer
    predicate reaches (see ``_relevant``) are enumerated and certified."""
    base_sig = tgd_signature(list(rules), query_signature(query))
    ext = guard_extension_axioms(base_sig)
    used = set(ext.signature.arities) | set(ext.signature.constants)
    ans_name = _fresh_name("Ans", used)
    k = _default_k(rules, query, config)
    squids, fam_capped = _squids(query, k)
    family, names = _query_family(squids, used | {ans_name}, answer_guarded_only=True)

    # the theory: input rules, the answer rule, and axioms defining every
    # guard-extension and query-extension predicate in both directions
    ans = _family_head(ans_name, query.free_vars)
    theory = list(rules) + [make_tgd(list(query.atoms), [ans])] + list(ext.axioms)
    for key, name in names.items():
        canonq = family[key]
        head = _family_head(name, canonq.free_vars)
        back = head if canonq.free_vars else Atom(name, (Var("u"),))
        theory += [make_tgd(list(canonq.atoms), [head]), make_tgd([back], list(canonq.atoms))]
    theory, relevant = _relevant(theory, cq([], [ans]))
    extension_rels = ([(ans_name, max(1, len(query.free_vars)))]
                      + [(name, max(1, len(family[key].free_vars))) for key, name in names.items()]
                      + [(name, ext.signature.arities[name]) for name in
                         sorted(relevant & (ext.signature.arities.keys() - base_sig.arities.keys()))])

    base_rels, rel_capped = _enumeration_relations(
        Signature((r, a) for r, a in base_sig.arities.items() if r in relevant))
    rels = base_rels + [(r, a) for r, a in extension_rels if a <= MAX_ARITY]
    bodies, pool_capped = _guarded_bodies(rels, FG_MAX_EXTRA_BODY_ATOMS, k)
    space = _Space(bodies, [(r, a, None) for r, a in rels] + [(r, 0, None) for r, a in rels if a == 1],
                   _inject_input_rules(theory, "axiom"), theory)
    certified = _certify(ext.signature.extend(relations=extension_rels), space, config)

    # the extension names were picked without the copies in view, so the copies avoid them
    copies = _copy_map(base_sig, used | {ans_name, *names.values()})
    return _assemble(base_sig, copies, query, ans_name, certified,
                     _caps(k, ("fg_max_extra_body_atoms", FG_MAX_EXTRA_BODY_ATOMS)),
                     fam_capped or rel_capped or pool_capped,
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
