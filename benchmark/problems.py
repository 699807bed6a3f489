"""Benchmark inputs: problem manifests, seeded instances and reference answers.

Theories and queries are read from the text files under ``inputs/`` through
``gnfkit.syntax``.  Instances are drawn from the seed.  Every query the
benchmark answers has a closed form over the input relations, written here
without any gnfkit code, so answers are checked against the input rather than
against a stored copy of some earlier output.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict
from dataclasses import dataclass

from gnfkit import syntax
from gnfkit.model import Fact, Instance, elem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")


@dataclass(frozen=True)
class Problem:
    name: str        # theory file stem
    query_text: str  # as written in the manifest; keys the reference
    schemes: tuple[str, ...]
    sig: object      # gnfkit.model.Signature of the theory
    rules: tuple
    query: object    # gnfkit.query.ConjunctiveQuery

    @property
    def label(self) -> str:
        return f"{self.name} | {self.query_text}"


def read_input(*parts: str) -> str:
    with open(os.path.join(INPUTS, *parts), encoding="utf-8") as fh:
        return fh.read()


def load_manifest(filename: str) -> list[Problem]:
    """Parse a ``problem | schemes | query`` manifest; theories and queries go
    through the library's parsers."""
    theories: dict[str, tuple] = {}
    out = []
    for line in read_input(filename).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, schemes, query_text = (part.strip() for part in line.split("|"))
        if name not in theories:
            theories[name] = syntax.parse_theory(read_input("theories", f"{name}.gnf"))
        sig, rules = theories[name]
        query = syntax.parse_query(query_text, sig)
        out.append(Problem(name, query_text, tuple(schemes.split()), sig, rules, query))
    return out


# ---------------------------------------------------------------------------
# seeded instances


def random_instance(sig, n_facts: int, n_elems: int, rng: random.Random) -> Instance:
    """Exactly ``n_facts`` distinct facts over ``n_elems`` elements, split as
    evenly as possible across the relations, so that every seed gives an
    instance of the same size and shape."""
    rels = sig.relations()
    elems = [elem(f"e{i}") for i in range(n_elems)]
    facts: set[Fact] = set()
    for i, rel in enumerate(rels):
        want = n_facts // len(rels) + (1 if i < n_facts % len(rels) else 0)
        arity = sig.arities[rel]
        want = min(want, n_elems ** arity)
        mine: set[Fact] = set()
        while len(mine) < want:
            mine.add(Fact(rel, tuple(rng.choice(elems) for _ in range(arity))))
        facts |= mine
    return Instance(sig, facts)


# ---------------------------------------------------------------------------
# reference answers: closed forms over the input relations


def relation(inst: Instance, rel: str) -> set[tuple[str, ...]]:
    return {tuple(v.name for v in f.args) for f in inst.rel_facts(rel)}


def unary(inst: Instance, rel: str) -> set[str]:
    return {t[0] for t in relation(inst, rel)}


def reaching(edges: set[tuple[str, str]], targets: set[str]) -> set[str]:
    """Nodes with an edge path (of length zero or more) to some target."""
    preds: dict[str, set[str]] = defaultdict(set)
    for x, y in edges:
        preds[y].add(x)
    seen = set(targets)
    stack = list(targets)
    while stack:
        for x in preds[stack.pop()]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def _u_propagation_t(inst: Instance) -> set[str]:
    # U spreads backwards along R; every U element gets an S-successor, and
    # every first column of S is a T element.
    ustar = reaching(relation(inst, "R"), unary(inst, "U"))
    return unary(inst, "T") | {x for x, _ in relation(inst, "S")} | ustar


def _parity_reach(inst: Instance) -> tuple[set[str], set[str]]:
    """mutual-unary: P flips to Q and Q back to P along each E edge."""
    succ: dict[str, set[str]] = defaultdict(set)
    for x, y in relation(inst, "E"):
        succ[x].add(y)
    seen = {(x, "P") for x in unary(inst, "P")} | {(x, "Q") for x in unary(inst, "Q")}
    stack = list(seen)
    while stack:
        x, side = stack.pop()
        nxt = "Q" if side == "P" else "P"
        for y in succ[x]:
            if (y, nxt) not in seen:
                seen.add((y, nxt))
                stack.append((y, nxt))
    return ({x for x, s in seen if s == "P"}, {x for x, s in seen if s == "Q"})


def _symmetric(inst: Instance) -> tuple[set[tuple[str, str]], set[str]]:
    edges = relation(inst, "E")
    sym = edges | {(y, x) for x, y in edges}
    loops = unary(inst, "L") | {x for x, y in edges if x == y}
    return sym, loops


def _edge_p(inst: Instance) -> set[str]:
    # P(x) -> exists z: E(x,z) only adds edges to fresh nulls, which never get P.
    return unary(inst, "P") | {x for x, _ in relation(inst, "E")}


def _unaries(xs: set[str]) -> set[tuple[str, ...]]:
    return {(x,) for x in xs}


def _boolean(holds: bool) -> set[tuple[str, ...]]:
    return {()} if holds else set()


def _u_propagation_ry(i: Instance) -> set[tuple[str, ...]]:
    ustar = reaching(relation(i, "R"), unary(i, "U"))
    return _unaries({x for x, y in relation(i, "R") if y in ustar})


def _edge_endpoint_boolean(i: Instance) -> set[tuple[str, ...]]:
    p = _edge_p(i)
    return _boolean(any(y in p for _, y in relation(i, "E")))


def _symmetric_boolean(i: Instance) -> set[tuple[str, ...]]:
    sym, loops = _symmetric(i)
    return _boolean(any(x in loops for x, _ in sym))


def _mutual_eq(i: Instance) -> set[tuple[str, ...]]:
    q = _parity_reach(i)[1]
    return _unaries({x for x, y in relation(i, "E") if y in q})


def _mutual_boolean(i: Instance) -> set[tuple[str, ...]]:
    p, q = _parity_reach(i)
    return _boolean(bool(p & q))


def _any_unary(i: Instance) -> set[tuple[str, ...]]:
    return _unaries(unary(i, "A") | unary(i, "B") | unary(i, "C"))


REFERENCES = {
    ("u-propagation", "T(x)"): lambda i: _unaries(_u_propagation_t(i)),
    ("u-propagation", "exists y: R(x,y), U(y)"): _u_propagation_ry,
    ("edge-endpoint", "P(x)"): lambda i: _unaries(_edge_p(i)),
    ("edge-endpoint", "exists x,y: E(x,y), P(y)"): _edge_endpoint_boolean,
    ("unary-cycle", "C(x)"): _any_unary,
    ("unary-cycle", "A(x), C(x)"): _any_unary,
    # U(x) -> exists z: R(x,z) only reaches fresh nulls, so V gains exactly
    # the second column of R.
    ("null-producer", "V(x)"): lambda i: _unaries(
        unary(i, "V") | {y for _, y in relation(i, "R")}),
    ("pair-marker", "S(x,y)"): lambda i: relation(i, "S") | {
        (x, y) for x, y in relation(i, "R") if {x, y} <= unary(i, "U")},
    ("symmetric-loop", "L(x)"): lambda i: _unaries(_symmetric(i)[1]),
    ("symmetric-loop", "exists x,y: E(x,y), E(y,x), L(x)"): _symmetric_boolean,
    ("mutual-unary", "P(x)"): lambda i: _unaries(_parity_reach(i)[0]),
    ("mutual-unary", "exists y: E(x,y), Q(y)"): _mutual_eq,
    ("mutual-unary", "exists x: P(x), Q(x)"): _mutual_boolean,
}


def reference(problem: Problem, inst: Instance) -> set[tuple[str, ...]]:
    return REFERENCES[(problem.name, problem.query_text)](inst)


def names(answers) -> set[tuple[str, ...]]:
    """Library answer tuples as tuples of value names."""
    return {tuple(v.name for v in t) for t in answers}
