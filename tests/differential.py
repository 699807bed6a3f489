"""The compilers against the chase oracle on seeded random guarded theories.

``sweep`` draws each theory over ``random_signature(max_rels=3)`` with 1-3
``random_guarded_tgd`` rules and compiles, per theory:

- an atomic query over a random relation, under the atomic and cq schemes;
- a ``random_cq`` of at most ``max_query_atoms`` atoms (default 2) and
  ``max_query_vars`` variables (default 3) under cq, and under fg when it is
  answer-guarded.

Each compile is run on 4 random instances of its theory and compared with the
oracle's answers on each.  A comparison is decided when the oracle's chase
terminated: the compiled answers must then be among the oracle's, and equal
to them when the compile is ``complete_within_caps``.  The test suite runs
small arity-2 sweeps with queries of 2 and of 3 atoms over 3 variables, and
of 4 atoms over 4 variables; ``tools/random_sweep.py`` runs larger ones.

``fg_sweep`` checks fg's own construction, which only a rule set with an
unguarded rule reaches: each draw is one ``random_frontier_guarded_tgd`` and
0-2 ``random_guarded_tgd`` rules over ``random_signature(max_rels=3)`` with a
``random_cq``, and only a draw with an unguarded rule and an answer-guarded
query is compiled, under fg, and compared in the same way.

``dl_sweep`` draws description-logic TBoxes: each theory has 4-12 concept
names and 1-3 role names (5-15 relations) and 2-8 ``random_dl_tbox`` axioms,
and its atomic query over a random concept is compiled under the atomic and
cq schemes and compared in the same way.  These theories are guarded, so fg
compiles them as cq does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gnfkit.model import Signature
from gnfkit.query import Atom, Var, cq, is_answer_guarded
from gnfkit.rewrite import (COMPLETE_WITHIN_CAPS, certain_answers_oracle, evaluate_program,
                            rewrite_atomic_guarded, rewrite_cq_guarded, rewrite_fg)
from gnfkit.tgd import classify
from randgen import (random_cq, random_dl_tbox, random_frontier_guarded_tgd, random_guarded_tgd,
                     random_instance, random_signature)


@dataclass
class SweepResult:
    """Counts over a sweep, and one line per mismatch."""

    compiles: int = 0
    capped: int = 0
    decided: int = 0
    undecided: int = 0
    mismatches: list[str] = field(default_factory=list)


def sweep(seed: int, theories: int, max_arity: int = 2, max_query_atoms: int = 2,
          max_query_vars: int = 3) -> SweepResult:
    rng = random.Random(seed)
    out = SweepResult()
    for n in range(theories):
        sig = random_signature(rng, max_rels=3, max_arity=max_arity)
        rules = [random_guarded_tgd(rng, sig) for _ in range(rng.randint(1, 3))]
        rel = rng.choice(sig.relations())
        names = [f"x{i}" for i in range(sig.arities[rel])]
        atomic = cq(names, [Atom(rel, tuple(map(Var, names)))])
        query = random_cq(rng, sig, max_atoms=max_query_atoms, max_vars=max_query_vars)
        compiles = [("atomic", rewrite_atomic_guarded, atomic), ("cq", rewrite_cq_guarded, atomic),
                    ("cq", rewrite_cq_guarded, query)]
        if is_answer_guarded(query):
            compiles.append(("fg", rewrite_fg, query))
        insts = [random_instance(rng, sig, max_elems=5, max_facts=8) for _ in range(4)]
        for scheme, compile_, q in compiles:
            _compare(out, f"theory {n} {scheme}", compile_(rules, q), rules, q, insts)
    return out


def fg_sweep(seed: int, theories: int, max_arity: int = 2) -> SweepResult:
    rng = random.Random(seed)
    out = SweepResult()
    for n in range(theories):
        sig = random_signature(rng, max_rels=3, max_arity=max_arity)
        rules = [random_frontier_guarded_tgd(rng, sig)]
        rules += [random_guarded_tgd(rng, sig) for _ in range(rng.randint(0, 2))]
        query = random_cq(rng, sig)
        if all(classify(t).guarded for t in rules) or not is_answer_guarded(query):
            continue
        insts = [random_instance(rng, sig, max_elems=5, max_facts=8) for _ in range(4)]
        _compare(out, f"theory {n} fg", rewrite_fg(rules, query), rules, query, insts)
    return out


def dl_sweep(seed: int, theories: int) -> SweepResult:
    rng = random.Random(seed)
    out = SweepResult()
    for n in range(theories):
        concepts = [f"A{i}" for i in range(rng.randint(4, 12))]
        roles = [f"R{i}" for i in range(rng.randint(1, 3))]
        sig = Signature([(c, 1) for c in concepts] + [(r, 2) for r in roles])
        rules = random_dl_tbox(rng, concepts, roles, rng.randint(2, 8))
        query = cq(["x"], [Atom(rng.choice(concepts), (Var("x"),))])
        insts = [random_instance(rng, sig, max_elems=5, max_facts=8) for _ in range(4)]
        for scheme, compile_ in (("atomic", rewrite_atomic_guarded), ("cq", rewrite_cq_guarded)):
            _compare(out, f"theory {n} {scheme}", compile_(rules, query), rules, query, insts)
    return out


def _compare(out: SweepResult, label: str, art, rules, query, insts) -> None:
    """Count one compile and its comparisons with the oracle on each instance."""
    complete = art.completeness == COMPLETE_WITHIN_CAPS
    out.compiles += 1
    out.capped += not complete
    for i, inst in enumerate(insts):
        expected, terminated = certain_answers_oracle(rules, query, inst)
        if not terminated:
            out.undecided += 1
            continue
        out.decided += 1
        got = evaluate_program(art, inst)
        if not got <= expected or (complete and got != expected):
            out.mismatches.append(
                f"{label} {query} instance {i}: compiled {sorted(got)}, "
                f"oracle {sorted(expected)}, {art.completeness}")
