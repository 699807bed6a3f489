"""A fixed corpus of certain-answer problems used across the test suite.

Every problem of ``PROBLEMS`` pairs a guarded rule set with a single-atom
query whose variables are pairwise distinct and all free, so each of the
three rewriting schemes (atomic, conjunctive-query, frontier-guarded) is
applicable to every entry; on guarded rules the frontier-guarded scheme
compiles through the conjunctive-query one.  Problems are small by design:
the suite re-runs the full rewriting pipeline on each of them.

``FG_PROBLEMS`` holds frontier-guarded rule sets with an unguarded rule and
existential heads, which only the frontier-guarded scheme accepts and which
it compiles with its own guard-extension construction; ``FG_QUERIES`` lists
the answer-guarded queries they are compiled with.

``COMPILE_QUERIES`` pairs seven of these rule sets with queries and the
schemes to compile them under, as the benchmark's ``compile`` workload does:
the problems' own single-atom queries, and multi-atom and Boolean queries
that are answer-guarded wherever the fg scheme is listed.
"""

import functools
from typing import Optional

from gnfkit.query import atom, cq
from gnfkit.rewrite import (CertainAnswerProblem, RewriteArtifacts, rewrite_atomic_guarded,
                            rewrite_cq_guarded, rewrite_fg)
from gnfkit.syntax import parse_query
from gnfkit.tgd import make_tgd, tgd_signature


def _problem(name, rules, query):
    return CertainAnswerProblem(tuple(rules), query, name)


PROBLEMS: tuple[CertainAnswerProblem, ...] = (
    _problem(
        "u-propagation",
        [
            make_tgd([atom("R", "x", "y"), atom("U", "y")], [atom("U", "x")]),
            make_tgd([atom("U", "x")], [atom("S", "x", "z")]),
            make_tgd([atom("S", "x", "y")], [atom("T", "x")]),
        ],
        cq(["x"], [atom("T", "x")]),
    ),
    _problem(
        "edge-endpoint",
        [
            make_tgd([atom("E", "x", "y")], [atom("P", "x")]),
            make_tgd([atom("P", "x")], [atom("E", "x", "z")]),
        ],
        cq(["x"], [atom("P", "x")]),
    ),
    _problem(
        "unary-cycle",
        [
            make_tgd([atom("A", "x")], [atom("B", "x")]),
            make_tgd([atom("B", "x")], [atom("C", "x")]),
            make_tgd([atom("C", "x")], [atom("A", "x")]),
        ],
        cq(["x"], [atom("C", "x")]),
    ),
    _problem(
        "flip-collect",
        [
            make_tgd([atom("G", "x", "y"), atom("A", "x")], [atom("H", "y", "x")]),
            make_tgd([atom("H", "x", "y")], [atom("A", "y")]),
        ],
        cq(["x"], [atom("A", "x")]),
    ),
    _problem(
        "null-producer",
        [
            make_tgd([atom("U", "x")], [atom("R", "x", "z")]),
            make_tgd([atom("R", "x", "y")], [atom("V", "y")]),
            make_tgd([atom("V", "x")], [atom("U", "x")]),
        ],
        cq(["x"], [atom("V", "x")]),
    ),
    _problem(
        "pair-marker",
        [
            make_tgd([atom("R", "x", "y"), atom("U", "x"), atom("U", "y")],
                     [atom("S", "x", "y")]),
            make_tgd([atom("S", "x", "y")], [atom("R", "y", "w")]),
        ],
        cq(["x", "y"], [atom("S", "x", "y")]),
    ),
    _problem(
        "symmetric-loop",
        [
            make_tgd([atom("E", "x", "y")], [atom("E", "y", "x")]),
            make_tgd([atom("E", "x", "x")], [atom("L", "x")]),
        ],
        cq(["x"], [atom("L", "x")]),
    ),
    _problem(
        "triple-guard",
        [
            make_tgd([atom("W", "x", "y", "z")], [atom("R", "x", "y")]),
            make_tgd([atom("R", "x", "y")], [atom("W", "y", "w", "x")]),
        ],
        cq(["x", "y"], [atom("R", "x", "y")]),
    ),
    _problem(
        "mutual-unary",
        [
            make_tgd([atom("P", "x"), atom("E", "x", "y")], [atom("Q", "y")]),
            make_tgd([atom("Q", "x"), atom("E", "x", "y")], [atom("P", "y")]),
        ],
        cq(["x"], [atom("P", "x")]),
    ),
    _problem(
        "two-hop",
        [
            make_tgd([atom("E", "x", "y")], [atom("E", "y", "z")]),
            make_tgd([atom("E", "x", "y")], [atom("M", "x", "y")]),
            make_tgd([atom("M", "x", "y")], [atom("N", "y")]),
        ],
        cq(["x"], [atom("N", "x")]),
    ),
    _problem(
        "double-head",
        [
            make_tgd([atom("R", "x", "y")], [atom("U", "x"), atom("U", "y")]),
            make_tgd([atom("U", "x")], [atom("S", "x", "z")]),
            make_tgd([atom("S", "x", "y")], [atom("T", "x")]),
        ],
        cq(["x"], [atom("U", "x")]),
    ),
    _problem(
        "witness-mark",
        [
            make_tgd([atom("R", "x", "y")], [atom("S", "y", "z")]),
            make_tgd([atom("S", "x", "y")], [atom("W", "x", "y")]),
            make_tgd([atom("W", "x", "y")], [atom("V", "x")]),
        ],
        cq(["x"], [atom("V", "x")]),
    ),
)

# frontier-guarded, not guarded: each has a rule whose body no atom guards
FG_PROBLEMS: tuple[CertainAnswerProblem, ...] = (
    _problem(
        "join-witness",
        [
            make_tgd([atom("R", "x", "y"), atom("S", "y", "z")], [atom("T", "x", "w")]),
            make_tgd([atom("T", "x", "y")], [atom("P", "x")]),
        ],
        cq(["x"], [atom("P", "x")]),
    ),
    _problem(
        "two-step-witness",
        [
            make_tgd([atom("E", "x", "y"), atom("E", "y", "z")], [atom("F", "x", "w")]),
            make_tgd([atom("F", "x", "y"), atom("A", "y")], [atom("A", "x")]),
        ],
        cq(["x"], [atom("A", "x")]),
    ),
)

# (corpus problem, schemes, query text)
COMPILE_QUERIES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("u-propagation", ("atomic", "cq"), "T(x)"),
    ("edge-endpoint", ("atomic", "cq"), "P(x)"),
    ("unary-cycle", ("atomic", "cq", "fg"), "C(x)"),
    ("null-producer", ("atomic", "cq"), "V(x)"),
    ("pair-marker", ("atomic", "cq"), "S(x,y)"),
    ("symmetric-loop", ("atomic", "cq", "fg"), "L(x)"),
    ("mutual-unary", ("atomic", "cq"), "P(x)"),
    ("u-propagation", ("cq",), "exists y: R(x,y), U(y)"),
    ("mutual-unary", ("cq",), "exists y: E(x,y), Q(y)"),
    ("mutual-unary", ("cq",), "exists x: P(x), Q(x)"),
    ("edge-endpoint", ("cq",), "exists x,y: E(x,y), P(y)"),
    ("symmetric-loop", ("cq",), "exists x,y: E(x,y), E(y,x), L(x)"),
    ("unary-cycle", ("cq", "fg"), "A(x), C(x)"),
)


# corpus problems the benchmark leaves out for their compile time, checked
# against the oracle by the test suite only
ORACLE_QUERIES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("flip-collect", ("atomic", "cq"), "A(x)"),
    ("double-head", ("atomic", "cq"), "U(x)"),
    ("witness-mark", ("atomic", "cq"), "V(x)"),
)


# the frontier-guarded problems under their own and an existential query
FG_QUERIES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("join-witness", ("fg",), "P(x)"),
    ("join-witness", ("fg",), "exists w: T(x,w)"),
    ("two-step-witness", ("fg",), "A(x)"),
    ("two-step-witness", ("fg",), "exists w: F(x,w)"),
)


def corpus_problem(name: str) -> CertainAnswerProblem:
    """The problem `name` of `PROBLEMS` or `FG_PROBLEMS`."""
    return next(p for p in PROBLEMS + FG_PROBLEMS if p.name == name)


def compile_problem(name: str, query_text: str) -> CertainAnswerProblem:
    """The corpus problem `name` with `query_text` as its query."""
    rules = corpus_problem(name).rules
    return _problem(name, rules, parse_query(query_text, tgd_signature(rules)))


SCHEMES = {"atomic": rewrite_atomic_guarded, "cq": rewrite_cq_guarded, "fg": rewrite_fg}


@functools.lru_cache(maxsize=None)
def compiled_problem(name: str, scheme: str, query_text: Optional[str]
                     ) -> tuple[CertainAnswerProblem, RewriteArtifacts]:
    """The corpus problem `name`, with `query_text` as its query (None: its
    own), and its compile under `scheme`; compiled once per process, since
    several tests read the same compiles.  `query_text` has no default, so
    that every call names the same cache key."""
    problem = (corpus_problem(name) if query_text is None
               else compile_problem(name, query_text))
    return problem, SCHEMES[scheme](problem.rules, problem.query)
