"""Command line: one subcommand per pipeline stage, deterministic stdout.

Exit codes: 0 success; 1 a precondition failed (bad usage, bad file,
mismatched signatures, wrong query shape); 2 a budget ran out with the
answer still unknown (chase rounds, enumeration caps, countermodel size,
bisimulation instance size); 3 syntax error in an input.

Everything printed to stdout is byte-identical across repeated runs with the
same inputs and flags; wall-clock timing goes to stderr.  File formats are
documented in the syntax module.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .bisim import check_guarded_bisim, check_strong_gn
from .chase import TERMINATED, ChaseConfig, chase
from .datalog import classify_datalog, eval_datalog
from .logic import check_gnf, search_countermodel
from .model import (BudgetExceeded, Value, align_instance,
                    direct_product, squid_check, squid_extension)
from .query import ConjunctiveQuery, eval_cq, treeify
from .rewrite import (COMPLETE_WITHIN_CAPS, RewriteConfig, certain_answers_oracle,
                      rewrite_atomic_guarded, rewrite_cq_guarded, rewrite_fg)
from .syntax import (ParseError, parse_datalog, parse_formula, parse_instance,
                     parse_query, parse_theory, print_datalog, print_instance,
                     print_query, print_theory)
from .tgd import classify, specialize_to_fg

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_PARSE = 3


# ---------------------------------------------------------------------------
# shared plumbing


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _serialize_tuple(t: tuple[Value, ...]) -> str:
    if len(t) == 1:
        return t[0].name
    return "(" + ",".join(v.name for v in t) + ")"


def answer_line(label: str, answers, boolean: bool) -> str:
    """``T: a, b`` — tuples serialized and sorted; Boolean answers print as
    true/false."""
    if boolean:
        return f"{label}: {'true' if answers else 'false'}"
    if not answers:
        return f"{label}: (none)"
    return f"{label}: " + ", ".join(sorted(_serialize_tuple(t) for t in answers))


def _query_label(q: ConjunctiveQuery) -> str:
    if len(q.atoms) == 1 and not q.exist_vars:
        return q.atoms[0].rel
    return "answers"


def _chase_config(args) -> ChaseConfig:
    return ChaseConfig(mode=args.chase_mode, max_rounds=args.max_rounds,
                       max_facts=args.max_facts)


def _rewrite_config(args) -> RewriteConfig:
    return RewriteConfig(k=args.max_vars, oracle=ChaseConfig(max_rounds=args.max_rounds))


# ---------------------------------------------------------------------------
# subcommands


def cmd_chase(args) -> int:
    sig, rules = parse_theory(_read(args.theory))
    inst = align_instance(parse_instance(_read(args.instance)), sig)
    res = chase(inst, list(rules), _chase_config(args))
    print(f"status: {res.status}")
    print(f"rounds: {res.rounds_executed}")
    print(f"facts: {len(res.result)}")
    print()
    sys.stdout.write(print_instance(res.result))
    return EXIT_OK if res.status == TERMINATED else EXIT_BUDGET


def cmd_certain(args) -> int:
    sig, rules = parse_theory(_read(args.theory))
    inst = align_instance(parse_instance(_read(args.instance)), sig)
    q = parse_query(args.query, inst.sig)
    config = RewriteConfig(oracle=_chase_config(args))
    answers, complete = certain_answers_oracle(rules, q, inst, config)
    print(f"complete: {'yes' if complete else 'no'}")
    print(answer_line(_query_label(q), answers, boolean=not q.free_vars))
    return EXIT_OK if complete else EXIT_BUDGET


_REWRITERS = {"atomic": rewrite_atomic_guarded, "cq": rewrite_cq_guarded,
              "fg": rewrite_fg}


def cmd_rewrite(args) -> int:
    sig, rules = parse_theory(_read(args.theory))
    q = parse_query(args.query, sig)
    artifacts = _REWRITERS[args.mode](rules, q, _rewrite_config(args))
    print(f"completeness: {artifacts.completeness}")
    print(f"goal: {artifacts.program.goal}")
    print(f"rules: {len(artifacts.program.rules)}")
    print()
    sys.stdout.write(print_datalog(artifacts.program))
    return EXIT_OK if artifacts.completeness == COMPLETE_WITHIN_CAPS else EXIT_BUDGET


def cmd_eval_datalog(args) -> int:
    prog = parse_datalog(_read(args.program))
    inst = align_instance(parse_instance(_read(args.instance)), prog.edb)
    answers = eval_datalog(prog, inst)
    print(answer_line(prog.goal, answers, boolean=False))
    return EXIT_OK


def cmd_eval_cq(args) -> int:
    inst = parse_instance(_read(args.instance))
    q = parse_query(args.query, inst.sig)
    answers = eval_cq(q, inst)
    print(answer_line(_query_label(q), answers, boolean=not q.free_vars))
    return EXIT_OK


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_classify(args) -> int:
    chosen = [opt for opt in (args.theory, args.program, args.formula) if opt]
    if len(chosen) != 1:
        raise ValueError("classify needs exactly one of --theory/--program/--formula")
    if args.theory:
        _, rules = parse_theory(_read(args.theory))
        if not rules:
            raise ValueError("theory has no rules to classify")
        classes = [classify(t) for t in rules]
        for i, (t, c) in enumerate(zip(rules, classes), start=1):
            print(f"rule {i}: full={_yesno(c.full)} guarded={_yesno(c.guarded)} "
                  f"frontier_guarded={_yesno(c.frontier_guarded)} "
                  f"acyclic_frontier_guarded={_yesno(c.acyclic_frontier_guarded)} "
                  f"quasi_frontier_guarded={_yesno(c.quasi_frontier_guarded)}")
        print(f"theory: guarded={_yesno(all(c.guarded for c in classes))} "
              f"frontier_guarded={_yesno(all(c.frontier_guarded for c in classes))}")
    elif args.program:
        c = classify_datalog(parse_datalog(_read(args.program)))
        print(f"program: guarded={_yesno(c.guarded)} "
              f"internally_guarded={_yesno(c.internally_guarded)} "
              f"frontier_guarded={_yesno(c.frontier_guarded)}")
    else:
        report = check_gnf(parse_formula(args.formula))
        print(f"formula: gnf={_yesno(report.is_gnf)} gfo={_yesno(report.is_gfo)}")
        for where, reason in report.violations:
            print(f"violation: {reason} [{where}]")
    return EXIT_OK


def cmd_bisim(args) -> int:
    left = parse_instance(_read(args.left))
    right = parse_instance(_read(args.right))
    if args.kind == "guarded":
        witness = check_guarded_bisim(left, right)
        size = len(witness.family) if witness else 0
        unit = "maps"
    else:
        witness = check_strong_gn(left, right, max_size=args.max_size)
        size = len(witness.pairs) if witness else 0
        unit = "pairs"
    if witness is None:
        print("witness: none")
    else:
        print("witness: found")
        print(f"{unit}: {size}")
    return EXIT_OK


def cmd_product(args) -> int:
    left = parse_instance(_read(args.left))
    right = parse_instance(_read(args.right))
    prod = direct_product(left, right)
    print(f"facts: {len(prod)}")
    print()
    sys.stdout.write(print_instance(prod))
    return EXIT_OK


def cmd_squid(args) -> int:
    base = parse_instance(_read(args.base))
    extension = align_instance(parse_instance(_read(args.extension)), base.sig)
    base = align_instance(base, extension.sig)
    b_prime, _, tentacles = squid_extension(base, extension)
    ok = squid_check(base, b_prime, tentacles)
    print(f"tentacles: {len(tentacles)}")
    print(f"facts: {len(b_prime)}")
    print(f"check: {'ok' if ok else 'failed'}")
    print()
    sys.stdout.write(print_instance(b_prime))
    return EXIT_OK if ok else EXIT_PRECONDITION


def cmd_treeify(args) -> int:
    sig = parse_theory(_read(args.theory))[0] if args.theory else None
    q = parse_query(args.query, sig)
    members = treeify(q, args.max_atoms, args.max_vars, sig)
    print(f"members: {len(members)}")
    for m in sorted(print_query(m) for m in members):
        print(m)
    return EXIT_OK


def cmd_specialize(args) -> int:
    sig, rules = parse_theory(_read(args.theory))
    result = specialize_to_fg(rules, sig.constants,
                              oracle_config=_chase_config(args))
    print(f"specialized: {len(result.rules)}")
    print(f"failed: {len(result.failed)}")
    print()
    sys.stdout.write(print_theory(sig, result.rules))
    return EXIT_OK if result.ok else EXIT_BUDGET


def cmd_search_countermodel(args) -> int:
    f = parse_formula(args.formula)
    found = search_countermodel(f, max_size=args.max_size)
    if found is None:
        print(f"countermodel: none within size {args.max_size}")
        return EXIT_BUDGET
    names = ", ".join(sorted(v.name for v in found.domain))
    print("countermodel: found")
    print(f"domain: {names}")
    print()
    sys.stdout.write(print_instance(found.instance))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_chase_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-rounds", type=int, default=30,
                   help="chase round budget (default 30)")
    p.add_argument("--max-facts", type=int, default=10000,
                   help="chase fact budget (default 10000)")
    p.add_argument("--chase-mode", choices=["restricted", "oblivious_dedup"],
                   default="restricted", help="trigger satisfaction mode")


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, as any failed precondition: argparse's own
    code, 2, means here that a budget ran out.  Subcommand parsers share
    the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnfkit",
        description="Guarded-rule toolkit: chase, certain-answer rewriting, "
                    "bisimulation checks, model constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chase", help="saturate an instance under a theory")
    p.add_argument("--theory", required=True)
    p.add_argument("--instance", required=True)
    _add_chase_flags(p)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("certain", help="certain answers via the chase oracle")
    p.add_argument("--theory", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--query", required=True)
    _add_chase_flags(p)
    p.set_defaults(func=cmd_certain)

    p = sub.add_parser("rewrite", help="compile certain answers into Datalog")
    p.add_argument("--mode", choices=["atomic", "cq", "fg"], required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--max-vars", type=int, default=None,
                   help="variable budget for derived predicates "
                        "(default: from the rules and the query)")
    p.add_argument("--max-rounds", type=int, default=30,
                   help="chase budget for certification (default 30)")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("eval-datalog", help="least-fixpoint goal tuples")
    p.add_argument("--program", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_eval_datalog)

    p = sub.add_parser("eval-cq", help="evaluate a conjunctive query")
    p.add_argument("--query", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_eval_cq)

    p = sub.add_parser("classify", help="guardedness classes of rules, programs or formulas")
    p.add_argument("--theory")
    p.add_argument("--program")
    p.add_argument("--formula")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bisim", help="bisimulation witness search")
    p.add_argument("--kind", choices=["guarded", "strong-gn"], required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-size", type=int, default=12,
                   help="active-domain cap for strong-gn (default 12)")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("product", help="direct product of two instances")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("squid", help="squid extension of a base inside an extension")
    p.add_argument("--base", required=True)
    p.add_argument("--extension", required=True)
    p.set_defaults(func=cmd_squid)

    p = sub.add_parser("treeify", help="acyclic answer-guarded queries entailing a query")
    p.add_argument("--query", required=True)
    p.add_argument("--max-atoms", type=int, required=True)
    p.add_argument("--max-vars", type=int, required=True)
    p.add_argument("--theory", help="optional theory supplying the signature")
    p.set_defaults(func=cmd_treeify)

    p = sub.add_parser("specialize", help="frontier-guarded specializations of a theory")
    p.add_argument("--theory", required=True)
    _add_chase_flags(p)
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("search-countermodel", help="bounded falsifying structure")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-size", type=int, default=4)
    p.set_defaults(func=cmd_search_countermodel)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        print(f"time: {time.perf_counter() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
