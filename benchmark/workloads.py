"""The three workloads: what each sets up, times, checks and runs on the CLI.

A workload is built from the seed in ``setup``.  ``ops`` is the fixed batch
of library calls that is timed, each with a check of its output; the same
batch runs again and again.  ``final_checks`` are untimed checks made once
after the batches, and ``cli_commands`` are the ``gnfkit`` invocations timed
as subprocesses.  Library functions are called through their modules
(``rewrite.rewrite_fg`` rather than a bound name), so that the traced mode
can wrap them.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from gnfkit import bisim, datalog, logic, model, query, rewrite, syntax
from gnfkit.model import Fact, Instance, Signature, elem

import checks
import problems
from problems import INPUTS, ROOT, Problem

SCHEMES = {"atomic": "rewrite_atomic_guarded", "cq": "rewrite_cq_guarded",
           "fg": "rewrite_fg"}
# jobs=1: every call runs in this process, so its memory and time are measured
CONFIG = rewrite.RewriteConfig(jobs=1)


def compile_with(scheme: str, p: Problem):
    return getattr(rewrite, SCHEMES[scheme])(p.rules, p.query, CONFIG)


@dataclass
class Op:
    """One library call and the check of its result (True when correct)."""
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class CliCommand:
    """One ``gnfkit`` invocation; ``check`` gets (exit code, stdout)."""
    argv: list[str]
    check: Callable[[int, str], bool]


def _input(*parts: str) -> str:
    """An input file's path as the CLI sees it: relative to the repository
    root, where the commands run."""
    return os.path.relpath(os.path.join(INPUTS, *parts), ROOT)


def _answer_names(line: str, label: str) -> set[str]:
    """Names on a CLI answer line such as ``T: a, b`` (``(none)`` is empty)."""
    head, _, rest = line.partition(": ")
    if head != label:
        raise ValueError(f"unexpected answer line {line!r}")
    return set() if rest == "(none)" else set(rest.split(", "))


def _compile_cli(scheme: str, p: Problem, expected) -> CliCommand:
    def check(code: int, out: str) -> bool:
        header, _, program_text = out.partition("\n\n")
        want = [f"completeness: {expected.completeness}",
                f"goal: {expected.program.goal}",
                f"rules: {len(expected.program.rules)}"]
        printed = syntax.parse_datalog(program_text)
        return (header.splitlines() == want
                and sorted(map(str, printed.rules)) == sorted(map(str, expected.program.rules))
                and code == (0 if expected.completeness == rewrite.COMPLETE_WITHIN_CAPS else 2))

    return CliCommand(["rewrite", "--mode", scheme,
                       "--theory", _input("theories", f"{p.name}.gnf"),
                       "--query", p.query_text], check)


# ---------------------------------------------------------------------------
# compile: many small chases certifying candidate rules


class Compile:
    """Compile every problem of inputs/compile.txt under each listed scheme."""

    DIFF_INSTANCES = 3   # small seeded instances per compiled problem
    DIFF_FACTS = 12
    DIFF_ELEMS = 6

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        manifest = problems.load_manifest("compile.txt")
        jobs = [(scheme, p) for p in manifest for scheme in p.schemes]
        # the seed fixes the order of the batch; the work does not depend on it
        self.rng.shuffle(jobs)
        self.jobs = jobs
        self.printed: dict[str, str] = {}
        self.last: dict[str, object] = {}
        by_label = {p.label: p for p in manifest}
        # the CLI compiles two small problems; the first compile is the warm-up
        self.cli_expected = [(scheme, by_label[label], compile_with(scheme, by_label[label]))
                             for scheme, label in (("atomic", "unary-cycle | C(x)"),
                                                   ("cq", "edge-endpoint | P(x)"))]

    def _op(self, scheme: str, p: Problem) -> Op:
        key = f"{scheme} {p.label}"

        def run():
            art = compile_with(scheme, p)
            return art, syntax.print_datalog(art.program)

        def check(result) -> bool:
            art, text = result
            same = self.printed.setdefault(key, text) == text
            self.last[key] = (scheme, p, art)
            return same and checks.program_in_class(scheme, art.program)

        return Op(f"compile {key}", run, check)

    def ops(self) -> list[Op]:
        return [self._op(scheme, p) for scheme, p in self.jobs]

    def final_checks(self) -> list[Op]:
        """On small seeded instances, compiled answers lie within the closed
        form (equal when the compile is complete) and equal the chase
        oracle's whenever both are complete."""
        out = []
        for key in sorted(self.last):
            scheme, p, art = self.last[key]
            for i in range(self.DIFF_INSTANCES):
                inst = problems.random_instance(p.sig, self.DIFF_FACTS, self.DIFF_ELEMS, self.rng)
                out.append(Op(f"differential {key} #{i}",
                              lambda art=art, p=p, inst=inst: _differential(art, p, inst),
                              bool))
        return out

    def cli_commands(self) -> list[CliCommand]:
        return [_compile_cli(s, p, art) for s, p, art in self.cli_expected]


def _differential(art, p: Problem, inst) -> bool:
    ref = problems.reference(p, inst)
    got = problems.names(rewrite.evaluate_program(art, inst))
    oracle, terminated = rewrite.certain_answers_oracle(p.rules, p.query, inst, CONFIG)
    oracle = problems.names(oracle)
    complete = art.completeness == rewrite.COMPLETE_WITHIN_CAPS
    return (got <= ref and oracle <= ref
            and (not complete or got == ref)
            and (not terminated or oracle == ref)
            and (not (complete and terminated) or got == oracle))


# ---------------------------------------------------------------------------
# answer: compiled programs and the chase oracle over larger instances


class Answer:
    """Evaluate programs compiled at set-up on small seeded instances, and
    answer the same queries with the chase oracle on larger ones."""

    EVAL_FACTS, EVAL_ELEMS = 100, 60
    ORACLE_FACTS, ORACLE_ELEMS = 500, 250

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.items = []
        for p in problems.load_manifest("answer.txt"):
            (scheme,) = p.schemes
            small = problems.random_instance(p.sig, self.EVAL_FACTS, self.EVAL_ELEMS, rng)
            large = problems.random_instance(p.sig, self.ORACLE_FACTS, self.ORACLE_ELEMS, rng)
            art = compile_with(scheme, p)
            self.items.append((scheme, p, art, small, large,
                               problems.reference(p, small), problems.reference(p, large)))
        self._cli_setup()
        # warm-up: the cheapest evaluation of the batch
        cheapest = min(self.items, key=lambda it: len(it[2].program.rules))
        rewrite.evaluate_program(cheapest[2], cheapest[3])

    def ops(self) -> list[Op]:
        out = []
        for scheme, p, art, small, large, ref_small, ref_large in self.items:
            complete = art.completeness == rewrite.COMPLETE_WITHIN_CAPS

            def check_eval(ans, ref=ref_small, complete=complete) -> bool:
                got = problems.names(ans)
                return got <= ref and (not complete or got == ref)

            def check_oracle(result, ref=ref_large) -> bool:
                ans, terminated = result
                got = problems.names(ans)
                return got <= ref and (not terminated or got == ref)

            out.append(Op(f"evaluate {scheme} {p.label}",
                          lambda art=art, small=small: rewrite.evaluate_program(art, small),
                          check_eval))
            out.append(Op(f"oracle {p.label}",
                          lambda p=p, large=large: rewrite.certain_answers_oracle(
                              p.rules, p.query, large, CONFIG),
                          check_oracle))
        return out

    def final_checks(self) -> list[Op]:
        return []

    def _cli_setup(self) -> None:
        theory = _input("theories", "u-propagation.gnf")
        inst_path = _input("cli", "u-propagation.inst")
        program_path = _input("cli", "reach.dl")
        reach_path = _input("cli", "reach.inst")
        _, rules = syntax.parse_theory(problems.read_input("theories", "u-propagation.gnf"))
        inst = syntax.parse_instance(problems.read_input("cli", "u-propagation.inst"))
        reach = syntax.parse_instance(problems.read_input("cli", "reach.inst"))
        q = syntax.parse_query("T(x)", inst.sig)
        oracle, _ = rewrite.certain_answers_oracle(rules, q, inst, CONFIG)
        certain_names = {n for (n,) in problems.names(oracle)}
        program = syntax.parse_datalog(problems.read_input("cli", "reach.dl"))
        derived = {n for (n,) in problems.names(datalog.eval_datalog(program, reach))}
        # closed forms: T as for u-propagation; Goal is everything with an
        # R-path to a U element
        t_ref = {n for (n,) in problems.REFERENCES[("u-propagation", "T(x)")](inst)}
        reach_ref = problems.reaching(problems.relation(reach, "R"), problems.unary(reach, "U"))

        def check_certain(code: int, out: str) -> bool:
            lines = out.splitlines()
            return (code == 0 and lines[0] == "complete: yes"
                    and _answer_names(lines[1], "T") == certain_names == t_ref)

        def check_eval(code: int, out: str) -> bool:
            return code == 0 and _answer_names(out.strip(), "Goal") == derived == reach_ref

        self.cli = [
            CliCommand(["certain", "--theory", theory, "--instance", inst_path,
                        "--query", "T(x)"], check_certain),
            CliCommand(["eval-datalog", "--program", program_path,
                        "--instance", reach_path], check_eval),
        ]

    def cli_commands(self) -> list[CliCommand]:
        return self.cli


# ---------------------------------------------------------------------------
# model-theory: bisimulation, homomorphisms, products, treeification, logic


def _renamed(inst: Instance, rng: random.Random, prefix: str) -> tuple[Instance, dict]:
    """A copy of ``inst`` under a seeded bijective renaming of its elements."""
    dom = sorted(model.active_domain(inst), key=lambda v: v.name)
    targets = [f"{prefix}{i}" for i in range(len(dom))]
    rng.shuffle(targets)
    ren = {v: elem(t) for v, t in zip(dom, targets)}
    facts = (Fact(f.rel, tuple(ren[v] for v in f.args)) for f in inst.facts)
    return Instance(inst.sig, facts), {v.name: w.name for v, w in ren.items()}


def _union(a: Instance, b: Instance) -> Instance:
    return Instance(a.sig, a.facts | b.facts)


def _maps_are_partial_isos(witness, a, b) -> bool:
    fa, fb = checks.facts_of(a), checks.facts_of(b)
    return all(checks.is_partial_iso({v.name: w.name for v, w in m.items()}, fa, fb)
               for m in witness.maps())


def _strong_witness_ok(witness, a, b) -> bool:
    """Every stored homomorphism maps its pair's tuple onto the partner and
    preserves every fact, checked directly."""
    fa, fb = checks.facts_of(a), checks.facts_of(b)
    for homs, src, dst, fwd in ((witness.forward, fa, fb, True),
                                (witness.backward, fb, fa, False)):
        for (ta, tb), h in homs:
            m = {v.name: w.name for v, w in h.as_dict().items()}
            s, t = (ta, tb) if fwd else (tb, ta)
            if [m.get(v.name) for v in s] != [v.name for v in t]:
                return False
            if not checks.is_hom(m, src, dst):
                return False
    return True


def _countermodel_ok(kind: str, f, found) -> bool:
    """Tautologies have no countermodel; any countermodel found falsifies
    its sentence under the naive evaluator."""
    if kind == "tautology":
        return found is None
    return found is not None and not checks.holds(
        f, checks.facts_of(found.instance), {v.name for v in found.domain})


def _naive_truths(sentences, inst) -> list[bool]:
    facts = checks.facts_of(inst)
    dom = checks.domain_of(facts)
    return [checks.holds(f, facts, dom) for _, f in sentences]


class ModelTheory:
    """Bisimulation checks, amalgamation, products with homomorphisms,
    treeification and countermodel search, each checked against facts that
    are known independently of gnfkit."""

    GUARDED_CYCLES = range(3, 9)          # all pairs of C3..C8
    STRONG_PAIRS = ((4, 6), (5, 7))       # never strongly GN-bisimilar
    STRONG_DOUBLED = (4, 5)               # C_k against C_k plus a renamed copy
    PRODUCTS = ((4, 6), (6, 9), (5, 10))
    RANDOM_ELEMS, RANDOM_FACTS = 12, 24   # random structures with renamed copies
    EVAL_ELEMS, EVAL_FACTS, EVAL_STRUCTURES = 16, 60, 12
    COUNTERMODEL_SIZE = 3
    TREEIFY = ("exists y,z: E(x,y), E(y,z), E(z,x)", 3, 4)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sig = Signature([("E", 2), ("P", 1)])
        self.sentences = []
        for line in problems.read_input("sentences.txt").splitlines():
            if line.strip() and not line.startswith("#"):
                kind, text = (s.strip() for s in line.split("|", 1))
                self.sentences.append((kind, syntax.parse_formula(text, self.sig)))
        text, atoms, nvars = self.TREEIFY
        self.treeify_query = (syntax.parse_query(text), atoms, nvars)
        self.cycles = {k: bisim.directed_cycle(k) for k in range(1, 13)}
        self.randoms = []
        for prefix in ("r", "s"):
            a = problems.random_instance(self.sig, self.RANDOM_FACTS, self.RANDOM_ELEMS, rng)
            copy, ren = _renamed(a, rng, prefix)
            self.randoms.append((a, copy, ren))
        self.doubled = {k: _union(self.cycles[k], _renamed(self.cycles[k], rng, "m")[0])
                        for k in self.STRONG_DOUBLED}
        self.amalgam = self._amalgam_inputs(rng)
        self.structures = [problems.random_instance(self.sig, self.EVAL_FACTS,
                                                    self.EVAL_ELEMS, rng)
                           for _ in range(self.EVAL_STRUCTURES)]
        self._cli_setup()
        # warm-up: the smallest guarded-bisimulation check
        bisim.check_guarded_bisim(self.cycles[3], self.cycles[3])

    def _amalgam_inputs(self, rng: random.Random):
        sigma = Signature([("E", 2), ("P", 1)])
        tau = Signature([("E", 2), ("Q", 1)])
        base = self.cycles[4]
        copy, _ = _renamed(base, rng, "q")
        a_dom = sorted(model.active_domain(base), key=lambda v: v.name)
        b_dom = sorted(model.active_domain(copy), key=lambda v: v.name)
        a = Instance(sigma, set(base.facts) | {Fact("P", (rng.choice(a_dom),))})
        b = Instance(tau, set(copy.facts) | {Fact("Q", (rng.choice(b_dom),))})
        return a, b, sigma, tau

    # -- ops: one per call, so that each is timed on its own ----------------------

    def ops(self) -> list[Op]:
        out = []
        for k in self.GUARDED_CYCLES:
            for l in self.GUARDED_CYCLES:
                out.append(self._guarded_op(self.cycles[k], self.cycles[l], f"C{k} C{l}", None))
        for i, (a, copy, ren) in enumerate(self.randoms):
            out.append(self._guarded_op(a, copy, f"random #{i} and its copy", ren))
        for k, l in self.STRONG_PAIRS:
            out.append(Op(f"strong GN C{k} C{l}",
                          lambda k=k, l=l: bisim.check_strong_gn(self.cycles[k], self.cycles[l]),
                          lambda w: w is None))
        for k in self.STRONG_DOUBLED:
            a, b = self.cycles[k], self.doubled[k]
            out.append(Op(f"strong GN C{k} and two copies",
                          lambda a=a, b=b, k=k: bisim.check_strong_gn(a, b, max_size=2 * k),
                          lambda w, a=a, b=b: w is not None and _strong_witness_ok(w, a, b)))
        out.append(Op("amalgamation", self._amalgamate, self._check_amalgamate))
        for k, l in self.PRODUCTS:
            out.append(Op(f"product C{k} x C{l} and homomorphisms",
                          lambda k=k, l=l: self._product(k, l),
                          lambda r, k=k, l=l: self._check_product(k, l, *r)))
        out.append(Op("treeification", self._treeify, self._check_treeify))
        for i, (kind, f) in enumerate(self.sentences):
            out.append(Op(f"countermodel search #{i}",
                          lambda f=f: logic.search_countermodel(f, self.COUNTERMODEL_SIZE),
                          lambda found, kind=kind, f=f: _countermodel_ok(kind, f, found)))
        for i, inst in enumerate(self.structures):
            out.append(Op(f"first-order evaluation on structure #{i}",
                          lambda inst=inst: [logic.eval_fo(f, inst) for _, f in self.sentences],
                          lambda row, inst=inst: row == _naive_truths(self.sentences, inst)))
        return out

    @staticmethod
    def _guarded_op(a, b, label: str, renaming) -> Op:
        def check(w) -> bool:
            # all directed cycles are guarded-bisimilar, and so is any
            # structure with a renamed copy of itself; every map in the
            # witness must be a partial isomorphism
            if w is None or not _maps_are_partial_isos(w, a, b):
                return False
            if renaming is None:
                return True
            # the renaming restricted to each fact's elements is in the
            # greatest bisimulation
            family = {frozenset((v.name, t.name) for v, t in m.items()) for m in w.maps()}
            return all(frozenset((v.name, renaming[v.name]) for v in f.args) in family
                       for f in a.facts)

        return Op(f"guarded bisimulation {label}",
                  lambda: bisim.check_guarded_bisim(a, b), check)

    def _amalgamate(self):
        a, b, sigma, tau = self.amalgam
        z = bisim.check_strong_gn(model.reduct(a, ["E"]), model.reduct(b, ["E"]))
        return None if z is None else bisim.amalgamate(a, b, z, sigma, tau, max_size=16)

    def _check_amalgamate(self, u) -> bool:
        # the two projections of the pair values are homomorphisms onto the
        # sigma-part of a and the tau-part of b
        if u is None:
            return False
        a, b, sigma, tau = self.amalgam
        left, right = {}, {}
        for c in model.active_domain(a):
            for d in model.active_domain(b):
                pv = model.pair_value(c, d).name
                left[pv], right[pv] = c.name, d.name
        fu = checks.facts_of(u)
        u_sigma = {f for f in fu if f[0] in sigma.arities}
        u_tau = {f for f in fu if f[0] in tau.arities}
        return (bool(fu) and checks.is_hom(left, u_sigma, checks.facts_of(a))
                and checks.is_hom(right, u_tau, checks.facts_of(b)))

    def _product(self, k: int, l: int):
        prod = model.direct_product(self.cycles[k], self.cycles[l])
        onto_gcd = model.find_homomorphism(prod, self.cycles[math.gcd(k, l)])
        k_to_l = model.find_homomorphism(self.cycles[k], self.cycles[l])
        return prod, onto_gcd, k_to_l

    def _check_product(self, k: int, l: int, prod, onto_gcd, k_to_l) -> bool:
        # C_k x C_l has k*l edges, in- and out-degree 1 and gcd(k, l)
        # components, so it maps onto C_gcd; C_k maps into C_l iff l | k
        g = math.gcd(k, l)
        edges = {args for _, args in checks.facts_of(prod)}
        outd, ind = checks.degrees(edges)
        return (len(edges) == k * l and outd == {1} and ind == {1}
                and checks.weak_components(edges) == g
                and onto_gcd is not None
                and checks.is_hom({v.name: w.name for v, w in onto_gcd.as_dict().items()},
                                  checks.facts_of(prod), checks.facts_of(self.cycles[g]))
                and (k_to_l is not None) == (k % l == 0))

    def _treeify(self):
        q, atoms, nvars = self.treeify_query
        return query.treeify(q, atoms, nvars)

    def _check_treeify(self, members) -> bool:
        # every member is acyclic and contained in the query
        q = self.treeify_query[0]
        return bool(members) and all(
            checks.hypergraph_acyclic(m) and checks.query_contained(m, q) for m in members)

    def final_checks(self) -> list[Op]:
        return []

    # -- CLI -------------------------------------------------------------------

    def _cli_setup(self) -> None:
        c3, c6 = _input("cli", "c3.inst"), _input("cli", "c6.inst")
        left = syntax.parse_instance(problems.read_input("cli", "c3.inst"))
        right = syntax.parse_instance(problems.read_input("cli", "c6.inst"))
        w = bisim.check_guarded_bisim(left, right)
        maps = len(w.family) if w is not None else 0
        sentence = "!(exists x. exists y. E(x,y) & !E(y,x))"
        f = syntax.parse_formula(sentence)
        found = logic.search_countermodel(f, 3)

        def check_bisim(code: int, out: str) -> bool:
            return code == 0 and w is not None and out == f"witness: found\nmaps: {maps}\n"

        def check_countermodel(code: int, out: str) -> bool:
            head, _, inst_text = out.partition("\n\n")
            printed = syntax.parse_instance(inst_text)
            fp = checks.facts_of(printed)
            lines = head.splitlines()
            dom = set(lines[1].removeprefix("domain: ").split(", "))
            return (code == 0 and lines[0] == "countermodel: found"
                    and fp == checks.facts_of(found.instance)
                    and dom == {v.name for v in found.domain}
                    and not checks.holds(f, fp, dom))

        self.cli = [
            CliCommand(["bisim", "--kind", "guarded", "--left", c3, "--right", c6],
                       check_bisim),
            CliCommand(["search-countermodel", "--formula", sentence, "--max-size", "3"],
                       check_countermodel),
        ]

    def cli_commands(self) -> list[CliCommand]:
        return self.cli


WORKLOADS = {"compile": Compile, "answer": Answer, "model-theory": ModelTheory}
