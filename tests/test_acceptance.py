"""Acceptance suite: ten end-to-end checks at fixed scales.

Each test prints one ``criterion N [label]: PASS/FAIL`` line (shown with
``pytest -s``; captured otherwise) and enforces its runtime bound where one
is stated.  All randomized checks run from fixed seeds, so the suite always
exercises the same inputs.
"""

import itertools
import random
import time
from contextlib import contextmanager

from corpus import PROBLEMS
from oracles import (naive_eval_cq, naive_eval_datalog, naive_eval_fo,
                     naive_find_homomorphism)
from randgen import (
    random_cq,
    random_datalog_program,
    random_formula,
    random_frontier_guarded_tgd,
    random_full_tgd,
    random_gnf_sentence,
    random_guarded_tgd,
    random_instance,
    random_signature,
)

from gnfkit.bisim import (
    amalgamate,
    check_directional,
    check_guarded_bisim,
    check_strong_gn,
    directed_cycle,
    guarded_tuples,
)
from gnfkit.chase import (
    TERMINATED,
    ChaseConfig,
    chase,
    is_fact_saturated,
    is_guardedly_fact_saturated,
    tentacle_decomposition,
)
from gnfkit.datalog import (
    DatalogProgram,
    Rule,
    classify_datalog,
    eval_datalog,
    eval_datalog_fixpoint,
)
from gnfkit.logic import eval_fo
from gnfkit.model import (
    Fact,
    Instance,
    Signature,
    active_domain,
    direct_product,
    elem,
    find_homomorphism,
    is_guarded_set,
    pair_value,
    reduct,
    squid_check,
    weak_substructure,
)
from gnfkit.query import (
    atom,
    cq,
    cq_contained,
    eval_cq,
    is_acyclic,
    treeify,
)
from gnfkit.rewrite import (
    certain_answers_oracle,
    evaluate_program,
    rewrite_atomic_guarded,
    rewrite_cq_guarded,
    rewrite_fg,
)
from gnfkit.tgd import classify, make_tgd


@contextmanager
def criterion(n: int, label: str, bound: float | None = None):
    """Print exactly one summary line for the criterion, checking the runtime
    bound when one is stated."""
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if bound is not None and elapsed >= bound:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds {bound:.0f}s bound")
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"criterion {n:2d} [{label}]: PASS ({time.perf_counter() - t0:.1f}s)")


def _fact(rel: str, *names: str) -> Fact:
    return Fact(rel, tuple(elem(n) for n in names))


# The worked example: U propagates backwards along R, every U-element gets an
# S-successor, and S-sources are marked T.
SIG_EX = Signature([("R", 2), ("U", 1), ("S", 2), ("T", 1)])

RULES_EX = (
    make_tgd([atom("R", "x", "y"), atom("U", "y")], [atom("U", "x")]),
    make_tgd([atom("U", "x")], [atom("S", "x", "z")]),
    make_tgd([atom("S", "x", "y")], [atom("T", "x")]),
)

QUERY_EX = cq(["x"], [atom("T", "x")])

I_EX = Instance(SIG_EX, [_fact("R", "a", "b"), _fact("U", "b")])

# The hand-written program for the worked example: T is certain wherever T or
# an S-fact is already present, or where U is derivable (U propagates to an
# element from any R-successor with U).
P_EX = DatalogProgram(
    SIG_EX,
    Signature([("UReach", 1), ("Goal", 1)]),
    (
        Rule(atom("UReach", "x"), (atom("U", "x"),)),
        Rule(atom("UReach", "x"), (atom("R", "x", "y"), atom("UReach", "y"))),
        Rule(atom("Goal", "x"), (atom("UReach", "x"),)),
        Rule(atom("Goal", "x"), (atom("T", "x"),)),
        Rule(atom("Goal", "x"), (atom("S", "x", "y"),)),
    ),
    "Goal",
)

AB = frozenset({(elem("a"),), (elem("b"),)})


def models(inst: Instance, rules) -> bool:
    """Model check: every body match extends to a head match."""
    for t in rules:
        body_rows = eval_cq(t.body, inst)
        if not body_rows:
            continue
        head_rows = eval_cq(t.head, inst)
        idx = [t.body.free_vars.index(v) for v in t.head.free_vars]
        for row in body_rows:
            if tuple(row[i] for i in idx) not in head_rows:
                return False
    return True


def _random_rules(rng: random.Random, sig: Signature, max_rules: int = 3):
    makers = (random_guarded_tgd, random_frontier_guarded_tgd, random_full_tgd)
    return [rng.choice(makers)(rng, sig) for _ in range(rng.randint(1, max_rules))]


def _renamed_copy(inst: Instance, suffix: str) -> Instance:
    ren = {v: elem(v.name + suffix) for v in active_domain(inst)}
    return Instance(inst.sig,
                    (Fact(f.rel, tuple(ren[a] for a in f.args)) for f in inst.facts))


def _union(a: Instance, b: Instance) -> Instance:
    return Instance(a.sig, a.facts | b.facts)


def test_criterion_01_worked_example_end_to_end():
    with criterion(1, "worked example end-to-end", bound=60.0):
        # (a) the hand-written program computes exactly {a, b}
        assert eval_datalog(P_EX, I_EX) == set(AB)
        # (b) the chase-based oracle agrees and is complete
        answers, complete = certain_answers_oracle(RULES_EX, QUERY_EX, I_EX)
        assert complete and answers == AB
        # (c) the compiled rewriting agrees with the oracle on the example
        # and on 100 random instances over the same signature
        art = rewrite_cq_guarded(RULES_EX, QUERY_EX)
        assert evaluate_program(art, I_EX) == set(AB)
        rng = random.Random(10100)
        for _ in range(100):
            inst = random_instance(rng, SIG_EX, max_elems=6, max_facts=10)
            expected, complete = certain_answers_oracle(RULES_EX, QUERY_EX, inst)
            assert complete
            assert evaluate_program(art, inst) == set(expected)


def test_criterion_02_rewriting_guardedness_classes():
    with criterion(2, "rewriting guardedness classes"):
        assert len(PROBLEMS) >= 10
        for p in PROBLEMS:
            assert classify_datalog(rewrite_atomic_guarded(p.rules, p.query).program).guarded, p.name
            assert classify_datalog(rewrite_cq_guarded(p.rules, p.query).program).internally_guarded, p.name
            assert classify_datalog(rewrite_fg(p.rules, p.query).program).frontier_guarded, p.name


def test_criterion_03_cycle_family_bisimilarity():
    with criterion(3, "cycle family bisimilarity", bound=5.0):
        cycles = {k: directed_cycle(k) for k in range(3, 8)}
        for k, l in itertools.combinations(range(3, 8), 2):
            assert check_guarded_bisim(cycles[k], cycles[l]) is not None, (k, l)
        q_tri = cq([], [atom("E", "x", "y"), atom("E", "y", "z"), atom("E", "z", "x")])
        assert eval_cq(q_tri, cycles[3])
        assert not eval_cq(q_tri, cycles[4])
        assert check_strong_gn(cycles[3], cycles[4]) is None


def test_criterion_04_product_preservation():
    with criterion(4, "product preservation"):
        rng = random.Random(40400)
        cfg = ChaseConfig(max_rounds=8, max_facts=200)
        cases = 0
        attempts = 0
        while cases < 200:
            attempts += 1
            assert attempts < 5000, "model generation stalled"
            sig = random_signature(rng, max_rels=3, max_arity=3)
            rules = _random_rules(rng, sig)
            found = []
            for _ in range(2):
                res = chase(random_instance(rng, sig, max_elems=3, max_facts=6),
                            rules, cfg)
                if res.status != TERMINATED or len(active_domain(res.result)) > 5:
                    break
                found.append(res.result)
            if len(found) < 2:
                continue
            i1, i2 = found
            assert models(i1, rules) and models(i2, rules)
            assert models(direct_product(i1, i2), rules), (rules, i1, i2)
            cases += 1


def test_criterion_05_chase_contracts():
    with criterion(5, "chase contracts", bound=120.0):
        rng = random.Random(50500)
        cfg = ChaseConfig(max_rounds=6, max_facts=300)
        runs = 0
        attempts = 0
        squid_runs = 0
        growing_runs = 0
        while runs < 100:
            attempts += 1
            assert attempts < 3000, "terminating-run generation stalled"
            sig = random_signature(rng, max_rels=3, max_arity=3)
            rules = _random_rules(rng, sig)
            inst = random_instance(rng, sig, max_elems=4, max_facts=8)
            res = chase(inst, rules, cfg)
            if res.status != TERMINATED:
                continue
            assert models(res.result, rules), (rules, inst)
            assert weak_substructure(inst, res.result)
            if res.result.facts != inst.facts:
                growing_runs += 1
            if res.rules_frontier_guarded:
                tentacles = tentacle_decomposition(res, inst)
                assert squid_check(inst, res.result, tentacles), (rules, inst)
                squid_runs += 1
            runs += 1
        assert squid_runs >= 20
        assert growing_runs >= 15


def test_criterion_06_invariance_along_directional_witnesses():
    with criterion(6, "sentence invariance along directional witnesses"):
        rng = random.Random(60600)
        pairs = 0
        informative = 0
        while pairs < 200:
            sig = random_signature(rng, max_rels=2, max_arity=2)
            a = random_instance(rng, sig, max_elems=3, max_facts=5)
            if not a.facts:
                continue
            b = _union(a, _renamed_copy(a, "q"))
            t = min(guarded_tuples(a), key=str)
            style = pairs % 4
            if style == 0:
                src, ts, dst, td = a, (), b, ()
            elif style == 1:
                src, ts, dst, td = b, (), a, ()
            elif style == 2:
                src, ts, dst, td = a, t, b, t
            else:
                src, ts, dst, td = b, tuple(elem(v.name + "q") for v in t), a, t
            assert check_directional(src, ts, dst, td, max_size=12)
            for _ in range(100):
                f = random_gnf_sentence(rng, sig, depth=3)
                if eval_fo(f, src):
                    assert eval_fo(f, dst), (f, src, dst)
                    informative += 1
            pairs += 1
        assert informative >= 1000


def test_criterion_07_amalgamation_claims():
    with criterion(7, "amalgamation directional claims"):
        rng = random.Random(70700)
        shared = Signature([("E", 2)])
        sig_a = Signature([("E", 2), ("P", 1)])
        sig_b = Signature([("E", 2), ("Q", 1)])
        pairs = 0
        while pairs < 20:
            base = random_instance(rng, shared, max_elems=3, max_facts=4)
            if not base.facts:
                continue
            dom = sorted(active_domain(base), key=str)
            a_extra = {Fact("P", (v,)) for v in dom if rng.random() < 0.5}
            copy = _renamed_copy(base, "q")
            cdom = sorted(active_domain(copy), key=str)
            b_extra = {Fact("Q", (v,)) for v in cdom if rng.random() < 0.5}
            a = Instance(sig_a, base.facts | a_extra)
            b = Instance(sig_b, copy.facts | b_extra)
            z = check_strong_gn(reduct(a, ["E"]), reduct(b, ["E"]))
            assert z is not None
            u = amalgamate(a, b, z, sig_a, sig_b, max_size=12)
            u_a = reduct(u, ["E", "P"])
            u_b = reduct(u, ["E", "Q"])
            for ta, tb in (min(z.pairs, key=str), max(z.pairs, key=str)):
                tu = tuple(pair_value(c, d) for c, d in zip(ta, tb))
                assert check_directional(a, ta, u_a, tu, max_size=16), (a, b, ta, tb)
                assert check_directional(u_b, tu, b, tb, max_size=16), (a, b, ta, tb)
            pairs += 1


def test_criterion_08_oracle_equivalences():
    with criterion(8, "oracle equivalences"):
        rng = random.Random(80800)
        cases = 0
        while cases < 500:
            sig = random_signature(rng, max_rels=3, max_arity=2)
            inst = random_instance(rng, sig, max_elems=4, max_facts=8)
            if not inst.facts:
                continue
            q = random_cq(rng, sig, max_atoms=3, max_vars=4)
            assert eval_cq(q, inst) == naive_eval_cq(q, inst), (q, inst)
            cases += 1
        cases = 0
        while cases < 500:
            sig = random_signature(rng, max_rels=2, max_arity=2)
            inst = random_instance(rng, sig, max_elems=3, max_facts=6)
            if not inst.facts:
                continue
            f = random_formula(rng, sig, depth=3)
            vals = sorted(active_domain(inst), key=str)
            binding = {v: rng.choice(vals) for v in ("x", "y", "z")}
            assert eval_fo(f, inst, binding=binding) == \
                naive_eval_fo(f, inst, binding=binding), (f, inst, binding)
            cases += 1
        cases = 0
        while cases < 200:
            prog, inst = random_datalog_program(rng)
            if not inst.facts:
                continue
            assert eval_datalog_fixpoint(prog, inst) == naive_eval_datalog(prog, inst)
            cases += 1
        cases = 0
        found_homs = 0
        while cases < 200:
            sig = random_signature(rng, max_rels=2, max_arity=2)
            src = random_instance(rng, sig, max_elems=3, max_facts=5)
            dst = random_instance(rng, sig, max_elems=8, max_facts=12)
            if not src.facts or not dst.facts:
                continue
            h = find_homomorphism(src, dst)
            exhaustive = naive_find_homomorphism(src, dst)
            assert (h is None) == (exhaustive is None), (src, dst)
            if h is not None:
                m = dict(h.mapping)
                assert all(Fact(f.rel, tuple(m[v] for v in f.args)) in dst.facts
                           for f in src.facts)
                found_homs += 1
            cases += 1
        assert found_homs >= 30


def test_criterion_09_treeification():
    with criterion(9, "treeification", bound=30.0):
        rng = random.Random(90900)
        sources = [
            cq([], [atom("R", "x", "y"), atom("R", "y", "z"), atom("R", "z", "x")]),
            cq(["x"], [atom("R", "x", "y"), atom("R", "y", "x")]),
            cq(["x", "y"], [atom("R", "x", "y"), atom("R", "y", "x")]),
            cq(["x"], [atom("E", "x", "y"), atom("P", "y")]),
        ]
        while len(sources) < 10:
            sig = random_signature(rng, max_rels=2, max_arity=2)
            q = random_cq(rng, sig, max_atoms=2, max_vars=3)
            if not q.free_vars or not any(set(q.free_vars) <= set(a.vars())
                                          for a in q.atoms):
                continue
            sources.append(q)
        for q in sources:
            for member in treeify(q, 2, 3):
                assert is_acyclic(member), (q, member)
                assert cq_contained(member, q), (q, member)
        q_tri = sources[0]
        members = treeify(q_tri, 3, 3, Signature([("R", 2)]))
        assert len(members) == 1
        expected = cq([], [atom("R", "x", "x")])
        assert cq_contained(members[0], expected) and cq_contained(expected, members[0])


def _guarded_closure(inst: Instance, rules, cfg: ChaseConfig):
    """Add every derivable fact over the instance's own values whose argument
    set is guarded, to a fixpoint; None when a chase exceeds the budget."""
    cur = inst
    for _ in range(10):
        res = chase(cur, list(rules), cfg)
        if res.status != TERMINATED:
            return None
        allowed = active_domain(cur) | cur.const_values()
        add = {f for f in res.result.facts - cur.facts
               if set(f.args) <= allowed and is_guarded_set(cur, set(f.args))}
        if not add:
            return cur
        cur = Instance(cur.sig, cur.facts | add, cur.const_interp)
    return None


def test_criterion_10_fact_saturation():
    with criterion(10, "fact saturation"):
        # the worked example is not fact-saturated, with a checkable witness
        report = is_fact_saturated(I_EX, RULES_EX)
        assert report.verdict == "no"
        witness = report.witness
        closure = chase(I_EX, list(RULES_EX)).result.facts
        assert witness in closure
        assert witness not in I_EX.facts
        assert set(witness.args) <= active_domain(I_EX)
        # its saturation over the original values is fact-saturated
        saturated = Instance(SIG_EX, [_fact("R", "a", "b"), _fact("U", "b"),
                                      _fact("U", "a"), _fact("T", "a"),
                                      _fact("T", "b")])
        assert is_fact_saturated(saturated, RULES_EX).verdict == "yes"
        # guardedly-fact-saturated implies fact-saturated on random
        # frontier-guarded inputs whose saturation chases terminate
        rng = random.Random(101000)
        cfg = ChaseConfig(max_rounds=8, max_facts=300)
        cases = 0
        attempts = 0
        yes_cases = 0
        while cases < 100:
            attempts += 1
            assert attempts < 4000, "saturation-case generation stalled"
            sig = random_signature(rng, max_rels=3, max_arity=3)
            makers = (random_guarded_tgd, random_frontier_guarded_tgd)
            rules = [rng.choice(makers)(rng, sig)
                     for _ in range(rng.randint(1, 3))]
            assert all(classify(t).frontier_guarded for t in rules)
            inst = random_instance(rng, sig, max_elems=4, max_facts=8)
            if cases % 2:
                closed = _guarded_closure(inst, rules, cfg)
                if closed is None:
                    continue
                inst = closed
            gfs = is_guardedly_fact_saturated(inst, rules, cfg)
            fs = is_fact_saturated(inst, rules, cfg)
            if gfs.verdict == "unknown" or fs.verdict == "unknown":
                continue
            if gfs.verdict == "yes":
                yes_cases += 1
                assert fs.verdict == "yes", (rules, inst, fs.witness)
            cases += 1
        assert yes_cases >= 40
