"""Traced mode: spans around gnfkit's public functions, taken at the names
their callers use, and the per-layer metrics computed from them.

Only the traced process installs these wrappers.  A span records its name,
start, duration and parent; its self time is its duration minus the time its
child spans cover.  ``match_atoms`` is a generator, so its span counts only
the time spent inside the generator, and it is wrapped where the chase and
the Datalog evaluator call it, not in ``gnfkit.query``, where it recurses
through its own module name.  Frequent leaf spans (joins, rule
classification, homomorphism searches, first-order evaluation) update the
totals but are not kept one by one; every other span is kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

from gnfkit.rewrite import CAPPED, ENTAILED, UNKNOWN

# (module, attribute) -> span name.  Callers look these names up at call
# time, so replacing the module attribute wraps every call made through it.
WRAPPED = {
    ("gnfkit.rewrite", "rewrite_atomic_guarded"): "rewrite",
    ("gnfkit.rewrite", "rewrite_cq_guarded"): "rewrite",
    ("gnfkit.rewrite", "rewrite_fg"): "rewrite",
    ("gnfkit.rewrite", "certain_answers_oracle"): "rewrite.oracle",
    ("gnfkit.rewrite", "evaluate_program"): "rewrite.evaluate",
    ("gnfkit.rewrite", "chase"): "chase",
    ("gnfkit.chase", "classify"): "tgd.classify",
    ("gnfkit.rewrite", "classify"): "tgd.classify",
    ("gnfkit.rewrite", "eval_cq"): "query.eval_cq",
    ("gnfkit.rewrite", "core_cq"): "query.core_cq",
    ("gnfkit.query", "core_cq"): "query.core_cq",
    ("gnfkit.rewrite", "canonical_cq"): "query.canonical_cq",
    ("gnfkit.query", "canonical_cq"): "query.canonical_cq",
    ("gnfkit.rewrite", "cq_contained"): "query.cq_contained",
    ("gnfkit.query", "treeify"): "query.treeify",
    ("gnfkit.datalog", "eval_datalog_fixpoint"): "datalog.eval",
    ("gnfkit.query", "find_homomorphism"): "model.hom",
    ("gnfkit.model", "find_homomorphism"): "model.hom",
    ("gnfkit.model", "direct_product"): "model.product",
    ("gnfkit.bisim", "check_guarded_bisim"): "bisim.guarded",
    ("gnfkit.bisim", "check_strong_gn"): "bisim.strong_gn",
    ("gnfkit.bisim", "amalgamate"): "bisim.amalgamate",
    ("gnfkit.logic", "search_countermodel"): "logic.countermodel",
    ("gnfkit.logic", "eval_fo"): "logic.eval_fo",
    ("gnfkit.syntax", "parse_theory"): "syntax.parse",
    ("gnfkit.syntax", "parse_query"): "syntax.parse",
    ("gnfkit.syntax", "parse_instance"): "syntax.parse",
    ("gnfkit.syntax", "parse_formula"): "syntax.parse",
    ("gnfkit.syntax", "parse_datalog"): "syntax.parse",
    ("gnfkit.syntax", "print_datalog"): "syntax.print",
    ("gnfkit.syntax", "print_instance"): "syntax.print",
}
# generators: (module, attribute) -> (span name, caller tag)
WRAPPED_GENERATORS = {
    ("gnfkit.chase", "match_atoms"): ("query.match_atoms", "chase"),
    ("gnfkit.datalog", "match_atoms"): ("query.match_atoms", "datalog"),
}
LEAVES = {"query.match_atoms", "tgd.classify", "model.hom", "logic.eval_fo",
          "query.canonical_cq", "query.core_cq", "query.cq_contained",
          "query.eval_cq", "syntax.parse", "syntax.print"}

# every per-layer metric with its unit; the order is the printed order
PER_LAYER = [
    ("rewrite.self_s", "s"), ("rewrite.candidates", "count"),
    ("rewrite.closures", "count"), ("rewrite.entailed", "count"),
    ("rewrite.unknown", "count"), ("rewrite.capped", "count"),
    ("rewrite.rules_emitted", "count"), ("rewrite.emitted_per_candidate", "ratio"),
    ("chase.calls", "count"), ("chase.s", "s"), ("chase.rounds", "count"),
    ("chase.facts_out", "count"), ("chase.budget_stops", "count"),
    ("tgd.classify_calls", "count"), ("tgd.classify_s", "s"),
    ("query.match_atoms_calls", "count"), ("query.match_atoms_s", "s"),
    ("query.eval_cq_s", "s"), ("query.canonical_cq_calls", "count"),
    ("query.core_cq_s", "s"), ("query.treeify_s", "s"),
    ("datalog.eval_s", "s"), ("datalog.rule_runs", "count"),
    ("datalog.idb_tuples", "count"), ("datalog.new_per_match", "ratio"),
    ("model.hom_calls", "count"), ("model.hom_s", "s"), ("model.product_s", "s"),
    ("bisim.guarded_s", "s"), ("bisim.strong_gn_s", "s"),
    ("bisim.amalgamate_s", "s"), ("bisim.witness_pairs", "count"),
    ("logic.countermodel_s", "s"), ("logic.eval_fo_calls", "count"),
    ("logic.eval_fo_s", "s"),
    ("syntax.parse_s", "s"), ("syntax.print_s", "s"),
    ("cli.import_ms", "ms"), ("cli.tail_ms", "ms"), ("cli.tail_pct", "%"),
    ("cli.invocations", "count"), ("traced.run_s", "s"),
]


class Phase:
    """Totals over the spans that ended while this phase was current."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)  # counts read off returned objects


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [id, name, start, child_time]
        self.kept: list[dict] = []
        self.next_id = 0
        self.phase = Phase()
        self.phases: list[tuple[str, Phase]] = []
        self.restore: list[tuple[object, str, object]] = []

    # -- phases ------------------------------------------------------------

    def begin_phase(self, label: str) -> None:
        self.phase = Phase()
        self.phases.append((label, self.phase))

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        self.next_id += 1
        span = [self.next_id, name, time.perf_counter(), 0.0]
        self.stack.append(span)
        return span

    def _close(self, span: list, dur: float) -> None:
        self.stack.pop()
        sid, name, start, child = span
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        ph = self.phase
        ph.count[name] += 1
        ph.total[name] += dur
        ph.self_time[name] += dur - child
        if name not in LEAVES:
            self.kept.append({"id": sid, "name": name, "start": start, "dur": dur,
                              "parent": parent[0] if parent else None})

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, time.perf_counter() - span[2])
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str, caller: str):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._charge(name, time.perf_counter() - t)
                    produced += 1
                    yield item
            finally:
                ph = tracer.phase
                ph.count[name] += 1
                ph.extra[f"{caller}.match_calls"] += 1
                ph.extra[f"{caller}.matches"] += produced

        traced.__wrapped__ = fn
        return traced

    def _charge(self, name: str, dur: float) -> None:
        """Time spent in one resumption of a generator: it belongs to the
        enclosing span's children and to the generator's own totals."""
        if self.stack:
            self.stack[-1][3] += dur
        self.phase.total[name] += dur
        self.phase.self_time[name] += dur

    def _observe(self, name: str, result) -> None:
        ex = self.phase.extra
        if name == "rewrite":
            recs = [r for r in result.certification if r.kind != "import"]
            ex["rewrite.candidates"] += len(recs)
            ex["rewrite.entailed"] += sum(r.verdict == ENTAILED for r in recs)
            ex["rewrite.unknown"] += sum(r.verdict == UNKNOWN for r in recs)
            ex["rewrite.capped"] += result.completeness == CAPPED
            ex["rewrite.rules_emitted"] += len(result.program.rules)
        elif name == "chase":
            if any(s[1] == "rewrite" for s in self.stack):
                ex["rewrite.closures"] += 1
            ex["chase.rounds"] += result.rounds_executed
            ex["chase.facts_out"] += len(result.result)
            ex["chase.budget_stops"] += result.status != "terminated"
        elif name == "datalog.eval":
            ex["datalog.idb_tuples"] += sum(len(s) for s in result.values())
        elif name == "bisim.guarded" and result is not None:
            ex["bisim.witness_pairs"] += len(result.family)
        elif name == "bisim.strong_gn" and result is not None:
            ex["bisim.witness_pairs"] += len(result.pairs)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for (mod_name, attr), name in WRAPPED.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self.restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        for (mod_name, attr), (name, caller) in WRAPPED_GENERATORS.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self.restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_generator(fn, name, caller))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.restore):
            setattr(mod, attr, fn)
        self.restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.kept:
                fh.write(json.dumps(span) + "\n")


def _layer_values(ph: Phase) -> dict[str, float]:
    c, tot, self_t, ex = ph.count, ph.total, ph.self_time, ph.extra
    return {
        "rewrite.self_s": self_t["rewrite"],
        "rewrite.candidates": ex["rewrite.candidates"],
        "rewrite.closures": ex["rewrite.closures"],
        "rewrite.entailed": ex["rewrite.entailed"],
        "rewrite.unknown": ex["rewrite.unknown"],
        "rewrite.capped": ex["rewrite.capped"],
        "rewrite.rules_emitted": ex["rewrite.rules_emitted"],
        "chase.calls": c["chase"],
        "chase.s": tot["chase"],
        "chase.rounds": ex["chase.rounds"],
        "chase.facts_out": ex["chase.facts_out"],
        "chase.budget_stops": ex["chase.budget_stops"],
        "tgd.classify_calls": c["tgd.classify"],
        "tgd.classify_s": tot["tgd.classify"],
        "query.match_atoms_calls": c["query.match_atoms"],
        "query.match_atoms_s": tot["query.match_atoms"],
        "query.eval_cq_s": tot["query.eval_cq"],
        "query.canonical_cq_calls": c["query.canonical_cq"],
        "query.core_cq_s": tot["query.core_cq"],
        "query.treeify_s": tot["query.treeify"],
        "datalog.eval_s": tot["datalog.eval"],
        "datalog.rule_runs": ex["datalog.match_calls"],
        "datalog.idb_tuples": ex["datalog.idb_tuples"],
        "datalog.matches": ex["datalog.matches"],
        "model.hom_calls": c["model.hom"],
        "model.hom_s": tot["model.hom"],
        "model.product_s": tot["model.product"],
        "bisim.guarded_s": tot["bisim.guarded"],
        "bisim.strong_gn_s": tot["bisim.strong_gn"],
        "bisim.amalgamate_s": tot["bisim.amalgamate"],
        "bisim.witness_pairs": ex["bisim.witness_pairs"],
        "logic.countermodel_s": tot["logic.countermodel"],
        "logic.eval_fo_calls": c["logic.eval_fo"],
        "logic.eval_fo_s": tot["logic.eval_fo"],
        "syntax.parse_s": tot["syntax.parse"],
        "syntax.print_s": tot["syntax.print"],
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """One set-up plus one batch: the set-up phase's totals plus, per metric,
    the median over the measured batches (counts repeat exactly between
    batches; times are medians)."""
    setup = [_layer_values(ph) for label, ph in tracer.phases if label == "setup"]
    batches = [_layer_values(ph) for label, ph in tracer.phases if label == "batch"]
    out = {}
    for key in _layer_values(Phase()):
        base = sum(v[key] for v in setup)
        out[key] = base + (statistics.median(v[key] for v in batches) if batches else 0.0)
    # ratios are taken over the combined counts
    cand = out["rewrite.candidates"]
    out["rewrite.emitted_per_candidate"] = out["rewrite.rules_emitted"] / cand if cand else 0.0
    matches = out.pop("datalog.matches")
    out["datalog.new_per_match"] = out["datalog.idb_tuples"] / matches if matches else 0.0
    return out
