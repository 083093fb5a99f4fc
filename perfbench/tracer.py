"""Traced run of one CLI command, and the per-layer metrics of its spans.

Run as ``python3 perfbench/tracer.py TRACE.json CLI-ARGS...`` with
``src`` on ``PYTHONPATH``. It imports triplepass, replaces each traced
public function by a span-recording wrapper at every module that binds
the name (``commutator_subgroup`` lives in ``groups`` but is also bound in
``actions`` and ``analysis``), runs ``cli.main`` and, at exit, writes the
spans and counters it kept in memory to TRACE.json. Wrappers call the
original objects, so the ``lru_cache``s keep working and their
``cache_info()`` stays readable. Nothing inside ``src`` changes.

``fields`` and ``matrices`` get no spans: they are called millions of
times per command, so a wrapper would measure itself. Their cost shows
in the self time of the ``groups``, ``actions`` and ``analysis`` spans.

The metric half of this module (``pass_metrics``) runs in the benchmark
process and never imports triplepass.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Traced functions by the module that defines them.
TRACED = {
    "groups": ("enumerate_gl2", "subgroup_closure", "distinct_commutators", "commutator_subgroup"),
    "actions": (
        "build_instance",
        "instance_from_descriptor",
        "is_commutator_fixed_set",
        "check_masking_coverage",
        "check_transcript_equivalence",
    ),
    "protocol": ("run_session", "transcript_from_dict"),
    "analysis": (
        "exact_mutual_information",
        "mutual_information_bits",
        "enumerate_consistent",
        "posterior_from_transcript",
        "search_instances",
    ),
}
CHECKERS = ("is_commutator_fixed_set", "check_masking_coverage", "check_transcript_equivalence")
CACHED = ("commutator_subgroup", "distinct_commutators")


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1], plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.refusals: list[dict] = []
        self.cap_error: type = Exception
        self.last_refusal = None

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except self.cap_error as exc:
                # Record a refusal once, at the innermost span it crosses.
                if exc is not self.last_refusal:
                    self.last_refusal = exc
                    self.refusals.append({"span": name, "job": exc.job, "estimate": exc.estimate})
                raise
            finally:
                span[2] = perf_counter_ns()
                self.stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def _observe_checker(counts, args, report):
    counts["actions.checkers.work"] += report.work


def _observe_mi(counts, args, report):
    instance = args[0]
    support = sum(1 for mass in report.prior.values() if mass > 0)
    counts["analysis.mi.tuples"] += support * len(instance.t_domain) * len(instance.group) ** 2
    counts["analysis.mi.transcripts"] += report.transcripts_examined


def _observe_posterior(counts, args, report):
    counts["analysis.enumerate_consistent.witnesses"] += report.witness_count


def _observe_search(counts, args, report):
    counts["analysis.search.subgroups"] += report.subgroups_examined
    counts["analysis.search.entries"] += len(report.entries)


OBSERVERS = {
    **{name: _observe_checker for name in CHECKERS},
    "exact_mutual_information": _observe_mi,
    "posterior_from_transcript": _observe_posterior,
    "search_instances": _observe_search,
}


def install(tracer: Tracer) -> dict:
    """Wrap every traced name wherever it is bound; returns the originals."""
    import triplepass
    from triplepass import actions, analysis, cli, errors, groups, protocol

    tracer.cap_error = errors.WorkCapExceeded
    defining = {"groups": groups, "actions": actions, "protocol": protocol, "analysis": analysis}
    binders = (triplepass, groups, actions, protocol, analysis, cli)
    originals = {}
    for layer, names in TRACED.items():
        for name in names:
            original = getattr(defining[layer], name)
            wrapper = tracer.wrap(f"{layer}.{name}", original, OBSERVERS.get(name))
            for module in binders:
                if vars(module).get(name) is original:
                    setattr(module, name, wrapper)
            originals[name] = original
    # instance_index() builds through the class, so wrapping the
    # constructor records builds only, never cache hits.
    index_cls = actions.InstanceIndex
    index_cls.__init__ = tracer.wrap("actions.instance_index", index_cls.__init__)
    return originals


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    from triplepass import cli

    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        cache = {}
        for name in CACHED:
            info = originals[name].cache_info()
            cache[name] = [info.hits, info.misses]
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "calls": tracer.calls,
                    "counts": tracer.counts,
                    "cache": cache,
                    "refusals": tracer.refusals,
                },
                fh,
            )


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def pass_metrics(
    traces: list[dict], walls: list[float], scales: list[float], artifact_bytes: int
) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s excepted).

    ``traces``, ``walls`` and ``scales`` hold one entry per command: its
    trace dump, its spawn-to-exit wall time in seconds, and the factor
    that scales its times to nominal speed. Self time is a span's
    duration minus the durations of its direct children.
    """
    self_s: Counter = Counter()
    durations = defaultdict(list)
    calls: Counter = Counter()
    counts: Counter = Counter()
    hits = {name: [0, 0] for name in CACHED}
    refusals = 0
    other = 0.0
    for trace, wall, scale in zip(traces, walls, scales):
        seconds = scale / 1e9
        spans = trace["spans"]
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start - child[i]) * seconds
            durations[name].append((end - start) * seconds)
            if not name.startswith("cli.") and (parent < 0 or spans[parent][0].startswith("cli.")):
                covered += end - start
        other += scale * wall - covered * seconds
        calls.update(trace["calls"])
        counts.update(trace["counts"])
        for name, (h, m) in trace["cache"].items():
            hits[name][0] += h
            hits[name][1] += m
        refusals += sum(1 for r in trace["refusals"] if r["span"].split(".")[1] in CHECKERS)

    def ratio(name):
        h, m = hits[name]
        return h / (h + m) if h + m else 0.0

    return {
        "groups.subgroup_closure.calls": calls["groups.subgroup_closure"],
        "groups.subgroup_closure.self_s": self_s["groups.subgroup_closure"],
        "groups.commutator_subgroup.calls": calls["groups.commutator_subgroup"],
        "groups.commutator_subgroup.self_s": self_s["groups.commutator_subgroup"],
        "groups.commutator_subgroup.hit_ratio": ratio("commutator_subgroup"),
        "groups.distinct_commutators.self_s": self_s["groups.distinct_commutators"],
        "groups.distinct_commutators.hit_ratio": ratio("distinct_commutators"),
        "groups.enumerate_gl2.self_s": self_s["groups.enumerate_gl2"],
        "actions.build_instance.self_s": self_s["actions.build_instance"],
        "actions.instance_index.builds": calls["actions.instance_index"],
        "actions.instance_index.self_s": self_s["actions.instance_index"],
        "actions.instance_from_descriptor.self_s": self_s["actions.instance_from_descriptor"],
        "actions.checkers.self_s": sum(self_s[f"actions.{n}"] for n in CHECKERS),
        "actions.checkers.work": counts["actions.checkers.work"],
        "actions.checkers.cap_refusals": refusals,
        "protocol.run_session.calls": calls["protocol.run_session"],
        "protocol.run_session.self_s": self_s["protocol.run_session"],
        "protocol.run_session.p50_us": 1e6 * percentile(durations["protocol.run_session"], 50),
        "protocol.run_session.p99_us": 1e6 * percentile(durations["protocol.run_session"], 99),
        "protocol.transcript_from_dict.self_s": self_s["protocol.transcript_from_dict"],
        "analysis.mi.accumulate_s": self_s["analysis.exact_mutual_information"],
        "analysis.mi.reduce_s": self_s["analysis.mutual_information_bits"],
        "analysis.mi.tuples": counts["analysis.mi.tuples"],
        "analysis.mi.transcripts": counts["analysis.mi.transcripts"],
        "analysis.enumerate_consistent.self_s": self_s["analysis.enumerate_consistent"],
        "analysis.enumerate_consistent.witnesses": counts["analysis.enumerate_consistent.witnesses"],
        "analysis.posterior.self_s": self_s["analysis.posterior_from_transcript"],
        "analysis.posterior.p50_ms": 1e3 * percentile(durations["analysis.posterior_from_transcript"], 50),
        "analysis.posterior.p99_ms": 1e3 * percentile(durations["analysis.posterior_from_transcript"], 99),
        "analysis.search.self_s": self_s["analysis.search_instances"],
        "analysis.search.subgroups": counts["analysis.search.subgroups"],
        "analysis.search.entries": counts["analysis.search.entries"],
        "cli.other_s": other,
        "cli.artifact_bytes": artifact_bytes,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
