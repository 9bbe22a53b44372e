"""Span tracing for the benchmark, installed around vorfeld's public functions.

Nothing in the program is edited: :func:`install` replaces each traced
function, at run time, with a wrapper in the namespace where its callers
look it up.  A function a module imports by name (``cli.parse``,
``parser.print_fs``, ``parser.is_complete_clause``, ``grammar.make_sign``,
``grammar.path_get``, ``lexicon.build_fs``) is wrapped in that importing
module, because replacing the defining module's attribute would not reach
those callers.

Spans stay in memory.  Every span is folded, as it closes, into an
aggregate keyed by (parent span, span): count, total seconds and self
seconds, where self time is the span's duration minus the time its child
spans cover.  Keeping the aggregate instead of every span bounds memory
on the trace workload, which opens tens of thousands of spans per pass.
The worker writes the aggregate out when its pass ends.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Optional

SCHEMAS = (
    "head_complement",
    "head_adjunct",
    "verb_cluster",
    "pvp_slash_introduction",
    "filler_head",
)


class Tracer:
    """Span aggregate and event counters for one phase of one process."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[tuple[Optional[str], str], list[float]] = {}
        self.counters: Counter = Counter()

    def take(self) -> dict:
        """Return the phase recorded so far as plain data and start a new one."""
        data = {
            "spans": [[parent, name, int(c), total, self_s]
                      for (parent, name), (c, total, self_s) in sorted(
                          self.spans.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(sorted(self.counters.items())),
        }
        self.spans = {}
        self.counters = Counter()
        return data

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[Counter, tuple, object], None]] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count`` sees its arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += duration
                record = tracer.spans.get((parent, name))
                if record is None:
                    record = tracer.spans[(parent, name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))


def _count_true(key: str):
    def count(counters: Counter, args: tuple, result) -> None:
        if result:
            counters[key] += 1
    return count


def _count_lookup(counters: Counter, args: tuple, result) -> None:
    counters["lexicon.lexical_edges"] += len(result)


def _count_parse(counters: Counter, args: tuple, result) -> None:
    counters["parser.edges"] += len(result.edges)
    counters["parser.readings"] += result.readings
    counters["parser.limit_hits"] += int(result.limit_hit)
    counters["parser.open_comps_rejected"] += result.open_comps_rejected


def _count_print(counters: Counter, args: tuple, result) -> None:
    counters["avm.print_fs_bytes"] += len(result.encode("utf-8"))


def _count_schema(schema: str):
    def count(counters: Counter, args: tuple, result) -> None:
        if result is not None:
            counters[f"grammar.{schema}.built"] += 1
    return count


def _count_graft(counters: Counter, args: tuple, result) -> None:
    counters["tfs.graft_nodes"] += len(args[1].nodes)


def _count_unify(counters: Counter, args: tuple, result) -> None:
    if not result:
        counters["tfs.unify_nodes_failed"] += 1


def _count_extract(counters: Counter, args: tuple, result) -> None:
    if result is None:
        counters["tfs.extract_rejected"] += 1
    else:
        counters["tfs.extract_nodes_out"] += len(result.nodes)


def install(tracer: Tracer) -> None:
    """Wrap every traced vorfeld function; call once per process, before use."""
    from vorfeld import cli, grammar, lexicon, orderdomain, parser, sexpr, tfs

    _patch(tracer, lexicon, "load_fragment", "lexicon.load_fragment")
    _patch(tracer, lexicon.Lexicon, "lookup", "lexicon.lookup", _count_lookup)
    _patch(tracer, sexpr, "parse_all", "sexpr.parse_all")
    _patch(tracer, lexicon, "build_fs", "avm.build_fs")

    _patch(tracer, parser, "parse", "parser.parse", _count_parse)
    _patch(tracer, cli, "parse", "parser.parse", _count_parse)
    _patch(tracer, parser, "replay", "parser.replay")
    _patch(tracer, parser, "print_fs", "avm.print_fs", _count_print)
    _patch(tracer, parser, "is_complete_clause", "grammar.is_complete_clause",
           _count_true("grammar.is_complete_clause_passed"))

    for schema in SCHEMAS:
        _patch(tracer, grammar, f"apply_{schema}", f"grammar.{schema}", _count_schema(schema))
    _patch(tracer, grammar, "make_sign", "grammar.make_sign")
    _patch(tracer, grammar, "path_get", "tfs.path_get")

    _patch(tracer, tfs.Workspace, "graft", "tfs.graft", _count_graft)
    _patch(tracer, tfs.Workspace, "unify_nodes", "tfs.unify_nodes", _count_unify)
    _patch(tracer, tfs.Workspace, "extract", "tfs.extract", _count_extract)

    _patch(tracer, orderdomain, "lp_check", "orderdomain.lp_check",
           _count_true("orderdomain.lp_check_passed"))
    for fn in ("domain_union", "compact", "insert_filler_domain"):
        _patch(tracer, orderdomain, fn, f"orderdomain.{fn}")


# spans reported as "<span>_calls" and "<span>_ms"
_CALLS_AND_MS = ("lexicon.lookup", "avm.print_fs", "parser.replay", "grammar.make_sign",
                 "tfs.graft", "tfs.unify_nodes", "tfs.extract", "orderdomain.lp_check")

# workload -> spans whose zero count on that workload is a tracer bug
EXPECTED_SPANS = {
    "setup": ("lexicon.load_fragment", "sexpr.parse_all", "avm.build_fs"),
    "common": ("lexicon.lookup", "parser.parse", "grammar.make_sign", "tfs.path_get",
               "grammar.is_complete_clause", "grammar.head_complement",
               "grammar.verb_cluster", "tfs.graft", "tfs.unify_nodes", "tfs.extract",
               "orderdomain.domain_union", "orderdomain.compact"),
    "corpus": ("grammar.head_adjunct", "grammar.pvp_slash_introduction",
               "grammar.filler_head", "orderdomain.lp_check",
               "orderdomain.insert_filler_domain"),
    "adjunct": ("grammar.head_adjunct", "grammar.pvp_slash_introduction",
                "grammar.filler_head", "orderdomain.lp_check",
                "orderdomain.insert_filler_domain", "avm.print_fs", "parser.replay"),
    "trace": ("avm.print_fs",),
}


def _totals(phase: dict) -> dict[str, list[float]]:
    """Per span name, summed over parents: [count, total s, self s]."""
    out: dict[str, list[float]] = {}
    for _parent, name, count, total, self_s in phase["spans"]:
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += count
        acc[1] += total
        acc[2] += self_s
    return out


def missing_spans(workload: str, setup: dict, work: dict) -> list[str]:
    """Spans predicted for this workload that never opened."""
    have_setup, have_work = _totals(setup), _totals(work)
    missing = [n for n in EXPECTED_SPANS["setup"] if not have_setup.get(n, [0])[0]]
    for name in EXPECTED_SPANS["common"] + EXPECTED_SPANS[workload]:
        if not have_work.get(name, [0])[0]:
            missing.append(name)
    return missing


def layer_metrics(setup: dict, work: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s, w, c = _totals(setup), _totals(work), work["counters"]

    def ms(table, name, col=1):
        return table.get(name, [0, 0.0, 0.0])[col] * 1000.0

    def calls(name):
        return w.get(name, [0])[0]

    out: dict[str, tuple[float, str]] = {
        "lexicon.load_ms": (ms(s, "lexicon.load_fragment"), "ms"),
        "sexpr.parse_all_ms": (ms(s, "sexpr.parse_all"), "ms"),
        "avm.build_fs_ms": (ms(s, "avm.build_fs"), "ms"),
        "parser.parse_ms": (ms(w, "parser.parse"), "ms"),
        "parser.self_ms": (ms(w, "parser.parse", 2), "ms"),
        "tfs.path_get_ms": (ms(w, "tfs.path_get"), "ms"),
        "grammar.is_complete_clause_calls": (calls("grammar.is_complete_clause"), "count"),
    }
    for span in _CALLS_AND_MS:
        out[f"{span}_calls"] = (calls(span), "count")
        out[f"{span}_ms"] = (ms(w, span), "ms")
    for schema in SCHEMAS:
        span = f"grammar.{schema}"
        n, built = calls(span), c.get(f"{span}.built", 0)
        out[f"{span}.calls"] = (n, "count")
        out[f"{span}.built"] = (built, "count")
        out[f"{span}.yield"] = (built / n if n else 0.0, "ratio")
        out[f"{span}.ms"] = (ms(w, span), "ms")
        out[f"{span}.self_ms"] = (ms(w, span, 2), "ms")
    for fn in ("domain_union", "compact", "insert_filler_domain"):
        out[f"orderdomain.{fn}.calls"] = (calls(f"orderdomain.{fn}"), "count")
        out[f"orderdomain.{fn}.ms"] = (ms(w, f"orderdomain.{fn}"), "ms")
    for key, unit in COUNTER_UNITS.items():
        out[key] = (c.get(key, 0), unit)
    return out


COUNTER_UNITS = {
    "lexicon.lexical_edges": "count",
    "parser.edges": "count",
    "parser.readings": "count",
    "parser.limit_hits": "count",
    "parser.open_comps_rejected": "count",
    "avm.print_fs_bytes": "bytes",
    "grammar.is_complete_clause_passed": "count",
    "tfs.graft_nodes": "count",
    "tfs.unify_nodes_failed": "count",
    "tfs.extract_rejected": "count",
    "tfs.extract_nodes_out": "count",
    "orderdomain.lp_check_passed": "count",
}
