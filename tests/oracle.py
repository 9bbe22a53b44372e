"""The chart's closure built the slow way: the reference for ``parser.parse``.

:func:`closure` tries every ordered pair of two distinct edges with disjoint
coverage against all five schemata through ``grammar.apply_schema``.  It
uses no schema memo, no role-mask or type-test pre-filter and no SLASH
index, so every optimisation of the parser is checked against it (Kiefer, Krieger, Carroll
& Malouf 1999 require quick-check filters to be sound).  It keeps only the
conditions that belong to the grammar:

* licensing mode retains no sign whose valence stays underspecified
  (``check_comps_closed``);
* slash introduction keeps the licenser out of the mother's coverage;
* filler-head takes as filler the very edge that licensed the dependency
  (trace mode has no licensers);
* filler-head applies only in a verb-second clause;
* trace mode has no slash introduction;
* filler-head mothers are terminal: they feed no schema;
* a verb cluster is in order (``cluster_in_order``), judged on the built
  mother's own domain, under the sentence's clause type.

The edges it returns are :class:`vorfeld.parser.Edge` objects with ids of
their own; compare charts by ``Edge.key()``.
"""
from __future__ import annotations

from typing import Optional, Sequence

from vorfeld.grammar import (
    SCHEMA_FILLER_HEAD,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    SCHEMATA,
    Sign,
    apply_schema,
    check_comps_closed,
    make_vcomp_trace,
)
from vorfeld.lexicon import Lexicon
from vorfeld.orderdomain import V2, cluster_in_order, mask_span
from vorfeld.parser import (
    LEX_SCHEMA,
    LICENSING,
    TRACE,
    TRACE_SCHEMA,
    Edge,
    detect_clause_type,
)


class _Full(Exception):
    """The chart holds as many edges as its limit allows."""


def closure(tokens: Sequence[str], lexicon: Lexicon, mode: str = LICENSING,
            traces: bool = True, cluster_order: bool = True,
            edge_limit: Optional[int] = None) -> list[Edge]:
    """Every edge the grammar derives over ``tokens``, in the order found.

    In trace mode, ``traces=False`` proposes no traces: with slash
    introduction off as well, that is the account without any device for
    fronted verbal material.  ``cluster_order=False`` keeps verb clusters
    out of order, the candidates that word order alone rules out.
    ``edge_limit`` stops the closure at the first ``edge_limit`` edges
    found; with traces it is finite, but large.
    """
    tokens = tuple(tokens)
    clause_type = detect_clause_type(sign for _, sign in lexicon.lookup(tokens, 0))
    chart: list[Edge] = []

    def add(sign: Sign, coverage: int, schema: str, daughters: tuple[Edge, ...],
            licenser_id: Optional[int] = None, label: str = "") -> None:
        if mode == LICENSING and not check_comps_closed(sign):
            return
        if cluster_order and schema == SCHEMA_VERB_CLUSTER and not cluster_in_order(
                sign.dom.coverage, daughters[0].sign.dom, clause_type):
            return
        if len(chart) == edge_limit:
            raise _Full
        chart.append(Edge(len(chart), sign, coverage, schema, daughters, licenser_id, label))

    for pos in range(len(tokens)):
        for k, (span, sign) in enumerate(lexicon.lookup(tokens, pos)):
            add(sign, mask_span(pos, span), LEX_SCHEMA, (), label=f"{tokens[pos]}@{pos}/{k}")
    if mode == TRACE and traces:
        for boundary in range(len(tokens) + 1):
            add(make_vcomp_trace(lexicon.hierarchy), 0, TRACE_SCHEMA, (), label=f"@{boundary}")

    def apply_all(a: Edge, b: Edge) -> None:
        if SCHEMA_FILLER_HEAD in (a.schema, b.schema) or a.coverage & b.coverage:
            return
        for schema in SCHEMATA:
            if schema == SCHEMA_SLASH_INTRO and mode == TRACE:
                continue
            if schema == SCHEMA_FILLER_HEAD and (
                    clause_type != V2
                    or b.licenser_id != (None if mode == TRACE else a.id)):
                continue
            mother = apply_schema(schema, a.sign, b.sign)
            if mother is None:
                continue
            if schema == SCHEMA_SLASH_INTRO:
                add(mother, a.coverage, schema, (a, b), b.id)
            elif schema == SCHEMA_FILLER_HEAD:
                add(mother, a.coverage | b.coverage, schema, (a, b))
            else:
                licenser_id = a.licenser_id if a.licenser_id is not None else b.licenser_id
                add(mother, a.coverage | b.coverage, schema, (a, b), licenser_id)

    # every edge meets each earlier one in both orders
    done = 0
    try:
        while done < len(chart):
            new = chart[done]
            for old in chart[:done]:
                apply_all(new, old)
                apply_all(old, new)
            done += 1
    except _Full:
        pass
    return chart
