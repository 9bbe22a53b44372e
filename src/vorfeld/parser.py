"""Agenda-driven chart parser over coverage bitsets.

Edges cover arbitrary position sets, not just spans, which is what makes
discontinuous constituents tractable: the schemata decide which coverages
may combine, and the linearization check validates complete clauses.  A
verb cluster's order is judged on the pair of daughters before the schema
runs (:func:`vorfeld.orderdomain.cluster_in_order`), so no out-of-order
cluster, and no edge built on one, enters the chart.  Two modes:

* licensing (default): the slash-introduction schema licenses fronted
  verbal material against an actually present projection; traces are off.
  Every retained edge has fully determinate valence lists.
* trace: the slash-introduction schema is off and phonologically empty
  verbal-complement traces are proposed at every inter-token boundary.
  Underspecified valence lists then leak into the chart and edge counts
  explode.  The closure is finite, so the parse ends by itself, but it can
  outgrow the edge limit, which is then reported as ``limit_hit``.

A parse is sequential; distinct sentences may be parsed concurrently
against the shared immutable lexicon, each with its own schema memo.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from . import grammar as G
from . import orderdomain as od
from .avm import print_fs
from .grammar import (
    SCHEMA_BIT,
    SCHEMA_FILLER_HEAD,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    Sign,
    check_comps_closed,
    is_complete_clause,
    make_vcomp_trace,
)
from .lexicon import Lexicon
from .orderdomain import V2, VFINAL, mask_positions, mask_span

LICENSING = "licensing"
TRACE = "trace"

LEX_SCHEMA = "lex"
TRACE_SCHEMA = "trace"

_HC, _HA, _VC, _SI, _FH = (SCHEMA_BIT[schema] for schema in G.SCHEMATA)


class LexicalGapError(Exception):
    """Input tokens not covered by any lexical entry."""

    def __init__(self, tokens: Sequence[str]):
        super().__init__("unknown token(s): " + ", ".join(repr(t) for t in tokens))
        self.tokens = tuple(tokens)


@dataclass
class ParseOptions:
    mode: str = LICENSING
    edge_limit: int = 50000
    clause_type: str = "auto"  # auto | v2 | vfinal

    def __post_init__(self):
        if self.mode not in (LICENSING, TRACE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.edge_limit, bool) or not isinstance(self.edge_limit, int):
            raise ValueError(f"edge_limit must be an int, not {self.edge_limit!r}")
        if self.edge_limit <= 0:
            raise ValueError("edge_limit must be positive")
        if self.clause_type not in ("auto", V2, VFINAL):
            raise ValueError(f"unknown clause type {self.clause_type!r}")


@dataclass(frozen=True, eq=False)
class Edge:
    """Chart item: a sign plus coverage and derivation bookkeeping.

    ``daughters`` is the one record of the derivation tree; the sign
    itself carries no daughters.  ``coverage`` copies the coverage of the
    sign's domain, and ``heads`` and ``deps`` the sign's role masks (see
    :class:`vorfeld.grammar.SignFacts`), so the pairing loop rejects
    overlapping and dead pairs with one bitwise and each; ``slash1`` indexes
    the processed edges, since no two SLASH-carrying edges are ever paired.
    Every verb cluster of the tree is in order under the parse's clause
    type: the rule is judged on each pair before a cluster is built.
    """

    id: int
    sign: Sign
    coverage: int
    schema: str
    daughters: tuple["Edge", ...]
    licenser_id: Optional[int] = None
    label: str = ""
    heads: int = 0
    deps: int = 0
    slash1: bool = False

    def key(self) -> str:
        if not self.daughters:
            return f"{self.schema}[{self.label}]"
        return f"{self.schema}({','.join(d.key() for d in self.daughters)})"


@dataclass(frozen=True)
class Derivation:
    """A schema-application tree whose root covers the whole input."""

    root: Edge

    @cached_property
    def sign(self) -> Sign:
        """The full root sign, ``DTRS`` included, rebuilt once by :func:`replay`."""
        sign = replay(self)
        if sign is None:
            raise RuntimeError(f"derivation {self.canonical_key()} does not replay")
        return sign

    def canonical_key(self) -> str:
        return self.root.key()

    def edges(self) -> Iterator[Edge]:
        stack = [self.root]
        while stack:
            e = stack.pop()
            yield e
            stack.extend(e.daughters)

    def tree_lines(self) -> list[str]:
        lines: list[str] = []

        def walk(edge: Edge, depth: int) -> None:
            f = edge.sign.facts
            bits = []
            if f.lex is not None:
                bits.append(f"LEX {f.lex}")
            bits.append(f"VCOMP {f.vcomp}")
            if f.slash is not None:
                bits.append(f"SLASH {f.slash}")
            cov = ",".join(str(p) for p in mask_positions(edge.coverage)) or "-"
            phon = " ".join(edge.sign.dom.phon())
            lines.append(
                "  " * depth
                + f"{edge.schema} [{cov}] {phon!r} ({'; '.join(bits)})"
            )
            for d in edge.daughters:
                walk(d, depth + 1)

        walk(self.root, 0)
        return lines


@dataclass
class ParseResult:
    """Derivations plus the resource-limit report for one input."""

    tokens: tuple[str, ...]
    mode: str
    clause_type: str
    derivations: tuple[Derivation, ...]
    edges: tuple[Edge, ...]
    edge_limit: int
    limit_hit: bool
    open_comps_rejected: int = 0

    @property
    def readings(self) -> int:
        return len(self.derivations)


@dataclass
class TraceModeReport:
    """Outcome of the trace-mode demonstration on one sentence.

    ``sample_open_comps_avm`` prints the first offending chart sign, which
    is a synsem.
    """

    tokens: tuple[str, ...]
    edge_limit: int
    limit_hit: bool
    edges_built: int
    open_comps_edges: int
    sample_open_comps_avm: Optional[str]
    readings: int


def detect_clause_type(first_signs: Iterable[Sign]) -> str:
    """The ``auto`` clause type: verb-final exactly when a sign covering
    position 0 is a complementizer."""
    return VFINAL if any(sign.facts.head == "comp" for sign in first_signs) else V2


def parse(tokens: Sequence[str], lexicon: Lexicon,
          options: Optional[ParseOptions] = None, *,
          memo: Optional[dict] = None) -> ParseResult:
    """All complete analyses of ``tokens``, bottom-up.

    Raises LexicalGapError for tokens outside the lexicon.  When the edge
    limit is exceeded the result carries ``limit_hit`` and whatever
    derivations were found before the cutoff.

    ``memo`` is the schema memo (see :mod:`vorfeld.grammar`); None gives
    this parse a fresh one.  A mother's synsem depends only on the schema
    and its daughters' synsems, never on the sentence, so parses may share
    a memo and each unifies only what none before it did; the chart, its
    readings and its edge ids are the same either way.  Share a memo only
    between sequential parses over one lexicon: its mothers carry that
    lexicon's hierarchy.

    Above the memo, each parse keeps a pair table of its own, which maps
    (schema, first sign, second sign) to the mother sign, domain included:
    a mother depends on nothing else, so a pair of signs goes through
    ``apply_schema`` once however many pairs of edges hold it.  Edges built
    from one pair share its mother's sign, so pairs on that sign hit in turn
    (trace mode's n+1 trace edges share one sign).  Domains belong to the
    sentence, so the table never outlives the parse.  Filler identity and
    verb-cluster order are facts of the edges: they are judged on every
    pair and never stored.
    """
    if not tokens:
        raise ValueError("cannot parse an empty token sequence")
    options = options or ParseOptions()
    tokens = tuple(tokens)
    n = len(tokens)
    full = mask_span(0, n)

    edges: list[Edge] = []
    state = {"limit_hit": False, "rejected": 0}

    def add(sign: Sign, schema: str, daughters: tuple[Edge, ...],
            licenser_id: Optional[int] = None, label: str = "") -> None:
        if state["limit_hit"]:
            return
        if options.mode == LICENSING and not check_comps_closed(sign):
            # well-formedness assertion: licensing mode never retains
            # underspecified valence (the suites pin this counter at zero)
            state["rejected"] += 1
            return
        if len(edges) >= options.edge_limit:
            state["limit_hit"] = True
            return
        f = sign.facts
        edge = Edge(len(edges), sign, sign.dom.coverage, schema, daughters, licenser_id,
                    label, f.heads, f.deps, f.slash == 1)
        edges.append(edge)

    # lexical layer
    covered = 0
    for pos in range(n):
        for k, (span, sign) in enumerate(lexicon.lookup(tokens, pos)):
            covered |= mask_span(pos, span)
            add(sign, LEX_SCHEMA, (), label=f"{tokens[pos]}@{pos}/{k}")

    if covered != full:
        missing = [tokens[p] for p in mask_positions(full & ~covered)]
        raise LexicalGapError(missing)
    clause_type = options.clause_type
    if clause_type == "auto":
        clause_type = detect_clause_type(e.sign for e in edges if e.coverage & 1)

    if options.mode == TRACE:
        trace = make_vcomp_trace(lexicon.hierarchy)
        for boundary in range(n + 1):
            add(trace, TRACE_SCHEMA, (), label=f"@{boundary}")

    # Processed edges in id order, and the subsequence of those without a
    # SLASH element.  No schema combines two SLASH-carrying daughters
    # (head-complement, head-adjunct and verb-cluster reject the overflow;
    # slash introduction needs SLASH 0 on both; filler-head a SLASH-free
    # filler and a SLASH 1 head), so a slash1 edge is paired only with
    # ``unslashed``: the pairs skipped would add nothing, and the chart is
    # the one the full loop builds, edge ids included.  Filler-head mothers
    # close the clause: they feed no schema and are paired with nothing.
    processed: list[Edge] = []
    unslashed: list[Edge] = []

    trace_mode = options.mode == TRACE
    # The schemata this parse may apply: traces stand in for slash
    # introduction, and only a verb-second clause has a Vorfeld to fill.
    active = sum(SCHEMA_BIT.values())
    if trace_mode:
        active &= ~_SI
    if clause_type != V2:
        active &= ~_FH
    # each (schema, daughter structures) triple is unified once per memo,
    # whatever the coverages
    if memo is None:
        memo = {}
    # the pair table: signs key by identity, and only mothers that exist are
    # stored, since failed pairs would grow licensing mode's table, where no
    # pair of signs recurs
    pairs: dict[tuple[str, Sign, Sign], Sign] = {}

    def attach(schema: str, a: Edge, b: Edge, licenser_id: Optional[int]) -> None:
        key = (schema, a.sign, b.sign)
        mother = pairs.get(key)
        if mother is None:
            mother = G.apply_schema(schema, a.sign, b.sign, memo=memo)
            if mother is None:
                return
            pairs[key] = mother
        add(mother, schema, (a, b), licenser_id)

    def combine(a: Edge, b: Edge, fits: int) -> None:
        """Try the schemata in ``fits`` with ``a`` as the head-like first argument."""
        licenser_id = a.licenser_id if a.licenser_id is not None else b.licenser_id
        if fits & _HC:
            attach(SCHEMA_HEAD_COMPLEMENT, a, b, licenser_id)
        if fits & _HA:
            attach(SCHEMA_HEAD_ADJUNCT, a, b, licenser_id)
        # a cluster's domain is the union of its daughters' domains
        if fits & _VC and od.cluster_in_order(a.coverage | b.coverage, a.sign.dom, clause_type):
            attach(SCHEMA_VERB_CLUSTER, a, b, licenser_id)
        if fits & _SI:
            attach(SCHEMA_SLASH_INTRO, a, b, b.id)
        # the filler is the very edge that licensed the dependency (trace
        # mode has no licensers)
        if fits & _FH and b.licenser_id == (None if trace_mode else a.id):
            attach(SCHEMA_FILLER_HEAD, a, b, None)

    # the edge list is the agenda: edges are processed in the order they are built
    done = 0
    while done < len(edges) and not state["limit_hit"]:
        e = edges[done]
        done += 1
        if e.schema == SCHEMA_FILLER_HEAD:
            continue
        # a pair reaches combine only when its coverages are disjoint and the
        # role masks admit some active schema, in the direction tried
        heads, deps = e.heads & active, e.deps & active
        for f in unslashed if e.slash1 else processed:
            if e.coverage & f.coverage:
                continue
            if fits := heads & f.deps:
                combine(e, f, fits)
                if state["limit_hit"]:
                    break
            if fits := f.heads & deps:
                combine(f, e, fits)
                if state["limit_hit"]:
                    break
        processed.append(e)
        if not e.slash1:
            unslashed.append(e)

    derivations = sorted((Derivation(e) for e in edges if is_reading(e, tokens, clause_type)),
                         key=Derivation.canonical_key)
    return ParseResult(tokens, options.mode, clause_type, tuple(derivations),
                       tuple(edges), options.edge_limit, state["limit_hit"],
                       state["rejected"])


def is_reading(edge: Edge, tokens: tuple[str, ...], clause_type: str) -> bool:
    """Root filter: ``edge`` analyses the whole of ``tokens`` as a complete clause."""
    return (edge.coverage == mask_span(0, len(tokens))
            and is_complete_clause(edge.sign, clause_type)
            and od.lp_check(edge.sign.dom, clause_type)
            and edge.sign.dom.phon() == tokens)


def enumerate_readings(derivations: Sequence[Derivation]) -> list[tuple[Derivation, str]]:
    """Derivations in deterministic order, each with its root AVM text.

    The readings of one parse share most of their internal edges, so they
    are rebuilt through one cache of full signs, which lives for this call
    only: each distinct edge is unified once.  It is never the chart's
    schema memo, whose mothers carry no ``DTRS``.
    """
    ordered = sorted(derivations, key=Derivation.canonical_key)
    rebuilt: dict[Edge, Optional[Sign]] = {}
    readings = []
    for d in ordered:
        sign = _rebuild(d.root, rebuilt)
        if sign is None:
            raise RuntimeError(f"derivation {d.canonical_key()} does not replay")
        readings.append((d, print_fs(sign.fs)))
    return readings


def demonstrate_trace_mode(tokens: Sequence[str], lexicon: Lexicon,
                           edge_limit: int = 10000) -> TraceModeReport:
    """Run the trace account and report how it degenerates.

    With traces in the chart, signs whose attracted argument lists never
    got instantiated proliferate.  The closure is finite, so the parse
    stops by itself unless it reaches ``edge_limit`` first (``limit_hit``);
    the report counts the offending edges and carries one offending AVM,
    the synsem of the first of them (chart signs carry no sign root).
    """
    result = parse(tokens, lexicon,
                   ParseOptions(mode=TRACE, edge_limit=edge_limit))
    offending = [e for e in result.edges if not check_comps_closed(e.sign)]
    sample = print_fs(offending[0].sign.fs) if offending else None
    return TraceModeReport(
        tokens=result.tokens,
        edge_limit=edge_limit,
        limit_hit=result.limit_hit,
        edges_built=len(result.edges),
        open_comps_edges=len(offending),
        sample_open_comps_avm=sample,
        readings=result.readings,
    )


def replay(derivation: Derivation) -> Optional[Sign]:
    """Re-apply every schema from the lexical leaves up; None on divergence.

    The rebuild starts from whole leaves, so each mother is whole and keeps
    its ``DTRS``, unlike the chart's: the result is the full sign, an AVM
    with the whole derivation inside.
    Soundness: its SYNSEM and domain equal those of the chart's root.  The
    rebuild shares no memo with the chart: each distinct edge unifies afresh,
    once (a licenser that is also the filler too), so the comparison checks
    the chart rather than the memo against itself.
    """
    return _rebuild(derivation.root, {})


def _rebuild(root: Edge, rebuilt: dict[Edge, Optional[Sign]]) -> Optional[Sign]:
    """The full sign of ``root``, rebuilt bottom-up without recursion.

    Edges found in ``rebuilt`` are taken from it, and every edge rebuilt is
    added to it, so each distinct edge is rebuilt once however many trees
    passed in with the same ``rebuilt`` share it.  A leaf rebuilds to
    ``lexical-sign[SYNSEM]`` (:func:`vorfeld.grammar.whole_leaf`), and since
    a schema's mother is whole when its daughters are, every other edge to
    a ``phrasal-sign``.
    """
    done: list[Optional[Sign]] = []  # full signs of the finished subtrees
    stack = [(root, False)]
    while stack:
        edge, expanded = stack.pop()
        if edge in rebuilt:
            done.append(rebuilt[edge])
        elif not edge.daughters:
            rebuilt[edge] = G.whole_leaf(edge.sign)
            done.append(rebuilt[edge])
        elif not expanded:
            stack.append((edge, True))
            stack.extend((d, False) for d in reversed(edge.daughters))
        else:
            b = done.pop()
            a = done.pop()
            sign = None if a is None or b is None else G.apply_schema(edge.schema, a, b)
            rebuilt[edge] = sign
            done.append(sign)
    return done[0]
