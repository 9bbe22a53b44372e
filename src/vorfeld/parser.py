"""Agenda-driven chart parser over coverage bitsets.

Edges cover arbitrary position sets, not just spans, which is what makes
discontinuous constituents tractable: the schemata decide which coverages
may combine, and the linearization check validates complete clauses.  Two
modes:

* licensing (default): the slash-introduction schema licenses fronted
  verbal material against an actually present projection; traces are off.
  Every retained edge has fully determinate valence lists.
* trace: the slash-introduction schema is off and phonologically empty
  verbal-complement traces are proposed at every inter-token boundary.
  Underspecified valence lists then leak into the chart and edge counts
  explode; the hard edge limit turns the resulting non-termination into a
  reportable outcome.

A parse is sequential; distinct sentences may be parsed concurrently
against the shared immutable lexicon.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import grammar as G
from . import orderdomain as od
from .avm import print_fs
from .grammar import Sign, check_comps_closed, is_complete_clause, make_vcomp_trace
from .lexicon import Lexicon
from .orderdomain import (
    SCHEMA_FILLER_HEAD,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    V2,
    VFINAL,
    mask_positions,
    mask_span,
)

LICENSING = "licensing"
TRACE = "trace"

LEX_SCHEMA = "lex"
TRACE_SCHEMA = "trace"


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
    propose_traces: bool = True  # trace mode only; False gives the bare baseline

    def __post_init__(self):
        if self.mode not in (LICENSING, TRACE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.edge_limit <= 0:
            raise ValueError("edge_limit must be positive")
        if self.clause_type not in ("auto", V2, VFINAL):
            raise ValueError(f"unknown clause type {self.clause_type!r}")


@dataclass(frozen=True, eq=False)
class Edge:
    """Chart item: a sign plus coverage and derivation bookkeeping.

    ``daughters`` is the one record of the derivation tree; the sign
    itself carries no daughters.  The ``can_*`` flags cache which schemata
    the edge could possibly feed, so the quadratic pairing loop rejects
    dead pairs on attribute checks alone.
    """

    id: int
    sign: Sign
    coverage: int
    schema: str
    daughters: tuple["Edge", ...]
    licenser_id: Optional[int] = None
    label: str = ""
    terminal: bool = False  # filler-head output: closes the clause
    can_hc_head: bool = False
    can_vc_head: bool = False
    can_intro_head: bool = False
    can_bind_head: bool = False
    is_verb: bool = False
    has_mod: bool = False
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
    """Outcome of the trace-mode demonstration on one sentence."""

    tokens: tuple[str, ...]
    edge_limit: int
    limit_hit: bool
    edges_built: int
    open_comps_edges: int
    sample_open_comps_avm: Optional[str]
    readings: int


def detect_clause_type(tokens: Sequence[str]) -> str:
    return VFINAL if tokens and tokens[0] == "weil" else V2


def parse(tokens: Sequence[str], lexicon: Lexicon,
          options: Optional[ParseOptions] = None) -> ParseResult:
    """All complete analyses of ``tokens``, bottom-up.

    Raises LexicalGapError for tokens outside the lexicon.  When the edge
    limit is exceeded the result carries ``limit_hit`` and whatever
    derivations were found before the cutoff.
    """
    if not tokens:
        raise ValueError("cannot parse an empty token sequence")
    options = options or ParseOptions()
    clause_type = options.clause_type
    if clause_type == "auto":
        clause_type = detect_clause_type(tokens)
    tokens = tuple(tokens)
    n = len(tokens)
    full = mask_span(0, n)

    edges: list[Edge] = []
    agenda: deque[Edge] = deque()
    seen: set[tuple] = set()
    state = {"limit_hit": False, "rejected": 0}

    def add(sign: Sign, coverage: int, schema: str, daughters: tuple[Edge, ...],
            licenser_id: Optional[int] = None, label: str = "",
            terminal: bool = False) -> None:
        if state["limit_hit"]:
            return
        key = (schema, tuple(d.id for d in daughters), coverage, label)
        if key in seen:
            return
        seen.add(key)
        if options.mode == LICENSING and not check_comps_closed(sign):
            # well-formedness assertion: licensing mode never retains
            # underspecified valence (the suites pin this counter at zero)
            state["rejected"] += 1
            return
        if len(edges) >= options.edge_limit:
            state["limit_hit"] = True
            return
        f = sign.facts
        edge = Edge(
            len(edges), sign, coverage, schema, daughters, licenser_id,
            label, terminal,
            can_hc_head=(f.vcomp == "none" and f.comps_kind == "closed" and f.comps_len > 0)
            or (f.comps_kind in ("open", "append") and f.vcomp in ("none", "open")),
            can_vc_head=f.vcomp in ("sel", "open"),
            can_intro_head=f.vcomp == "sel" and f.slash == 0,
            can_bind_head=(f.slash == 1 and f.head == "verb" and f.vform == "fin"
                           and f.comps_kind == "closed" and f.comps_len == 0),
            is_verb=f.head == "verb",
            has_mod=f.has_mod,
            slash1=f.slash == 1,
        )
        edges.append(edge)
        agenda.append(edge)

    # lexical layer
    covered = 0
    for pos in range(n):
        for k, (span, sign) in enumerate(lexicon.lookup(tokens, pos)):
            covered |= mask_span(pos, span)
            add(sign, mask_span(pos, span), LEX_SCHEMA, (),
                label=f"{tokens[pos]}@{pos}/{k}")

    if covered != full:
        missing = [tokens[p] for p in mask_positions(full & ~covered)]
        raise LexicalGapError(missing)

    if options.mode == TRACE and options.propose_traces:
        requirement = G.generic_verbal_synsem(lexicon.hierarchy)
        for boundary in range(n + 1):
            trace = make_vcomp_trace(requirement, TRACE, lexicon.hierarchy)
            add(trace, 0, TRACE_SCHEMA, (), label=f"@{boundary}")

    processed: list[Edge] = []

    def licenser_of(daughters: tuple[Edge, ...]) -> Optional[int]:
        ids = [d.licenser_id for d in daughters if d.licenser_id is not None]
        return ids[0] if ids else None

    trace_mode = options.mode == TRACE

    def attach(schema: str, a: Edge, b: Edge, coverage: int,
               licenser_id: Optional[int], terminal: bool = False) -> None:
        mother = G.apply_schema(schema, a.sign, b.sign, allow_open=trace_mode)
        if mother is not None:
            add(mother, coverage, schema, (a, b), licenser_id, terminal=terminal)

    def combine(a: Edge, b: Edge) -> None:
        """Try every schema with ``a`` as the head-like first argument."""
        if a.coverage & b.coverage:
            return
        both_slashed = a.slash1 and b.slash1
        if a.can_hc_head and not both_slashed:
            attach(SCHEMA_HEAD_COMPLEMENT, a, b, a.coverage | b.coverage, licenser_of((a, b)))
        if b.has_mod and not both_slashed:
            attach(SCHEMA_HEAD_ADJUNCT, a, b, a.coverage | b.coverage, licenser_of((a, b)))
        if a.can_vc_head and b.is_verb and not both_slashed:
            attach(SCHEMA_VERB_CLUSTER, a, b, a.coverage | b.coverage, licenser_of((a, b)))
        if not trace_mode and a.can_intro_head and b.is_verb and not b.slash1:
            # the licenser stays out of the coverage until the dependency is bound
            attach(SCHEMA_SLASH_INTRO, a, b, a.coverage, licenser_id=b.id)
        if clause_type == V2 and b.can_bind_head and not a.slash1:
            identity_ok = (b.licenser_id == a.id if not trace_mode
                           else b.licenser_id is None)
            if identity_ok:
                attach(SCHEMA_FILLER_HEAD, a, b, a.coverage | b.coverage, None, terminal=True)

    while agenda and not state["limit_hit"]:
        e = agenda.popleft()
        if not e.terminal:
            for f in processed:
                if f.terminal:
                    continue
                combine(e, f)
                if state["limit_hit"]:
                    break
                combine(f, e)
                if state["limit_hit"]:
                    break
        processed.append(e)

    derivations = []
    for e in edges:
        if e.coverage != full:
            continue
        if not is_complete_clause(e.sign, clause_type):
            continue
        if not od.lp_check(e, clause_type):
            continue
        if e.sign.dom.phon() != tokens:
            continue
        derivations.append(Derivation(e))
    derivations.sort(key=Derivation.canonical_key)
    return ParseResult(tokens, options.mode, clause_type, tuple(derivations),
                       tuple(edges), options.edge_limit, state["limit_hit"],
                       state["rejected"])


def enumerate_readings(derivations: Sequence[Derivation]) -> list[tuple[Derivation, str]]:
    """Derivations in deterministic order, each with its root AVM text."""
    ordered = sorted(derivations, key=Derivation.canonical_key)
    return [(d, print_fs(d.sign.fs)) for d in ordered]


def demonstrate_trace_mode(tokens: Sequence[str], lexicon: Lexicon,
                           edge_limit: int = 10000) -> TraceModeReport:
    """Run the trace account and report how it degenerates.

    With traces in the chart, signs whose attracted argument lists never
    got instantiated proliferate until the edge limit cuts the parse off;
    the report counts them and carries one offending AVM.
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

    Unlike the chart, the rebuild keeps each mother's ``DTRS``, so the
    result is the full sign: an AVM with the whole derivation inside.
    Soundness: its SYNSEM and domain equal those of the chart's root.
    """
    def rebuild(edge: Edge) -> Optional[Sign]:
        if not edge.daughters:
            return edge.sign
        a, b = (rebuild(d) for d in edge.daughters)
        if a is None or b is None:
            return None
        return G.apply_schema(edge.schema, a, b, allow_open=True, keep_dtrs=True)

    return rebuild(derivation.root)
