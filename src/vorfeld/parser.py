"""Agenda-driven chart parser over coverage bitsets.

Edges cover arbitrary position sets, not just spans, which is what makes
discontinuous constituents tractable: the schemata decide which coverages
may combine, and the linearization check validates complete clauses.  A
verb cluster's order is judged on the pair of daughter signs, once, before
the schema runs (:func:`vorfeld.orderdomain.cluster_in_order`), so no
out-of-order cluster, and no edge built on one, enters the chart.  Two
modes:

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

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence

from . import grammar as G
from . import orderdomain as od
from .avm import print_fs
from .grammar import (
    _FH,
    _HA,
    _HC,
    _SI,
    _VC,
    SCHEMA_BIT,
    SCHEMA_FILLER_HEAD,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    SchemaMemo,
    Sign,
    check_comps_closed,
    fits,
    is_complete_clause,
    make_vcomp_trace,
)
from .lexicon import Lexicon
from .orderdomain import V2, VFINAL, Domain, DomainElement, mask_positions, mask_span

LICENSING = "licensing"
TRACE = "trace"

LEX_SCHEMA = "lex"
TRACE_SCHEMA = "trace"

_UNSEEN = object()  # the pair table's default: no pair of signs maps to it


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


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Edge:
    """Chart item: a sign plus coverage and derivation bookkeeping.

    ``daughters`` is the one record of the derivation tree; the sign
    itself carries no daughters.  ``coverage`` copies the coverage of the
    sign's domain, and ``heads`` and ``deps`` the sign's role masks (see
    :class:`vorfeld.grammar.SignFacts`), so the pairing loop rejects
    overlapping and dead pairs with one bitwise and each, before it runs
    :func:`vorfeld.grammar.fits`; ``slash1`` indexes the processed edges,
    since no two SLASH-carrying edges are ever paired.
    Every verb cluster of the tree is in order under the parse's clause
    type: the rule is judged on each pair before a cluster is built.

    An edge is frozen, compares and hashes by identity, and is slotted: it
    has no instance ``__dict__`` and takes no weak references.  Its
    ``__init__`` writes each slot once through the slot's descriptor
    instead of the frozen ``__setattr__``, which halves the cost of
    building one; its parameters are the fields, in order, with their
    defaults, so ``dataclasses.replace`` works as on any dataclass.
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

    def __init__(self, id: int, sign: Sign, coverage: int, schema: str,
                 daughters: tuple["Edge", ...], licenser_id: Optional[int] = None,
                 label: str = "", heads: int = 0, deps: int = 0, slash1: bool = False):
        _set_id(self, id)
        _set_sign(self, sign)
        _set_coverage(self, coverage)
        _set_schema(self, schema)
        _set_daughters(self, daughters)
        _set_licenser_id(self, licenser_id)
        _set_label(self, label)
        _set_heads(self, heads)
        _set_deps(self, deps)
        _set_slash1(self, slash1)

    def key(self) -> str:
        if not self.daughters:
            return f"{self.schema}[{self.label}]"
        return f"{self.schema}({','.join(d.key() for d in self.daughters)})"


# each slot's member descriptor writes the slot without the frozen __setattr__
(_set_id, _set_sign, _set_coverage, _set_schema, _set_daughters, _set_licenser_id,
 _set_label, _set_heads, _set_deps, _set_slash1) = (Edge.__dict__[f.name].__set__
                                                     for f in fields(Edge))


@dataclass(frozen=True)
class Derivation:
    """A schema-application tree whose root covers the whole input."""

    root: Edge

    @property
    def sign(self) -> Sign:
        """The full root sign, ``DTRS`` included: :func:`replay`, run at each read."""
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
    position 0 is a complementizer.

    The head type ``comp`` is optional (see
    :data:`vorfeld.lexicon.REQUIRED_TYPES`): in a hierarchy without it no
    sign is a complementizer, so ``auto`` reads every clause as verb-second,
    and no verb-final clause can parse, since a verb-final root is a
    saturated ``comp`` (:func:`vorfeld.grammar.is_complete_clause`)."""
    return VFINAL if any(sign.facts.head == "comp" for sign in first_signs) else V2


def parse(tokens: Sequence[str], lexicon: Lexicon,
          options: Optional[ParseOptions] = None, *,
          memo: Optional[SchemaMemo] = None) -> ParseResult:
    """All complete analyses of ``tokens``, bottom-up.

    Raises LexicalGapError for tokens outside the lexicon.  When the edge
    limit is exceeded the result carries ``limit_hit`` and whatever
    derivations were found before the cutoff.

    ``memo`` is the schema memo (:class:`vorfeld.grammar.SchemaMemo`);
    None gives this parse a fresh one.  A mother's synsem depends only on
    the schema and its daughters' synsems, never on the sentence, so parses
    may share a memo and each unifies only what none before it did; the
    chart, its readings and its edge ids are the same either way.  Share a
    memo only between sequential parses over one lexicon: its mothers carry
    that lexicon's hierarchy.  Every chart sign's structure, lexical ones
    included, is the memo's interned one, so a memo key never looks a
    structure up by its nodes.

    The pairing loop tries a pair of edges only on the active schemata
    that :func:`vorfeld.grammar.fits` admits on the two signs' facts: the
    test each schema's step opens with, so a dropped pair is one it would
    refuse before any work.  The loop runs ``fits`` only on pairs whose
    edges' role masks (``heads`` and ``deps``) already meet.

    Above the memo, each parse keeps two tables of its own.  The sign
    table holds one sign per structure id and domain, and each new mother
    is swapped for it, so edges of equal structure and domain share one
    sign (the criterion-2 chart's 10,000 edges hold 175).  The pair table
    maps (schema, first sign, second sign) to that mother, or to None for a
    pair without one: a mother depends on nothing else, so a pair of signs
    goes through ``apply_schema`` once however many pairs of edges hold it,
    failures included.  A verb cluster's order reads only the two signs'
    domains, so it is judged on a miss of the pair table, before the
    schema, and stored with the answer.  Domains belong to the sentence, so
    neither table outlives the parse.  Filler identity and the licenser id
    are facts of the edges: they are judged on every pair of edges and
    never stored.  The root filter tests an edge's coverage before
    :func:`is_reading`.
    """
    if not tokens:
        raise ValueError("cannot parse an empty token sequence")
    options = options or ParseOptions()
    tokens = tuple(tokens)
    n = len(tokens)
    full = mask_span(0, n)

    edges: list[Edge] = []
    state = {"limit_hit": False, "rejected": 0}
    # each (schema, daughter structures) triple is unified once per memo,
    # whatever the coverages
    if memo is None:
        memo = SchemaMemo()

    def leaf(sign: Sign) -> Sign:
        """``sign`` on the memo's interned structure and facts, as every
        mother is, its domain's elements included: no memo key has to look
        its structure up by its nodes, and equal structures share facts."""
        base = memo.sign(sign)
        elements = tuple(DomainElement(el.phon, el.coverage, base.facts, el.field)
                         for el in sign.dom.elements)
        return Sign(sign.hierarchy, base.fs, Domain(elements, sign.dom.coverage), base.facts)

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
            add(leaf(sign), LEX_SCHEMA, (), label=f"{tokens[pos]}@{pos}/{k}")

    if covered != full:
        missing = [tokens[p] for p in mask_positions(full & ~covered)]
        raise LexicalGapError(missing)
    clause_type = options.clause_type
    if clause_type == "auto":
        clause_type = detect_clause_type(e.sign for e in edges if e.coverage & 1)

    if options.mode == TRACE:
        trace = leaf(make_vcomp_trace(lexicon.hierarchy))
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
    # The parse's two tables.  ``signs`` holds its one sign per structure id
    # and domain.  A domain keys as its coverage and, per element, coverage,
    # field and facts object, of which the memo keeps one per structure:
    # within one sentence coverage fixes phonology, so equal keys mean equal
    # domains, and no domain or facts is hashed by value.  ``pairs`` maps
    # (schema, first sign, second sign), signs by identity, to the mother
    # from ``signs``, or to None for a pair without one, a verb cluster out
    # of order included.  Edges built from equal pairs share one sign, so a
    # pair of signs reaches a schema once.
    signs: dict[tuple, Sign] = {}
    pairs: dict[tuple[str, Sign, Sign], Optional[Sign]] = {}

    def mother_of(schema: str, a: Sign, b: Sign) -> Optional[Sign]:
        # a cluster's domain is the union of its daughters' domains, and its
        # order reads only theirs
        if schema == SCHEMA_VERB_CLUSTER and not od.cluster_in_order(
                a.dom.coverage | b.dom.coverage, a.dom, clause_type):
            return None
        mother = G.apply_schema(schema, a, b, memo=memo)
        if mother is None:
            return None
        dom = mother.dom
        key = (mother.fs.sid, dom.coverage,
               *[(el.coverage, el.field, id(el.facts)) for el in dom.elements])
        return signs.setdefault(key, mother)

    def attach(schema: str, a: Edge, b: Edge, licenser_id: Optional[int]) -> None:
        key = (schema, a.sign, b.sign)
        mother = pairs.get(key, _UNSEEN)
        if mother is _UNSEEN:
            mother = pairs[key] = mother_of(schema, a.sign, b.sign)
        if mother is not None:
            add(mother, schema, (a, b), licenser_id)

    def combine(a: Edge, b: Edge, fit: int) -> None:
        """Try the schemata in ``fit`` with ``a`` as the head-like first argument."""
        licenser_id = a.licenser_id if a.licenser_id is not None else b.licenser_id
        if fit & _HC:
            attach(SCHEMA_HEAD_COMPLEMENT, a, b, licenser_id)
        if fit & _HA:
            attach(SCHEMA_HEAD_ADJUNCT, a, b, licenser_id)
        if fit & _VC:
            attach(SCHEMA_VERB_CLUSTER, a, b, licenser_id)
        if fit & _SI:
            attach(SCHEMA_SLASH_INTRO, a, b, b.id)
        # the filler is the very edge that licensed the dependency (trace
        # mode has no licensers)
        if fit & _FH and b.licenser_id == (None if trace_mode else a.id):
            attach(SCHEMA_FILLER_HEAD, a, b, None)

    # the edge list is the agenda: edges are processed in the order they are built
    done = 0
    while done < len(edges) and not state["limit_hit"]:
        e = edges[done]
        done += 1
        if e.schema == SCHEMA_FILLER_HEAD:
            continue
        # a pair reaches combine only when its coverages are disjoint and
        # grammar.fits admits some active schema in the direction tried;
        # fits runs only where the role masks, one bitwise and, meet
        heads, deps = e.heads & active, e.deps & active
        ef = e.sign.facts
        for f in unslashed if e.slash1 else processed:
            if e.coverage & f.coverage:
                continue
            if heads & f.deps and (fit := fits(ef, f.sign.facts) & active):
                combine(e, f, fit)
                if state["limit_hit"]:
                    break
            if deps & f.heads and (fit := fits(f.sign.facts, ef) & active):
                combine(f, e, fit)
                if state["limit_hit"]:
                    break
        processed.append(e)
        if not e.slash1:
            unslashed.append(e)

    derivations = sorted((Derivation(e) for e in edges
                          if e.coverage == full and is_reading(e, tokens, clause_type)),
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
    """Derivations in deterministic order, each with its root AVM text,
    printed from its replayed sign (:attr:`Derivation.sign`)."""
    return [(d, print_fs(d.sign.fs)) for d in sorted(derivations, key=Derivation.canonical_key)]


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
    """The full sign of ``derivation``, ``DTRS`` included; None on divergence.

    The derivation is rebuilt in one workspace, each step through its
    schema's prechecks, unification and ``place()``
    (:func:`vorfeld.grammar.rebuild`), and only the root is extracted
    whole.  An edge that occurs twice, a licenser that is also the filler,
    is built twice, and its two copies share only what the schemata unify,
    their LOC.
    Soundness: the root's SYNSEM and domain equal those of the chart's
    root.  The rebuild shares no memo with the chart: every step unifies
    afresh, so the comparison checks the chart rather than the memo
    against itself.
    """
    return G.rebuild(derivation.root)
