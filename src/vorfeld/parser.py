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
    _SI,
    SCHEMA_BIT,
    SCHEMA_FILLER_HEAD,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    SCHEMATA,
    SchemaMemo,
    Sign,
    check_comps_closed,
    fits,
    is_complete_clause,
    make_vcomp_trace,
)
from .lexicon import Lexicon
from .orderdomain import V2, VFINAL, mask_positions, mask_span

LICENSING = "licensing"
TRACE = "trace"

LEX_SCHEMA = "lex"
TRACE_SCHEMA = "trace"

# for each role mask, its schemata resolved per pair of signs, in the order the
# parser tries them: all but filler-head, whose filler is a fact of the edges
_PAIRED = [tuple(schema for schema in SCHEMATA
                 if fit & SCHEMA_BIT[schema] and schema != SCHEMA_FILLER_HEAD)
           for fit in range(1 << len(SCHEMATA))]


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
    since no two SLASH-carrying edges are ever paired.  All four are
    functions of the sign, which is what lets the loop keep its partner
    lists per chart sign rather than per edge, and build an edge from a
    record of them that the parse keeps per pair of signs.
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
    return VFINAL if any(sign.facts.order == od.COMPLEMENTIZER for sign in first_signs) else V2


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
    gate every schema application passes first, so a dropped pair is one
    it would refuse before any work.  The loop runs ``fits`` only on pairs
    whose edges' role masks (``heads`` and ``deps``) already meet.  It
    keeps a partner list per chart sign: the earlier edges whose coverage
    is disjoint from the sign's and that some direction fits.  An edge
    whose sign was seen before adds only the edges processed since to the
    list.  So ``fits`` runs once per sign and earlier edge, not once per
    pair of edges, and the schemata receive the same pairs in the same
    order: the same chart, edge ids included.

    Above the memo, each parse keeps two tables of its own.  The sign
    table holds one sign per structure id and domain, and each new mother
    is swapped for it, so edges of equal structure and domain share one
    sign (the criterion-2 chart's 10,000 edges hold 114).  The pair table
    maps (schema, first sign, second sign) to that mother's record, the
    edge fields it fixes, or to no record for a pair without one: a mother
    depends on nothing else, so a pair of signs goes through
    ``apply_schema`` once however many pairs of edges hold it, failures
    included.  A verb cluster's order reads only the two signs' domains, so
    it is judged on a miss of the pair table, before the schema, and stored
    with the answer.  Domains belong to the sentence, so neither table
    outlives the parse.  Each partner list entry asks the pair table once
    per direction, the first time it is used, and keeps the records it
    gets; a later edge with the same sign builds its edges straight from
    them.  Filler identity and the licenser id are facts of the edges: they
    are judged on every pair of edges and never stored, so filler-head
    asks the pair table per pair of edges.  The root filter
    (:func:`is_reading`) reads only the sign, so it runs once per sign of
    full coverage.
    """
    if not tokens:
        raise ValueError("cannot parse an empty token sequence")
    options = options or ParseOptions()
    tokens = tuple(tokens)
    n = len(tokens)
    full = mask_span(0, n)

    edges: list[Edge] = []
    limit_hit = False
    rejected = 0
    trace_mode = options.mode == TRACE
    # each (schema, daughter structures) triple is unified once per memo,
    # whatever the coverages
    if memo is None:
        memo = SchemaMemo()

    def leaf(sign: Sign) -> Sign:
        """``sign`` on the memo's interned structure, as every mother is:
        no memo key has to look its structure up by its nodes."""
        return Sign(sign.hierarchy, memo.intern(sign.fs), sign.dom, sign.facts)

    def records_of(schema: str, sign: Sign) -> tuple[tuple, ...]:
        """The one record of an edge of ``sign`` built by ``schema``: what
        the edge holds besides its derivation, the edge fields copied from
        the sign, and whether the parse keeps it (licensing mode keeps no
        open valence)."""
        f = sign.facts
        return ((schema, sign, sign.dom.coverage, f.heads, f.deps, f.slash == 1,
                 trace_mode or check_comps_closed(sign)),)

    def grow(records: tuple[tuple, ...], daughters: tuple[Edge, ...],
             licenser_id: Optional[int], label: str = "") -> None:
        """One edge per record over ``daughters``, in order, up to the edge
        limit; slash introduction's edge is licensed by its second daughter.
        A record the parse does not keep is counted instead: a
        well-formedness assertion, which the suites pin at zero."""
        nonlocal limit_hit, rejected
        if limit_hit:
            return
        for schema, sign, coverage, heads, deps, slash1, closed in records:
            if not closed:
                rejected += 1
            elif len(edges) < options.edge_limit:
                edges.append(Edge(len(edges), sign, coverage, schema, daughters,
                                  daughters[1].id if schema == SCHEMA_SLASH_INTRO else licenser_id,
                                  label, heads, deps, slash1))
            else:
                limit_hit = True
                return

    # lexical layer
    covered = 0
    for pos in range(n):
        for k, (span, sign) in enumerate(lexicon.lookup(tokens, pos)):
            covered |= mask_span(pos, span)
            grow(records_of(LEX_SCHEMA, leaf(sign)), (), None, f"{tokens[pos]}@{pos}/{k}")

    if covered != full:
        missing = [tokens[p] for p in mask_positions(full & ~covered)]
        raise LexicalGapError(missing)
    clause_type = options.clause_type
    if clause_type == "auto":
        clause_type = detect_clause_type(e.sign for e in edges if e.coverage & 1)

    if trace_mode:
        trace = records_of(TRACE_SCHEMA, leaf(make_vcomp_trace(lexicon.hierarchy)))
        for boundary in range(n + 1):
            grow(trace, (), None, f"@{boundary}")

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

    # The schemata this parse may apply: traces stand in for slash
    # introduction, and only a verb-second clause has a Vorfeld to fill.
    active = sum(SCHEMA_BIT.values())
    if trace_mode:
        active &= ~_SI
    if clause_type != V2:
        active &= ~_FH
    # The parse's two tables.  ``signs`` holds its one sign per structure id
    # and domain.  A domain keys as its coverage and, per element, coverage,
    # field and word order class: within one sentence coverage fixes
    # phonology, so equal keys mean equal domains.  ``pairs`` maps
    # (schema, first sign, second sign), signs by identity, to the records
    # of the mother from ``signs``: one, or none for a pair without one, a
    # verb cluster out of order included.  Edges built from equal pairs
    # share one sign, so a pair of signs reaches a schema once.
    signs: dict[tuple, Sign] = {}
    pairs: dict[tuple[str, Sign, Sign], tuple[tuple, ...]] = {}

    def paired(schema: str, a: Sign, b: Sign) -> tuple[tuple, ...]:
        """The records of the mother of first sign ``a`` and second sign
        ``b`` under ``schema``: one, or none."""
        key = (schema, a, b)
        hit = pairs.get(key)
        if hit is not None:
            return hit
        # a cluster's domain is the union of its daughters' domains, and its
        # order reads only theirs
        mother = None
        if schema != SCHEMA_VERB_CLUSTER or od.cluster_in_order(
                a.dom.coverage | b.dom.coverage, a.dom, clause_type):
            mother = G.apply_schema(schema, a, b, memo=memo)
        if mother is None:
            hit = ()
        else:
            dom = mother.dom
            hit = records_of(schema, signs.setdefault(
                (mother.fs.sid, dom.coverage,
                 *[(el.coverage, el.field, el.order) for el in dom.elements]), mother))
        pairs[key] = hit
        return hit

    def resolve(a: Sign, b: Sign, fit: int) -> tuple[tuple, ...]:
        """The records of the mothers of first sign ``a`` and second sign
        ``b`` under the schemata of ``fit`` but filler-head, in their order."""
        records = ()
        for schema in _PAIRED[fit]:
            records += paired(schema, a, b)
        return records

    def fill(a: Edge, b: Edge) -> None:
        """Filler-head's edge over ``a`` and ``b``, if ``b`` is the very edge
        that licensed ``a``'s dependency (trace mode has no licensers)."""
        if b.licenser_id == (None if trace_mode else a.id):
            grow(paired(SCHEMA_FILLER_HEAD, a.sign, b.sign), (a, b), None)

    # Each chart sign's partner list: how far into its pool it has looked,
    # and, in pool order, an entry per pool edge of disjoint coverage that
    # fits it in either direction: the edge, the active schemata fits
    # admits each way, and each way's mother records, resolved the first
    # time the entry is used.  What the loop reads of an edge is its sign's
    # and the pools only grow, so the schemata get the calls a scan per edge
    # would make, in the same order, and each edge after the first with a
    # sign builds its edges from the stored records.
    partners: dict[Sign, list] = {}

    # the edge list is the agenda: edges are processed in the order they are built
    done = 0
    while done < len(edges) and not limit_hit:
        e = edges[done]
        done += 1
        if e.schema == SCHEMA_FILLER_HEAD:
            continue
        pool = unslashed if e.slash1 else processed
        entry = partners.get(e.sign)
        if entry is None:
            entry = partners[e.sign] = [0, []]
        seen, found = entry
        if seen < len(pool):
            # fits runs only where the role masks, one bitwise and, meet
            coverage, heads, deps = e.coverage, e.heads & active, e.deps & active
            ef = e.sign.facts
            for f in pool[seen:]:
                if coverage & f.coverage:
                    continue
                first = fits(ef, f.sign.facts) & active if heads & f.deps else 0
                second = fits(f.sign.facts, ef) & active if deps & f.heads else 0
                if first or second:
                    found.append([f, first, second, None, None])
            entry[0] = len(pool)
        for partner in found:
            f, first, second, there, back = partner
            if first:
                if there is None:
                    there = partner[3] = resolve(e.sign, f.sign, first)
                if there:
                    grow(there, (e, f), e.licenser_id if e.licenser_id is not None else f.licenser_id)
                if first & _FH:
                    fill(e, f)
                if limit_hit:
                    break
            if second:
                if back is None:
                    back = partner[4] = resolve(f.sign, e.sign, second)
                if back:
                    grow(back, (f, e), f.licenser_id if f.licenser_id is not None else e.licenser_id)
                if second & _FH:
                    fill(f, e)
                if limit_hit:
                    break
        processed.append(e)
        if not e.slash1:
            unslashed.append(e)

    # the root filter reads only the sign: once per sign of full coverage
    roots = [e for e in edges if e.coverage == full]
    verdicts = {sign: is_reading(sign, clause_type) for sign in dict.fromkeys(e.sign for e in roots)}
    derivations = sorted((Derivation(e) for e in roots if verdicts[e.sign]),
                         key=Derivation.canonical_key)
    return ParseResult(tokens, options.mode, clause_type, tuple(derivations),
                       tuple(edges), options.edge_limit, limit_hit, rejected)


def is_reading(sign: Sign, clause_type: str) -> bool:
    """Root filter: ``sign``, of full coverage, is a complete clause of
    ``clause_type`` by its category and its fields.  Its phonology is the
    input then: every element holds the tokens at its own positions, in
    position order (:mod:`vorfeld.orderdomain`)."""
    return is_complete_clause(sign, clause_type) and od.lp_check(sign.dom, clause_type)


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
    # open valence is a fact of the sign: tested once per chart sign
    open_signs = {sign for sign in {e.sign for e in result.edges}
                  if not check_comps_closed(sign)}
    offending = [e for e in result.edges if e.sign in open_signs]
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
