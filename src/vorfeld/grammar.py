"""Sign geometry and the combination schemata.

A chart sign couples a feature structure holding only SYNSEM with a word
order domain; it records no daughters.  The derivation tree lives once, on
the parser's edges, and the full AVM with its typed daughter structure
(``DTRS``) exists only on derivations rebuilt from their lexical leaves
(:func:`vorfeld.parser.replay`).  Both the chart and the rebuild apply the
schemata through :func:`apply_schema`; only the rebuild keeps ``DTRS``.
Five schemata combine signs:

* head-complement: binary; saturates the last (most oblique) element of a
  closed COMPS list.  A single fixed saturation order keeps the Mittelfeld
  free of spurious bracketings.
* head-adjunct: the adjunct's MOD value unifies with the head's synsem;
  the adjunct stays a separate domain element, so it may end up
  discontinuous from its head.
* verb-cluster: a verb selecting a verbal complement (VCOMP) combines with
  it; the full synsem of the embedded sign (including LEX, which lives
  outside LOC) unifies with the VCOMP value, so only LEX + material
  clusters.  Argument attraction follows from the lexical reentrancies
  alone: the head's COMPS is tagged to the embedded SUBJ/COMPS lists, so
  unifying the VCOMP instantiates it.
* pvp-slash-intro: saturates the VCOMP by moving its LOC value into
  SLASH, licensed by an actually present verbal projection elsewhere in
  the string.  Only LOC is unified (LEX is invisible across the
  dependency), and the licenser contributes nothing to the mother's
  domain; its arguments are attracted exactly as in clustering, so the
  resulting COMPS list is fully instantiated.
* filler-head: binds the SLASH element against a fronted filler and
  inserts the filler's material into the clause domain.

All schemata share the head daughter's HEAD value with the mother (Head
Feature Principle) and union the daughters' SLASH sets (Nonlocal Feature
Principle), failing when the union would exceed one element.  Schema
application never mutates the daughters and returns None on failure.

What a schema asks of one daughter alone is stated once, in two role masks
of :class:`SignFacts`, one bit per schema: ``heads`` holds the schemata a
sign may be the first daughter of, ``deps`` the second.  A schema tests the
masks, then its conditions on the pair; the parser pairs on the same masks.

A mother's structure depends only on the schema and its daughters'
structures, never on their coverage or domain.  So a schema takes an
optional memo: after its prechecks (which may read the domains) it looks up
``(schema, first structure, second structure)``, unifies on a miss, and
stores the mother's structure, facts and synsem (a sign with an empty
domain), or None; the domain is always built from the daughters at hand.
The parser passes one memo per parse, which also holds the trace-mode
mothers; the rebuild of a derivation passes none, so it unifies every
step afresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import orderdomain as od
from .orderdomain import (
    Domain,
    DomainElement,
    EMPTY_DOMAIN,
    mask_span,
)
from .tfs import (
    APPEND,
    CLOSED,
    OPEN,
    FeatureStructure,
    PathError,
    TypeHierarchy,
    Workspace,
    path_get,
)

# feature geometry of the fragment
P_SYNSEM = ("SYNSEM",)
P_LOC = ("SYNSEM", "LOC")
P_CAT = ("SYNSEM", "LOC", "CAT")
P_HEAD = ("SYNSEM", "LOC", "CAT", "HEAD")
P_VFORM = ("SYNSEM", "LOC", "CAT", "HEAD", "VFORM")
P_CASE = ("SYNSEM", "LOC", "CAT", "HEAD", "CASE")
P_SUBJ = ("SYNSEM", "LOC", "CAT", "HEAD", "SUBJ")
P_MOD = ("SYNSEM", "LOC", "CAT", "HEAD", "MOD")
P_COMPS = ("SYNSEM", "LOC", "CAT", "COMPS")
P_VCOMP = ("SYNSEM", "LOC", "CAT", "VCOMP")
P_LEX = ("SYNSEM", "LEX")
P_SLASH = ("SYNSEM", "NONLOC", "INHER", "SLASH")

TYPE_LEXICAL = "lexical-sign"
TYPE_PHRASAL = "phrasal-sign"

# every type the schemata, the rebuild of a derivation and the traces build
BUILT_TYPES = (
    TYPE_LEXICAL, TYPE_PHRASAL, "synsem", "local", "cat", "nonlocal", "inherited",
    "vcomp-val", "none", "verb", "+", "-",
    "head-complement-structure", "head-adjunct-structure", "head-cluster-structure",
    "complement-slash-licencing-structure", "filler-head-structure",
)


# schema labels: the schemata in the order the parser tries them, and their
# bits in the role masks
SCHEMA_HEAD_COMPLEMENT = "head-complement"
SCHEMA_HEAD_ADJUNCT = "head-adjunct"
SCHEMA_VERB_CLUSTER = "verb-cluster"
SCHEMA_SLASH_INTRO = "pvp-slash-intro"
SCHEMA_FILLER_HEAD = "filler-head"
SCHEMATA = (SCHEMA_HEAD_COMPLEMENT, SCHEMA_HEAD_ADJUNCT, SCHEMA_VERB_CLUSTER,
            SCHEMA_SLASH_INTRO, SCHEMA_FILLER_HEAD)
SCHEMA_BIT = {schema: 1 << i for i, schema in enumerate(SCHEMATA)}


@dataclass(frozen=True)
class SignFacts:
    """Cheap category summary: the schemata's daughter-local preconditions."""

    head: Optional[str]
    vform: Optional[str]
    case: Optional[str]
    lex: Optional[str]
    comps_kind: Optional[str]
    comps_len: int
    vcomp: str  # 'none' | 'sel' | 'open' | 'missing'
    slash: Optional[int]
    has_mod: bool
    comps_last_head: Optional[str] = None
    comps_last_case: Optional[str] = None
    vcomp_vform: Optional[str] = None
    mod_head: Optional[str] = None
    heads: int = 0  # role masks, one SCHEMA_BIT per schema: first daughter
    deps: int = 0  # ... and second daughter


@dataclass(frozen=True, eq=False)
class Sign:
    """A word or phrase: feature structure and order domain."""

    hierarchy: TypeHierarchy
    fs: FeatureStructure
    dom: Domain
    facts: SignFacts
    synsem_fs: FeatureStructure


def _facts(fs: FeatureStructure) -> SignFacts:
    comps_kind = comps_last_head = comps_last_case = None
    comps_len = 0
    try:
        comps = fs.nodes[fs.resolve(P_COMPS)]
        comps_kind = comps.kind
        comps_len = len(comps.elems)
        if comps.kind == CLOSED and comps.elems:
            comps_last_head = fs.type_at(("LOC", "CAT", "HEAD"), comps.elems[-1])
            comps_last_case = fs.type_at(("LOC", "CAT", "HEAD", "CASE"), comps.elems[-1])
    except PathError:
        pass
    vcomp_type = fs.type_at(P_VCOMP)
    vcomp_vform = None
    if vcomp_type is None:
        vcomp = "missing"
    elif vcomp_type == "none":
        vcomp = "none"
    elif vcomp_type == "synsem":
        vcomp = "sel"
        vcomp_vform = fs.type_at(P_VCOMP + ("LOC", "CAT", "HEAD", "VFORM"))
    else:
        vcomp = "open"
    slash: Optional[int] = None
    try:
        slash = len(fs.nodes[fs.resolve(P_SLASH)].elems)
    except PathError:
        pass
    head, vform, has_mod = fs.type_at(P_HEAD), fs.type_at(P_VFORM), fs.has_path(P_MOD)
    # the schemata's daughter-local preconditions, stated here only
    heads = _roles(
        # head-complement: a closed COMPS list once the cluster is formed, or
        # an underspecified one (a trace, or anything built on one)
        (vcomp == "none" and comps_kind == CLOSED and comps_len > 0)
        or (comps_kind in (OPEN, APPEND) and vcomp in ("none", "open")),
        True,  # head-adjunct
        vcomp in ("sel", "open"),  # verb-cluster
        vcomp == "sel" and slash == 0,  # slash introduction
        slash == 0)  # filler-head: the filler
    deps = _roles(
        True,  # head-complement
        has_mod,  # head-adjunct
        head == "verb",  # verb-cluster
        head == "verb" and slash == 0,  # slash introduction: the licenser
        # filler-head: a saturated finite clause with one SLASH element
        slash == 1 and head == "verb" and vform == "fin" and comps_kind == CLOSED
        and comps_len == 0)
    return SignFacts(
        head=head,
        vform=vform,
        case=fs.type_at(P_CASE),
        lex=fs.type_at(P_LEX),
        comps_kind=comps_kind,
        comps_len=comps_len,
        vcomp=vcomp,
        slash=slash,
        has_mod=has_mod,
        comps_last_head=comps_last_head,
        comps_last_case=comps_last_case,
        vcomp_vform=vcomp_vform,
        mod_head=fs.type_at(P_MOD + ("LOC", "CAT", "HEAD")),
        heads=heads,
        deps=deps,
    )


def _roles(*admitted: bool) -> int:
    """The role mask with the bit of each schema, in ``SCHEMATA`` order, admitted."""
    return sum(1 << i for i, holds in enumerate(admitted) if holds)


def make_sign(hierarchy: TypeHierarchy, fs: FeatureStructure, dom: Domain) -> Sign:
    return Sign(hierarchy, fs, dom, _facts(fs), path_get(fs, P_SYNSEM))


def lexical_sign(hierarchy: TypeHierarchy, fs: FeatureStructure,
                 tokens: Sequence[str], start: int) -> Sign:
    """Wrap a lexical entry structure as a sign covering ``tokens`` at ``start``."""
    sign = make_sign(hierarchy, fs, EMPTY_DOMAIN)
    element = DomainElement(tuple(tokens), mask_span(start, len(tokens)), sign.facts)
    dom = Domain((element,), element.coverage)
    return Sign(hierarchy, fs, dom, sign.facts, sign.synsem_fs)


# ---------------------------------------------------------------------------
# schema plumbing


def _union_slash(ws: Workspace, roots: Sequence[int]) -> Optional[int]:
    """SLASH set of the mother: union of the daughters', capped at one element."""
    nonempty = []
    for r in roots:
        node = _try_resolve(ws, r, P_SLASH)
        if node is not None and ws.elems_of(node):
            nonempty.append(node)
    if len(nonempty) > 1:
        return None
    if nonempty:
        return nonempty[0]
    return ws.set_value([])


def _try_resolve(ws: Workspace, root: int, path) -> Optional[int]:
    try:
        return ws.resolve(root, path)
    except PathError:
        return None


def _compatible(hierarchy: TypeHierarchy, a: Optional[str], b: Optional[str]) -> bool:
    return a is None or b is None or hierarchy.glb(a, b) is not None


def _admits(schema: str, first: Sign, second: Sign) -> bool:
    """The daughters' role masks admit them to ``schema``, in this order."""
    return bool(first.facts.heads & second.facts.deps & SCHEMA_BIT[schema])


def _slash_overflow(a: Sign, b: Sign) -> bool:
    return a.facts.slash == 1 and b.facts.slash == 1


def _insert_comp_dom(head: Sign, comp: Sign) -> Optional[Domain]:
    """Complements compact into one element; complementizer heads stay
    transparent; phonologically empty complements contribute nothing."""
    if head.facts.head == "comp":
        return od.domain_union(head.dom, comp.dom)
    if not comp.dom.elements:
        return head.dom
    element = od.compact(comp.dom.elements, comp.facts)
    if element is None:
        return None
    return od.domain_union(head.dom, Domain((element,), element.coverage))


def _memoized(memo: Optional[dict], key: tuple,
              build: Callable[[], Optional[Sign]]) -> Optional[Sign]:
    """``build()``, run once per ``key`` of ``memo`` (every time without one)."""
    if memo is None:
        return build()
    try:
        return memo[key]
    except KeyError:
        mother = memo[key] = build()
        return mother


def _placed(mother: Sign, dom: Optional[Domain]) -> Optional[Sign]:
    """A mother structure from the memo, given the domain of its own daughters.

    Callers test the structure first, so a failed combination builds no
    domain.
    """
    if dom is None:
        return None
    return Sign(mother.hierarchy, mother.fs, dom, mother.facts, mother.synsem_fs)


def _underspecified_mother(head: Sign, other: Sign, as_cluster: bool,
                           memo: Optional[dict]) -> Optional[Sign]:
    """Mother structure for trace-mode combinations on underspecified heads.

    The head imposes no constraint on the other daughter (that is the
    defect being demonstrated), so no unification is needed; the mother is
    built from the daughters' synsems alone.  The other daughter
    contributes nothing beyond a possible SLASH element, so the memo key is
    the head's synsem, the SLASH donor and the kind of combination, which
    keeps the exploding chart affordable.  The mother records no daughters,
    not even when a derivation is rebuilt.
    """
    donor = other.synsem_fs if (head.facts.slash != 1 and other.facts.slash == 1) else None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.synsem_fs)
        if donor is not None:
            d = ws.graft(donor)
            slash = _try_resolve(ws, d, ("NONLOC", "INHER", "SLASH"))
        else:
            slash = _try_resolve(ws, h, ("NONLOC", "INHER", "SLASH"))
        if slash is None:
            slash = ws.set_value([])
        if as_cluster:
            comps = ws.resolve(h, ("LOC", "CAT", "COMPS"))
            vcomp = ws.atom("none")
            lex = ws.atom("+")
        else:
            comps = ws.open_list([])
            vcomp = ws.resolve(h, ("LOC", "CAT", "VCOMP"))
            lex = ws.atom("-")
        cat = ws.avm("cat", HEAD=ws.resolve(h, ("LOC", "CAT", "HEAD")),
                     COMPS=comps, VCOMP=vcomp)
        nonloc = ws.avm("nonlocal", INHER=ws.avm("inherited", SLASH=slash))
        synsem = ws.avm("synsem", LOC=ws.avm("local", CAT=cat), NONLOC=nonloc, LEX=lex)
        fs = ws.extract(ws.avm(TYPE_PHRASAL, SYNSEM=synsem))
        if fs is None:
            return None
        return make_sign(head.hierarchy, fs, EMPTY_DOMAIN)

    key = (head.synsem_fs.nodes, donor.nodes if donor is not None else None, as_cluster)
    return _memoized(memo, key, build)


def _mother(ws: Workspace, struct_type: str, struct_feats: dict[str, int], loc: int,
            lex: Optional[int], slash: int, keep_dtrs: bool) -> Optional[Sign]:
    """The mother structure, with an empty domain; None when extraction fails.

    A chart mother is ``phrasal-sign[SYNSEM]``; only the rebuild of a
    derivation (``keep_dtrs``) records the daughters under ``DTRS``.
    """
    nonloc = ws.avm("nonlocal", INHER=ws.avm("inherited", SLASH=slash))
    feats = {"LOC": loc, "NONLOC": nonloc}
    if lex is not None:
        feats["LEX"] = lex
    mother = {"SYNSEM": ws.avm("synsem", **feats)}
    if keep_dtrs:
        mother["DTRS"] = ws.avm(struct_type, **struct_feats)
    fs = ws.extract(ws.avm(TYPE_PHRASAL, **mother))
    if fs is None:
        return None
    return make_sign(ws.hierarchy, fs, EMPTY_DOMAIN)


# ---------------------------------------------------------------------------
# the schemata


def apply_head_complement(head: Sign, comp: Sign, keep_dtrs: bool = False,
                          memo: Optional[dict] = None) -> Optional[Sign]:
    """Saturate the last element of the head's COMPS list with ``comp``.

    The head's verbal complement must already be discharged (VCOMP none):
    clusters form before complements attach.  The complement enters the
    head's domain as a single compacted element, except under a
    complementizer head, whose clausal complement stays domain-transparent
    so the linearization checks can see the verb cluster.

    A head with an underspecified COMPS list accepts any complement
    whatsoever and keeps its valence underspecified — a trace, or anything
    built on one, qualifies; this is exactly the defect the licensing
    schema exists to avoid.  Licensing mode drops every sign whose valence
    stays open once its VCOMP is none, and in the bundled fragment only
    traces leave VCOMP underspecified, so this surfaces in trace mode alone.
    """
    if not _admits(SCHEMA_HEAD_COMPLEMENT, head, comp) or _slash_overflow(head, comp):
        return None
    if head.facts.comps_kind != CLOSED:
        mother = _underspecified_mother(head, comp, as_cluster=False, memo=memo)
        return mother and _placed(mother, _insert_comp_dom(head, comp))
    if not _compatible(head.hierarchy, head.facts.comps_last_head, comp.facts.head):
        return None
    if not _compatible(head.hierarchy, head.facts.comps_last_case, comp.facts.case):
        return None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.fs)
        c = ws.graft(comp.fs)
        elems = ws.elems_of(ws.resolve(h, P_COMPS))
        if not ws.unify_nodes(elems[-1], ws.resolve(c, P_SYNSEM)):
            return None
        new_comps = ws.closed_list(elems[:-1])
        slash = _union_slash(ws, (h, c))
        if slash is None:
            return None
        cat = ws.avm(
            "cat",
            HEAD=ws.resolve(h, P_HEAD),
            COMPS=new_comps,
            VCOMP=ws.resolve(h, P_VCOMP),
        )
        return _mother(
            ws, "head-complement-structure",
            {"HEAD-DTR": h, "COMP-DTRS": ws.closed_list([c])},
            ws.avm("local", CAT=cat), ws.atom("-"), slash, keep_dtrs,
        )

    mother = _memoized(memo, (SCHEMA_HEAD_COMPLEMENT, head.fs.nodes, comp.fs.nodes), build)
    return mother and _placed(mother, _insert_comp_dom(head, comp))


def apply_head_adjunct(head: Sign, adjunct: Sign, keep_dtrs: bool = False,
                       memo: Optional[dict] = None) -> Optional[Sign]:
    """Attach a modifier; its MOD value unifies with the head's synsem.

    The mother shares the head's whole CAT (category, valence) and LEX
    value; the adjunct joins the domain as its own element and may end up
    separated from the head.
    """
    if not _admits(SCHEMA_HEAD_ADJUNCT, head, adjunct) or _slash_overflow(head, adjunct):
        return None
    if not _compatible(head.hierarchy, adjunct.facts.mod_head, head.facts.head):
        return None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.fs)
        a = ws.graft(adjunct.fs)
        if not ws.unify_nodes(ws.resolve(a, P_MOD), ws.resolve(h, P_SYNSEM)):
            return None
        slash = _union_slash(ws, (h, a))
        if slash is None:
            return None
        return _mother(
            ws, "head-adjunct-structure", {"HEAD-DTR": h, "ADJUNCT-DTR": a},
            ws.resolve(h, P_LOC), _try_resolve(ws, h, P_LEX), slash, keep_dtrs,
        )

    mother = _memoized(memo, (SCHEMA_HEAD_ADJUNCT, head.fs.nodes, adjunct.fs.nodes), build)
    return mother and _placed(mother, od.domain_union(head.dom, adjunct.dom))


def apply_verb_cluster(head: Sign, cluster: Sign, keep_dtrs: bool = False,
                       memo: Optional[dict] = None) -> Optional[Sign]:
    """Combine a verb with its verbal complement into a (partial) cluster.

    The embedded sign's full synsem unifies with the head's VCOMP value,
    which the lexical entries restrict to LEX +, bse form and VCOMP none;
    the entry-level reentrancies then instantiate the head's valence
    (argument attraction).  The mother is LEX + so it can be embedded in
    turn, and both daughters' domains survive as separate elements.

    A head whose VCOMP is merely underspecified (a trace) also qualifies:
    nothing rules the combination out, which is part of the overgeneration
    the trace account suffers from.  Licensing-mode signs always pin VCOMP
    to none or a synsem, so this only surfaces in trace mode.
    """
    if not _admits(SCHEMA_VERB_CLUSTER, head, cluster) or _slash_overflow(head, cluster):
        return None
    if head.facts.vcomp == "open":
        # an underspecified selector accepts any verbal sign and learns
        # nothing from it (its VCOMP value carries no reentrancies)
        mother = _underspecified_mother(head, cluster, as_cluster=True, memo=memo)
        return mother and _placed(mother, od.domain_union(head.dom, cluster.dom))
    if not _compatible(head.hierarchy, head.facts.vcomp_vform, cluster.facts.vform):
        return None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.fs)
        c = ws.graft(cluster.fs)
        if not ws.unify_nodes(ws.resolve(h, P_VCOMP), ws.resolve(c, P_SYNSEM)):
            return None
        slash = _union_slash(ws, (h, c))
        if slash is None:
            return None
        cat = ws.avm(
            "cat",
            HEAD=ws.resolve(h, P_HEAD),
            COMPS=ws.resolve(h, P_COMPS),
            VCOMP=ws.atom("none"),
        )
        return _mother(
            ws, "head-cluster-structure",
            {"HEAD-DTR": h, "CLUSTER-DTR": c, "COMP-DTRS": ws.closed_list([])},
            ws.avm("local", CAT=cat), ws.atom("+"), slash, keep_dtrs,
        )

    mother = _memoized(memo, (SCHEMA_VERB_CLUSTER, head.fs.nodes, cluster.fs.nodes), build)
    return mother and _placed(mother, od.domain_union(head.dom, cluster.dom))


def apply_pvp_slash_introduction(head: Sign, licenser: Sign, keep_dtrs: bool = False,
                                 memo: Optional[dict] = None) -> Optional[Sign]:
    """Discharge the head's VCOMP into SLASH, licensed by a real projection.

    Only the licenser's LOC unifies with the VCOMP restriction — LEX lives
    outside LOC, so a phrasal (LEX −) projection licenses the dependency
    that clustering would reject.  The licenser's arguments are attracted
    through the same entry reentrancies as in clustering, so the mother's
    COMPS comes out fully instantiated; an underspecified result is
    rejected.  The licenser contributes nothing to the mother's domain,
    so it stays out of the mother's coverage until the filler binds it.
    """
    if not _admits(SCHEMA_SLASH_INTRO, head, licenser):
        return None
    if not _compatible(head.hierarchy, head.facts.vcomp_vform, licenser.facts.vform):
        return None
    if head.dom.coverage & licenser.dom.coverage:
        return None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.fs)
        li = ws.graft(licenser.fs)
        vcomp_loc = _try_resolve(ws, h, P_VCOMP + ("LOC",))
        if vcomp_loc is None:
            return None
        if not ws.unify_nodes(vcomp_loc, ws.resolve(li, P_SYNSEM + ("LOC",))):
            return None
        cat = ws.avm(
            "cat",
            HEAD=ws.resolve(h, P_HEAD),
            COMPS=ws.resolve(h, P_COMPS),
            VCOMP=ws.atom("none"),
        )
        mother = _mother(
            ws, "complement-slash-licencing-structure", {"HEAD-DTR": h, "VCOMP-DTR": li},
            ws.avm("local", CAT=cat), ws.atom("+"), ws.set_value([ws.find(vcomp_loc)]),
            keep_dtrs,
        )
        if mother is None or not check_comps_closed(mother):
            return None
        return mother

    mother = _memoized(memo, (SCHEMA_SLASH_INTRO, head.fs.nodes, licenser.fs.nodes), build)
    return mother and _placed(mother, head.dom)


def apply_filler_head(filler: Sign, head: Sign, keep_dtrs: bool = False,
                      memo: Optional[dict] = None) -> Optional[Sign]:
    """Bind the clause's SLASH element against the fronted filler.

    The head must be a saturated finite clause carrying exactly one SLASH
    element; the filler's LOC unifies with it and the filler's domain
    material is inserted (pre-verbal block compacted into the Vorfeld).
    The parser additionally requires the filler to be the very edge that
    licensed the dependency.
    """
    if not _admits(SCHEMA_FILLER_HEAD, filler, head):
        return None
    verb_pos = od.finite_verb_position(head.dom)
    if verb_pos is None:
        return None

    def build() -> Optional[Sign]:
        ws = Workspace(head.hierarchy)
        h = ws.graft(head.fs)
        f = ws.graft(filler.fs)
        slash_elems = ws.elems_of(ws.resolve(h, P_SLASH))
        if not ws.unify_nodes(slash_elems[0], ws.resolve(f, P_SYNSEM + ("LOC",))):
            return None
        return _mother(
            ws, "filler-head-structure", {"HEAD-DTR": h, "FILLER-DTR": f},
            ws.resolve(h, P_LOC), _try_resolve(ws, h, P_LEX), ws.set_value([]), keep_dtrs,
        )

    mother = _memoized(memo, (SCHEMA_FILLER_HEAD, filler.fs.nodes, head.fs.nodes), build)
    return mother and _placed(mother, od.insert_filler_domain(head.dom, filler, verb_pos))


# schema label -> name of the function applying it, looked up in this
# module's namespace at every call rather than bound here, so that a wrapper
# installed on the module attribute (perfbench/tracer.py) sees every call
_APPLY = {
    SCHEMA_HEAD_COMPLEMENT: "apply_head_complement",
    SCHEMA_HEAD_ADJUNCT: "apply_head_adjunct",
    SCHEMA_VERB_CLUSTER: "apply_verb_cluster",
    SCHEMA_SLASH_INTRO: "apply_pvp_slash_introduction",
    SCHEMA_FILLER_HEAD: "apply_filler_head",
}


def apply_schema(schema: str, first: Sign, second: Sign, keep_dtrs: bool = False,
                 memo: Optional[dict] = None) -> Optional[Sign]:
    """Apply the schema labelled ``schema`` to its daughters in derivation order.

    The one dispatch for both callers: the chart builds mothers of SYNSEM
    and domain only, sharing one ``memo`` over a parse; the rebuild of a
    derivation passes ``keep_dtrs`` and gets the full structure, built
    afresh.  Every schema first tests the daughters' role masks
    (``SignFacts.heads`` and ``deps``), then its conditions on the pair.
    """
    if keep_dtrs and memo is not None:
        raise ValueError("a memo holds chart mothers only; a rebuild takes none")
    return globals()[_APPLY[schema]](first, second, keep_dtrs=keep_dtrs, memo=memo)


# ---------------------------------------------------------------------------
# well-formedness and clause conditions


def check_comps_closed(sign: Sign) -> bool:
    """No underspecified valence list survives in a discharged sign.

    A sign still selecting its verbal complement defers the check: its
    valence is tagged to the embedded verb's lists and becomes instantiated
    the moment the complement (or its licenser) is found.  Once VCOMP is
    discharged, every list in the sign's structure must have determinate
    length; a trace in the verbal-complement slot leaves the attracted
    COMPS list open, which is precisely the defect this predicate detects.
    A chart sign carries only SYNSEM, so only SYNSEM is checked there; on
    a rebuilt sign the ``DTRS`` are checked too.
    """
    if sign.facts.vcomp in ("sel", "open", "missing"):
        return True
    return not any(node.kind in (OPEN, APPEND) for node in sign.fs.nodes)


def is_complete_clause(sign: Sign, clause_type: str) -> bool:
    """Root condition: saturated, SLASH bound, category per clause type."""
    f = sign.facts
    if f.slash != 0 or f.comps_kind != CLOSED or f.comps_len != 0:
        return False
    if clause_type == od.V2:
        return f.head == "verb" and f.vform == "fin" and f.vcomp == "none"
    return f.head == "comp"


# ---------------------------------------------------------------------------
# traces (the pre-licensing account, kept to demonstrate its defect)


def make_vcomp_trace(hierarchy: TypeHierarchy) -> Sign:
    """A phonologically empty verbal complement.

    The trace's LOC is shared with its own SLASH element and everything
    else is maximally underspecified: open valence lists, unconstrained
    verb form.
    """
    ws = Workspace(hierarchy)
    loc = ws.avm(
        "local",
        CAT=ws.avm(
            "cat",
            HEAD=ws.avm("verb", SUBJ=ws.open_list([])),
            COMPS=ws.open_list([]),
            VCOMP=ws.avm("vcomp-val"),
        ),
    )
    synsem = ws.avm(
        "synsem",
        LOC=loc,
        NONLOC=ws.avm("nonlocal", INHER=ws.avm("inherited", SLASH=ws.set_value([loc]))),
    )
    fs = ws.extract(ws.avm(TYPE_LEXICAL, SYNSEM=synsem))
    assert fs is not None
    return make_sign(hierarchy, fs, EMPTY_DOMAIN)
