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
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from . import orderdomain as od
from .orderdomain import (
    Domain,
    DomainElement,
    EMPTY_DOMAIN,
    SCHEMA_FILLER_HEAD,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    mask_min,
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


class ModeError(Exception):
    """An operation was used outside its parsing mode."""


@dataclass(frozen=True)
class SignFacts:
    """Cheap category summary used for combination prechecks."""

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
    return SignFacts(
        head=fs.type_at(P_HEAD),
        vform=fs.type_at(P_VFORM),
        case=fs.type_at(P_CASE),
        lex=fs.type_at(P_LEX),
        comps_kind=comps_kind,
        comps_len=comps_len,
        vcomp=vcomp,
        slash=slash,
        has_mod=fs.has_path(P_MOD),
        comps_last_head=comps_last_head,
        comps_last_case=comps_last_case,
        vcomp_vform=vcomp_vform,
        mod_head=fs.type_at(P_MOD + ("LOC", "CAT", "HEAD")),
    )


def make_sign(hierarchy: TypeHierarchy, fs: FeatureStructure, dom: Domain) -> Sign:
    return Sign(hierarchy, fs, dom, _facts(fs), path_get(fs, P_SYNSEM))


def lexical_sign(hierarchy: TypeHierarchy, fs: FeatureStructure,
                 tokens: Sequence[str], start: int) -> Sign:
    """Wrap a lexical entry structure as a sign covering ``tokens`` at ``start``."""
    sign = make_sign(hierarchy, fs, EMPTY_DOMAIN)
    element = DomainElement(tuple(tokens), mask_span(start, len(tokens)), sign.synsem_fs)
    return Sign(hierarchy, fs, Domain((element,)), sign.facts, sign.synsem_fs)


# ---------------------------------------------------------------------------
# schema plumbing


def _slash_node(ws: Workspace, root: int) -> Optional[int]:
    try:
        return ws.resolve(root, P_SLASH)
    except PathError:
        return None


def _union_slash(ws: Workspace, roots: Sequence[int]) -> Optional[int]:
    """SLASH set of the mother: union of the daughters', capped at one element."""
    nonempty = []
    for r in roots:
        node = _slash_node(ws, r)
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


def _slash_overflow(a: Sign, b: Sign) -> bool:
    return a.facts.slash == 1 and b.facts.slash == 1


def _insert_comp_dom(head: Sign, comp: Sign) -> Optional[Domain]:
    """Complements compact into one element; complementizer heads stay
    transparent; phonologically empty complements contribute nothing."""
    if head.facts.head == "comp":
        return od.domain_union(head.dom, comp.dom)
    if not comp.dom.elements:
        return head.dom
    element = od.compact(comp.dom.elements, synsem=comp.synsem_fs)
    if element is None:
        return None
    return od.domain_union(head.dom, Domain((element,)))


def _underspecified_mother(head: Sign, other: Sign, dom: Optional[Domain],
                           cluster: bool) -> Optional[Sign]:
    """Mother for trace-mode combinations on underspecified heads.

    The head imposes no constraint on the other daughter (that is the
    defect being demonstrated), so no unification is needed; the mother is
    built from the daughters' synsems alone — and memoized, since the
    other daughter contributes nothing beyond a possible SLASH element —
    to keep the exploding chart affordable.  It records no daughters, not
    even when a derivation is rebuilt.
    """
    if dom is None:
        return None
    if head.facts.slash == 1 and other.facts.slash == 1:
        return None
    donor = other.synsem_fs if (head.facts.slash != 1 and other.facts.slash == 1) else None
    fs = _underspec_fs(head.hierarchy, head.synsem_fs, donor, cluster)
    if fs is None:
        return None
    return make_sign(head.hierarchy, fs, dom)


# hierarchy -> memo of _underspec_fs; an entry goes with its hierarchy
_UNDERSPEC_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _underspec_fs(hierarchy: TypeHierarchy, head_synsem: FeatureStructure,
                  slash_donor: Optional[FeatureStructure],
                  cluster: bool) -> Optional[FeatureStructure]:
    cache = _UNDERSPEC_CACHE.setdefault(hierarchy, {})
    key = (head_synsem.nodes, slash_donor.nodes if slash_donor is not None else None, cluster)
    if key in cache:
        return cache[key]
    ws = Workspace(hierarchy)
    h = ws.graft(head_synsem)
    if slash_donor is not None:
        d = ws.graft(slash_donor)
        slash = _try_resolve(ws, d, ("NONLOC", "INHER", "SLASH"))
    else:
        slash = _try_resolve(ws, h, ("NONLOC", "INHER", "SLASH"))
    if slash is None:
        slash = ws.set_value([])
    if cluster:
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
    cache[key] = fs
    return fs


def _mother(ws: Workspace, dom: Optional[Domain], struct_type: str,
            struct_feats: dict[str, int], loc: int, lex: Optional[int], slash: int,
            keep_dtrs: bool) -> Optional[Sign]:
    """The mother sign; None when its domain or the extraction fails.

    A chart mother is ``phrasal-sign[SYNSEM]``; only the rebuild of a
    derivation (``keep_dtrs``) records the daughters under ``DTRS``.
    """
    if dom is None:
        return None
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
    return make_sign(ws.hierarchy, fs, dom)


# ---------------------------------------------------------------------------
# the schemata


def apply_head_complement(head: Sign, comp: Sign, allow_open: bool = False,
                          keep_dtrs: bool = False) -> Optional[Sign]:
    """Saturate the last element of the head's COMPS list with ``comp``.

    The head's verbal complement must already be discharged (VCOMP none):
    clusters form before complements attach.  The complement enters the
    head's domain as a single compacted element, except under a
    complementizer head, whose clausal complement stays domain-transparent
    so the linearization checks can see the verb cluster.

    With ``allow_open`` (the trace-mode demonstration) a head with an
    underspecified COMPS list accepts any complement whatsoever and keeps
    its valence underspecified — a trace, or anything built on one,
    qualifies; this is exactly the defect the licensing schema exists to
    avoid.
    """
    open_comps = head.facts.comps_kind in (OPEN, APPEND)
    if _slash_overflow(head, comp):
        return None
    if open_comps:
        if not allow_open or head.facts.vcomp not in ("none", "open"):
            return None
        return _underspecified_mother(head, comp, _insert_comp_dom(head, comp), cluster=False)
    if head.facts.vcomp != "none":
        return None
    if head.facts.comps_kind != CLOSED or head.facts.comps_len == 0:
        return None
    if not _compatible(head.hierarchy, head.facts.comps_last_head, comp.facts.head):
        return None
    if not _compatible(head.hierarchy, head.facts.comps_last_case, comp.facts.case):
        return None

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
        ws, _insert_comp_dom(head, comp), "head-complement-structure",
        {"HEAD-DTR": h, "COMP-DTRS": ws.closed_list([c])},
        ws.avm("local", CAT=cat), ws.atom("-"), slash, keep_dtrs,
    )


def apply_head_adjunct(head: Sign, adjunct: Sign, keep_dtrs: bool = False) -> Optional[Sign]:
    """Attach a modifier; its MOD value unifies with the head's synsem.

    The mother shares the head's whole CAT (category, valence) and LEX
    value; the adjunct joins the domain as its own element and may end up
    separated from the head.
    """
    if not adjunct.facts.has_mod:
        return None
    if not _compatible(head.hierarchy, adjunct.facts.mod_head, head.facts.head):
        return None
    if _slash_overflow(head, adjunct):
        return None
    ws = Workspace(head.hierarchy)
    h = ws.graft(head.fs)
    a = ws.graft(adjunct.fs)
    if not ws.unify_nodes(ws.resolve(a, P_MOD), ws.resolve(h, P_SYNSEM)):
        return None
    slash = _union_slash(ws, (h, a))
    if slash is None:
        return None
    return _mother(
        ws, od.domain_union(head.dom, adjunct.dom), "head-adjunct-structure",
        {"HEAD-DTR": h, "ADJUNCT-DTR": a},
        ws.resolve(h, P_LOC), _try_resolve(ws, h, P_LEX), slash, keep_dtrs,
    )


def apply_verb_cluster(head: Sign, cluster: Sign, keep_dtrs: bool = False) -> Optional[Sign]:
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
    if head.facts.vcomp not in ("sel", "open"):
        return None
    if cluster.facts.head != "verb":
        return None
    if _slash_overflow(head, cluster):
        return None
    if head.facts.vcomp == "open":
        # an underspecified selector accepts any verbal sign and learns
        # nothing from it (its VCOMP value carries no reentrancies)
        return _underspecified_mother(head, cluster, od.domain_union(head.dom, cluster.dom),
                                      cluster=True)
    if not _compatible(head.hierarchy, head.facts.vcomp_vform, cluster.facts.vform):
        return None
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
        ws, od.domain_union(head.dom, cluster.dom), "head-cluster-structure",
        {"HEAD-DTR": h, "CLUSTER-DTR": c, "COMP-DTRS": ws.closed_list([])},
        ws.avm("local", CAT=cat), ws.atom("+"), slash, keep_dtrs,
    )


def apply_pvp_slash_introduction(head: Sign, licenser: Sign,
                                 keep_dtrs: bool = False) -> Optional[Sign]:
    """Discharge the head's VCOMP into SLASH, licensed by a real projection.

    Only the licenser's LOC unifies with the VCOMP restriction — LEX lives
    outside LOC, so a phrasal (LEX −) projection licenses the dependency
    that clustering would reject.  The licenser's arguments are attracted
    through the same entry reentrancies as in clustering, so the mother's
    COMPS comes out fully instantiated; an underspecified result is
    rejected.  The licenser contributes nothing to the mother's domain.
    """
    if head.facts.vcomp != "sel":
        return None
    if licenser.facts.head != "verb":
        return None
    if head.facts.slash != 0 or licenser.facts.slash != 0:
        return None
    if not _compatible(head.hierarchy, head.facts.vcomp_vform, licenser.facts.vform):
        return None
    if head.dom.coverage & licenser.dom.coverage:
        return None
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
        ws, head.dom, "complement-slash-licencing-structure",
        {"HEAD-DTR": h, "VCOMP-DTR": li},
        ws.avm("local", CAT=cat), ws.atom("+"), ws.set_value([ws.find(vcomp_loc)]), keep_dtrs,
    )
    if mother is None or not check_comps_closed(mother):
        return None
    return mother


def apply_filler_head(filler: Sign, head: Sign, keep_dtrs: bool = False) -> Optional[Sign]:
    """Bind the clause's SLASH element against the fronted filler.

    The head must be a saturated finite clause carrying exactly one SLASH
    element; the filler's LOC unifies with it and the filler's domain
    material is inserted (pre-verbal block compacted into the Vorfeld).
    The parser additionally requires the filler to be the very edge that
    licensed the dependency.
    """
    if head.facts.slash != 1 or filler.facts.slash != 0:
        return None
    if head.facts.head != "verb" or head.facts.vform != "fin":
        return None
    if head.facts.comps_kind != CLOSED or head.facts.comps_len != 0:
        return None
    verb_pos = finite_verb_position(head)
    if verb_pos is None:
        return None
    ws = Workspace(head.hierarchy)
    h = ws.graft(head.fs)
    f = ws.graft(filler.fs)
    slash_elems = ws.elems_of(ws.resolve(h, P_SLASH))
    if not ws.unify_nodes(slash_elems[0], ws.resolve(f, P_SYNSEM + ("LOC",))):
        return None
    return _mother(
        ws, od.insert_filler_domain(head.dom, filler, verb_pos), "filler-head-structure",
        {"HEAD-DTR": h, "FILLER-DTR": f},
        ws.resolve(h, P_LOC), _try_resolve(ws, h, P_LEX), ws.set_value([]), keep_dtrs,
    )


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


def apply_schema(schema: str, first: Sign, second: Sign, allow_open: bool = False,
                 keep_dtrs: bool = False) -> Optional[Sign]:
    """Apply the schema labelled ``schema`` to its daughters in derivation order.

    The one dispatch for both callers: the chart builds mothers of SYNSEM
    and domain only; the rebuild of a derivation passes ``keep_dtrs`` and
    gets the full structure.  ``allow_open`` only concerns head-complement.
    """
    apply = globals()[_APPLY[schema]]
    if schema == SCHEMA_HEAD_COMPLEMENT:
        return apply(first, second, allow_open, keep_dtrs=keep_dtrs)
    return apply(first, second, keep_dtrs=keep_dtrs)


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


def finite_verb_position(sign: Sign) -> Optional[int]:
    """Position of the unique finite-verb element of the sign's domain."""
    positions = [
        mask_min(e.coverage)
        for e in sign.dom.elements
        if od._is_finite_verb(e)
    ]
    if len(positions) != 1:
        return None
    return positions[0]


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


def make_vcomp_trace(head_requirement: FeatureStructure, mode: str,
                     hierarchy: TypeHierarchy) -> Sign:
    """A phonologically empty verbal complement.

    The trace's LOC is shared with its own SLASH element and everything
    else is maximally underspecified: open valence lists, unconstrained
    verb form.  ``head_requirement`` is unified into the trace's synsem
    (it flows into the SLASH element through the sharing); use
    :func:`generic_verbal_synsem` for the weakest restriction.  Only
    available in trace mode.
    """
    if mode != "trace":
        raise ModeError("traces are only available in trace mode")
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
    root = ws.avm(TYPE_LEXICAL, SYNSEM=synsem)
    req = ws.graft(head_requirement)
    if not ws.unify_nodes(synsem, req):
        raise ValueError("head requirement is incompatible with a verbal trace")
    fs = ws.extract(root)
    if fs is None:
        raise ValueError("head requirement is incompatible with a verbal trace")
    return make_sign(hierarchy, fs, EMPTY_DOMAIN)


def generic_verbal_synsem(hierarchy: TypeHierarchy) -> FeatureStructure:
    """The weakest synsem restriction a verbal-complement trace satisfies."""
    ws = Workspace(hierarchy)
    root = ws.avm("synsem", LOC=ws.avm("local", CAT=ws.avm("cat", HEAD=ws.avm("verb"))))
    fs = ws.extract(root)
    assert fs is not None
    return fs
