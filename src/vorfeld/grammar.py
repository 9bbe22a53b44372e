"""Sign geometry and the combination schemata.

A chart sign is a synsem plus a word order domain: its feature structure
is the SYNSEM value itself, and it records no daughters.  The derivation
tree lives once, on the parser's edges, and the whole sign, a
``phrasal-sign`` with its typed daughter structure (``DTRS``), exists only
on derivations rebuilt from their lexical leaves
(:func:`vorfeld.parser.replay`).  The schemata build chart signs only.  A
rebuild grafts each leaf once into one workspace and runs each schema's
step there (:func:`rebuild`): the same prechecks, unification and
domain as in the chart, with ``DTRS`` built from node ids.
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
sign may be the first daughter of, ``deps`` the second.  What it asks of
the pair's facts is stated once too, in :func:`fits`: the role masks, a
quick check of the facts its body unifies first, and the SLASH overflow.
The quick check (Kiefer, Krieger, Carroll & Malouf 1999) compares, each
as an and of two masks, the facts on which failed unifications clashed:
for head-complement the HEAD, CASE, VFORM and VCOMP types, COMPS length
and SLASH size of the last complement against the complement's own; for
head-adjunct MOD HEAD against HEAD; for verb-cluster and slash
introduction the selected VCOMP's VFORM and VCOMP types, and for
verb-cluster its LEX type too, against the other daughter's.  A type is
its extension mask (:attr:`vorfeld.tfs.TypeHierarchy.extensions`), a
closed list's length or a set's size ``n`` the mask ``1 << n``.  Each
test is sound: lengths and sizes never change under unification, a glb
only narrows a type, and each body unifies the whole selected synsem, or
LOC for slash introduction, with the daughter before anything else.  On
the bundled corpus no unification fails.  The parser pairs edges on
``fits``, and every application passes it first, so no pair it rules out
reaches a schema.

Every application, in the chart and in a rebuild, goes through one gate,
:func:`_step`: ``fits``, then the schema's step, which runs the prechecks
that read more than the facts and gives the second structure the
mother depends on, the body that unifies, and ``place()``, the domain.  A
mother's structure depends only on the schema and its daughters'
structures, never on their coverage or domain, so the chart has one memo
path, :func:`_combine`, through the caller's memo (:class:`SchemaMemo`)
or a fresh one.  It builds every key in one place, ``(schema, first id,
second id or None)``, each id a synsem's in the memo's intern table,
unifies on a miss, and stores the mother's synsem, interned, and facts (a
sign with an empty domain), or None; the domain is always built from the
daughters at hand, and only for a mother that exists.  This module makes
no domain itself: a word's (:func:`lexical_sign`) and each ``place()``
come from :mod:`vorfeld.orderdomain`, which reads the daughters' domains
and, of the facts, only the word order class (``SignFacts.order``), so
equal domains are equal values, whichever signs built them.  A memo key
needs nothing of the sentence, so a memo may outlive a parse: the parser
takes one memo per parse, fresh unless its caller passes one
(``run_corpus`` shares one between the lines of a corpus), and it also
holds the trace-mode mothers; the rebuild of a derivation uses none, so
it unifies every step afresh.  The tables the parser keeps above the memo
for one parse are described at :func:`vorfeld.parser.parse`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import orderdomain as od
from .orderdomain import EMPTY_DOMAIN, Domain
from .tfs import (
    APPEND,
    CLOSED,
    OPEN,
    SET,
    FeatureStructure,
    PathError,
    TypeHierarchy,
    Workspace,
    path_get,
)

# feature geometry of the fragment: a whole sign's SYNSEM, and every other
# path from a synsem
P_SYNSEM = ("SYNSEM",)
P_LOC = ("LOC",)
P_CAT = ("LOC", "CAT")
P_HEAD = ("LOC", "CAT", "HEAD")
P_VFORM = ("LOC", "CAT", "HEAD", "VFORM")
P_CASE = ("LOC", "CAT", "HEAD", "CASE")
P_SUBJ = ("LOC", "CAT", "HEAD", "SUBJ")
P_MOD = ("LOC", "CAT", "HEAD", "MOD")
P_COMPS = ("LOC", "CAT", "COMPS")
P_VCOMP = ("LOC", "CAT", "VCOMP")
P_LEX = ("LEX",)
P_SLASH = ("NONLOC", "INHER", "SLASH")


def _after(prefix: tuple[str, ...], path: tuple[str, ...]) -> tuple[str, ...]:
    """The rest of ``path`` after ``prefix``, which must begin it."""
    assert path[:len(prefix)] == prefix, (prefix, path)
    return path[len(prefix):]


# the paths ``_facts`` follows from a CAT or a HEAD it has resolved
_CAT_HEAD, _CAT_COMPS, _CAT_VCOMP, _CAT_VFORM = (
    _after(P_CAT, p) for p in (P_HEAD, P_COMPS, P_VCOMP, P_VFORM))
_HEAD_VFORM, _HEAD_CASE, _HEAD_MOD = (_after(P_HEAD, p) for p in (P_VFORM, P_CASE, P_MOD))

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
_HC, _HA, _VC, _SI, _FH = SCHEMA_BIT.values()
_VS = _VC | _SI  # the schemata that compare the selected VCOMP's LOC with the other's


@dataclass(frozen=True, slots=True)
class SignFacts:
    """Cheap category summary: the schemata's daughter-local preconditions,
    the word order class (``order``, see :mod:`vorfeld.orderdomain`), and
    the masks (``*_ext``) of the facts :func:`fits` compares between
    daughters, so a clash is one and of two ints.

    A type is stored as its extension mask, a closed list's length or a
    set's size ``n`` as the mask ``1 << n``, and a fact that is undefined,
    or not a type, a closed COMPS list or a SLASH set, as -1, every bit.
    Slotted: every chart sign holds one, and an instance dict would add
    64 bytes to each."""

    order: Optional[str]
    lex: Optional[str]
    comps_kind: Optional[str]
    comps_len: int
    # VCOMP is of type none or synsem, a subtype included, or of neither: an
    # underspecified selection ('open', a trace and what is built on one)
    vcomp: str  # 'none' | 'sel' | 'open'
    slash: Optional[int]
    has_mod: bool
    open_lists: bool  # some list of the whole structure, DTRS included, is open
    heads: int  # role masks, one SCHEMA_BIT per schema: first daughter
    deps: int  # ... and second daughter
    # the sign's own: HEAD, CASE, VFORM, LEX and VCOMP types, COMPS length
    # and SLASH size
    head_ext: int
    case_ext: int
    vform_ext: int
    lex_ext: int
    vcomp_ext: int
    comps_ext: int
    slash_ext: int
    # the same of the last element of a closed COMPS list, LEX aside
    comps_last_head_ext: int
    comps_last_case_ext: int
    comps_last_vform_ext: int
    comps_last_vcomp_ext: int
    comps_last_comps_ext: int
    comps_last_slash_ext: int
    # a selected VCOMP's VFORM, LEX and VCOMP types, and MOD's HEAD type
    vcomp_vform_ext: int
    vcomp_lex_ext: int
    vcomp_vcomp_ext: int
    mod_head_ext: int


@dataclass(frozen=True, eq=False)
class Sign:
    """A word or phrase: feature structure and order domain.

    In the chart, and at each step of a rebuild, ``fs`` is the sign's
    synsem; only the root of a rebuilt derivation holds the whole sign,
    ``lexical-sign`` or ``phrasal-sign`` with its ``DTRS``.
    """

    hierarchy: TypeHierarchy
    fs: FeatureStructure
    dom: Domain
    facts: SignFacts


def _facts(hierarchy: TypeHierarchy, fs: FeatureStructure, synsem: int = 0) -> SignFacts:
    """The facts of the synsem at node ``synsem`` of ``fs``; ``open_lists``
    is read off the whole of ``fs``.

    One descent: CAT and HEAD, of the synsem and of its last complement,
    are resolved once, and every other fact is read from the nearest node
    already resolved.  A path that is undefined gives a fact of None (no
    COMPS: kind None and length 0) and a mask of -1."""
    nodes, node_at, type_at = fs.nodes, fs.node_at, fs.type_at
    ext = hierarchy.extensions.get
    cat = node_at(P_CAT, synsem)
    head = node_at(_CAT_HEAD, cat)
    comps_kind = None
    comps_len = 0
    comps_ext = last_head_ext = last_case_ext = last_vform_ext = -1
    last_vcomp_ext = last_comps_ext = last_slash_ext = -1
    comps = node_at(_CAT_COMPS, cat)
    if comps is not None:
        comps_kind, _, _, elems = nodes[comps]
        comps_len = len(elems)
        if comps_kind == CLOSED:
            comps_ext = 1 << comps_len
            if elems:
                last = elems[-1]
                last_cat = node_at(P_CAT, last)
                last_head = node_at(_CAT_HEAD, last_cat)
                last_head_ext = ext(type_at((), last_head), -1)
                last_case_ext = ext(type_at(_HEAD_CASE, last_head), -1)
                last_vform_ext = ext(type_at(_HEAD_VFORM, last_head), -1)
                last_vcomp_ext = ext(type_at(_CAT_VCOMP, last_cat), -1)
                last_comps_ext = _size_mask(nodes, node_at(_CAT_COMPS, last_cat), CLOSED)
                last_slash_ext = _size_mask(nodes, node_at(P_SLASH, last), SET)
    vcomp_node = node_at(_CAT_VCOMP, cat)
    vcomp_ext = ext(type_at((), vcomp_node), -1)
    vcomp = ("none" if _subsumed(hierarchy, vcomp_ext, "none")
             else "sel" if _subsumed(hierarchy, vcomp_ext, "synsem") else "open")
    vcomp_vform_ext = vcomp_lex_ext = vcomp_vcomp_ext = -1
    if vcomp == "sel":
        vcomp_cat = node_at(P_CAT, vcomp_node)
        vcomp_vform_ext = ext(type_at(_CAT_VFORM, vcomp_cat), -1)
        vcomp_lex_ext = ext(type_at(P_LEX, vcomp_node), -1)
        vcomp_vcomp_ext = ext(type_at(_CAT_VCOMP, vcomp_cat), -1)
    slash_node = node_at(P_SLASH, synsem)
    slash = None if slash_node is None else len(nodes[slash_node].elems)
    head_ext = ext(type_at((), head), -1)
    vform_ext = ext(type_at(_HEAD_VFORM, head), -1)
    lex = type_at(P_LEX, synsem)
    mod = node_at(_HEAD_MOD, head)
    has_mod = mod is not None
    # the word order class, the one reading of the head types word order needs
    order = ((od.FINITE if _subsumed(hierarchy, vform_ext, "fin") else od.VERBAL)
             if _subsumed(hierarchy, head_ext, "verb")
             else od.COMPLEMENTIZER if _subsumed(hierarchy, head_ext, "comp") else None)
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
        order in (od.FINITE, od.VERBAL),  # verb-cluster: a verb
        order in (od.FINITE, od.VERBAL) and slash == 0,  # slash introduction: the licenser
        # filler-head: a saturated finite clause with one SLASH element
        slash == 1 and order == od.FINITE and comps_kind == CLOSED and comps_len == 0)
    return SignFacts(
        order=order,
        lex=lex,
        comps_kind=comps_kind,
        comps_len=comps_len,
        vcomp=vcomp,
        slash=slash,
        has_mod=has_mod,
        open_lists=any(node.kind in (OPEN, APPEND) for node in nodes),
        heads=heads,
        deps=deps,
        head_ext=head_ext,
        case_ext=ext(type_at(_HEAD_CASE, head), -1),
        vform_ext=vform_ext,
        lex_ext=ext(lex, -1),
        vcomp_ext=vcomp_ext,
        comps_ext=comps_ext,
        slash_ext=_size_mask(nodes, slash_node, SET),
        comps_last_head_ext=last_head_ext,
        comps_last_case_ext=last_case_ext,
        comps_last_vform_ext=last_vform_ext,
        comps_last_vcomp_ext=last_vcomp_ext,
        comps_last_comps_ext=last_comps_ext,
        comps_last_slash_ext=last_slash_ext,
        vcomp_vform_ext=vcomp_vform_ext,
        vcomp_lex_ext=vcomp_lex_ext,
        vcomp_vcomp_ext=vcomp_vcomp_ext,
        mod_head_ext=ext(type_at(P_HEAD, mod), -1),
    )


def _size_mask(nodes: Sequence, node: Optional[int], kind: str) -> int:
    """``1 << n`` for a node of ``kind`` with n elements, -1 for none or any
    other node: no unification changes a closed list's length or a set's
    size."""
    if node is None:
        return -1
    node_kind, _, _, elems = nodes[node]
    return 1 << len(elems) if node_kind == kind else -1


def _subsumed(hierarchy: TypeHierarchy, ext: int, name: str) -> bool:
    """Whether the fact of extension mask ``ext`` is type ``name`` or one of
    its subtypes: never for a fact of None, nor for a type the hierarchy
    does not declare (``comp`` is optional)."""
    mask = hierarchy.extensions.get(name)
    return mask is not None and not ext & ~mask


def _roles(*admitted: bool) -> int:
    """The role mask with the bit of each schema, in ``SCHEMATA`` order, admitted."""
    return sum(1 << i for i, holds in enumerate(admitted) if holds)


def fits(first: SignFacts, second: SignFacts) -> int:
    """The role mask of the schemata that may combine daughters with facts
    ``first`` and ``second``, in this order.

    Each schema's conditions on the pair's facts, stated here only: the
    role masks; the quick check, each test an and of two masks
    (:class:`SignFacts`; an unknown fact has every bit, so an
    underspecified selector passes), the most common clash first; and the
    SLASH overflow, two one-element sets, which head-complement,
    head-adjunct and verb-cluster would union.  Every application passes
    this test first (:func:`_step`), and the parser runs it on a pair
    before it tries any schema.

    The quick check compares what each body unifies first: head-complement
    the last element of a closed COMPS with the complement's synsem (HEAD,
    COMPS length, SLASH size, CASE, VCOMP, VFORM), head-adjunct MOD's HEAD
    with the head's, verb-cluster the selected VCOMP with the other's
    synsem (VFORM, VCOMP, LEX), and slash introduction the VCOMP's LOC
    with the licenser's (VFORM, VCOMP: LEX lies outside LOC).  A test that
    fails proves the body fails: a closed list's length and a set's size
    never change under unification, a glb only narrows a type, and each
    body unifies the whole selected synsem, or LOC for slash introduction,
    with the daughter before it does anything else.
    """
    fit = first.heads & second.deps
    if fit & _HC and not (first.comps_last_head_ext & second.head_ext
                          and first.comps_last_comps_ext & second.comps_ext
                          and first.comps_last_slash_ext & second.slash_ext
                          and first.comps_last_case_ext & second.case_ext
                          and first.comps_last_vcomp_ext & second.vcomp_ext
                          and first.comps_last_vform_ext & second.vform_ext):
        fit &= ~_HC
    if fit & _HA and not second.mod_head_ext & first.head_ext:
        fit &= ~_HA
    if fit & _VS and not (first.vcomp_vform_ext & second.vform_ext
                          and first.vcomp_vcomp_ext & second.vcomp_ext):
        fit &= ~_VS
    if fit & _VC and not first.vcomp_lex_ext & second.lex_ext:
        fit &= ~_VC
    if first.slash == 1 and second.slash == 1:
        fit &= ~(_HC | _HA | _VC)
    return fit


def make_sign(hierarchy: TypeHierarchy, synsem: FeatureStructure) -> Sign:
    """The chart sign of ``synsem``, with an empty domain."""
    return Sign(hierarchy, synsem, EMPTY_DOMAIN, _facts(hierarchy, synsem))


def lexical_sign(hierarchy: TypeHierarchy, fs: FeatureStructure,
                 tokens: Sequence[str], start: int) -> Sign:
    """The chart sign of lexical entry ``fs``, covering ``tokens`` at ``start``."""
    sign = make_sign(hierarchy, path_get(fs, P_SYNSEM))
    return Sign(hierarchy, sign.fs, od.lexical_domain(tokens, start, sign.facts.order), sign.facts)


# ---------------------------------------------------------------------------
# schema plumbing


def _union_slash(ws: Workspace, roots: Sequence[int]) -> int:
    """SLASH set of the mother: union of the daughters'.

    Callers rule out two nonempty sets first (:func:`fits`), so the union
    is the one nonempty set, or a new empty one.
    """
    for r in roots:
        node = _try_resolve(ws, r, P_SLASH)
        if node is not None and ws.elems_of(node):
            return node
    return ws.set_value([])


def _try_resolve(ws: Workspace, root: int, path) -> Optional[int]:
    try:
        return ws.resolve(root, path)
    except PathError:
        return None


class SchemaMemo(dict):
    """The schema memo: a memo key's mother sign, with an empty domain, or None.

    A key is ``(schema, first id, second id or None)``, built by
    :func:`_combine` alone, where an id is a daughter synsem's in the
    memo's intern table: :meth:`intern` maps a canonical node tuple to the
    one structure of that shape the memo holds, which carries its id
    (``FeatureStructure.sid``).  So a key hashes three small values, and a
    mother met again under another key shares its structure.
    """

    def __init__(self):
        super().__init__()
        self.structures: list[FeatureStructure] = []  # by id
        self._ids: dict[tuple, int] = {}  # node tuple -> id

    def intern(self, fs: FeatureStructure) -> FeatureStructure:
        """The memo's structure equal to ``fs``, interned on first sight."""
        if 0 <= fs.sid < len(self.structures) and self.structures[fs.sid] is fs:
            return fs
        sid = self._ids.get(fs.nodes)
        if sid is None:
            sid = self._ids[fs.nodes] = len(self.structures)
            self.structures.append(FeatureStructure(fs.nodes, sid))
        return self.structures[sid]


# A schema past :func:`_step`: the second structure its mother depends on
# (None for none), which :func:`_combine` keys the memo by; its body, which
# unifies and returns the mother's LOC, LEX (None for none) and SLASH nodes
# and its DTRS type (None for none) and features, or None; and
# ``place(mother)``, the mother's domain built from the daughters at hand,
# or None.
Step = tuple[Optional[FeatureStructure], Callable[..., Optional[tuple]],
             Callable[[Sign], Optional[Domain]]]


def _step(schema: str, first: Sign, second: Sign) -> Optional[Step]:
    """The step of ``schema`` on daughters ``first`` and ``second``, or None.

    The one gate of every application, in the chart (:func:`_combine`) and
    in a rebuild (:func:`rebuild`): :func:`fits` on the daughters' facts,
    then the schema's own step, whose prechecks read more than the facts.
    """
    if not fits(first.facts, second.facts) & SCHEMA_BIT[schema]:
        return None
    return _APPLY[schema][1](first, second)


def _synsem(ws: Workspace, parts: tuple) -> int:
    """The mother's synsem node, from the LOC, LEX and SLASH a body returns."""
    loc, lex, slash = parts[:3]
    feats = {"LOC": loc, "NONLOC": ws.avm("nonlocal", INHER=ws.avm("inherited", SLASH=slash))}
    if lex is not None:
        feats["LEX"] = lex
    return ws.avm("synsem", **feats)


def _placed(mother: Optional[Sign], place: Callable[[Sign], Optional[Domain]]) -> Optional[Sign]:
    """``mother`` in the domain ``place`` gives it; None without either."""
    dom = None if mother is None else place(mother)
    return None if dom is None else Sign(mother.hierarchy, mother.fs, dom, mother.facts)


_MISS = object()


def _combine(schema: str, first: Sign, second: Sign,
             memo: Optional[SchemaMemo]) -> Optional[Sign]:
    """The chart mother of ``schema`` on chart signs ``first`` and ``second``.

    Past :func:`_step`, it looks up the memo key ``(schema, first id, id
    of the second structure the step names, or None)``, each id from
    ``memo``'s intern table; a caller without a memo gets a fresh one.  On
    a miss it grafts both synsems into a new workspace, runs the body on
    them, each daughter given as its synsem node twice (the chart records
    no ``DTRS``), extracts the mother's synsem and stores its sign, on the
    interned structure, or None.  Only a mother that exists is placed.
    """
    step = _step(schema, first, second)
    if step is None:
        return None
    depends, body, place = step
    if memo is None:
        memo = SchemaMemo()
    key = (schema, memo.intern(first.fs).sid, None if depends is None else memo.intern(depends).sid)
    mother = memo.get(key, _MISS)
    if mother is _MISS:
        ws = Workspace(first.hierarchy)
        a, b = ws.graft(first.fs), ws.graft(second.fs)
        parts = body(ws, a, a, b, b)
        fs = parts and ws.extract(_synsem(ws, parts))
        mother = memo[key] = fs and make_sign(ws.hierarchy, memo.intern(fs))
    return _placed(mother, place)


def _underspecified(schema: str, head: Sign, other: Sign,
                    place: Callable[[Sign], Optional[Domain]]) -> Step:
    """The step of a trace-mode combination on an underspecified head.

    The head imposes no constraint on the other daughter (that is the
    defect being demonstrated), so no unification is needed; the mother is
    built from the daughters' synsems alone.  The other daughter
    contributes nothing beyond a possible SLASH element, so the step names
    the SLASH donor's synsem, or none, and the memo key holds the schema,
    the head's synsem and that donor's, which keeps the exploding chart
    affordable.  The mother records no daughters: rebuilt, it is
    ``phrasal-sign[SYNSEM]``, without ``DTRS``.
    """
    from_other = head.facts.slash != 1 and other.facts.slash == 1

    def body(ws: Workspace, _head: int, h: int, _other: int, other_synsem: int):
        slash = _try_resolve(ws, other_synsem if from_other else h, P_SLASH)
        if slash is None:
            slash = ws.set_value([])
        if schema == SCHEMA_VERB_CLUSTER:
            comps = ws.resolve(h, P_COMPS)
            vcomp = ws.atom("none")
            lex = ws.atom("+")
        else:
            comps = ws.open_list([])
            vcomp = ws.resolve(h, P_VCOMP)
            lex = ws.atom("-")
        cat = ws.avm("cat", HEAD=ws.resolve(h, P_HEAD), COMPS=comps, VCOMP=vcomp)
        return ws.avm("local", CAT=cat), lex, slash, None, {}

    return (other.fs if from_other else None), body, place


# ---------------------------------------------------------------------------
# the schemata: each ``apply_*`` runs its schema's step through the chart's
# one memo path, ``_combine``; the rebuild of a derivation runs the same steps


def apply_head_complement(head: Sign, comp: Sign, memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
    """Saturate the last element of the head's COMPS list with ``comp``.

    The head's verbal complement must already be discharged (VCOMP none):
    clusters form before complements attach.  The complement enters the
    head's domain as a single compacted element, except under a
    complementizer head, whose clausal complement stays domain-transparent
    so the linearization checks can see the verb cluster
    (:func:`vorfeld.orderdomain.insert_complement_domain`).

    A head with an underspecified COMPS list accepts any complement
    whatsoever and keeps its valence underspecified — a trace, or anything
    built on one, qualifies; this is exactly the defect the licensing
    schema exists to avoid.  Licensing mode drops every sign whose valence
    stays open once its VCOMP is none, and in the bundled fragment only
    traces leave VCOMP underspecified, so this surfaces in trace mode alone.
    """
    return _combine(SCHEMA_HEAD_COMPLEMENT, head, comp, memo)


def _head_complement(head: Sign, comp: Sign) -> Optional[Step]:
    place = lambda _mother: od.insert_complement_domain(head, comp)
    if head.facts.comps_kind != CLOSED:
        return _underspecified(SCHEMA_HEAD_COMPLEMENT, head, comp, place)

    def body(ws: Workspace, h: int, h_synsem: int, c: int, c_synsem: int):
        elems = ws.elems_of(ws.resolve(h_synsem, P_COMPS))
        if not ws.unify_nodes(elems[-1], c_synsem):
            return None
        slash = _union_slash(ws, (h_synsem, c_synsem))
        cat = ws.avm("cat", HEAD=ws.resolve(h_synsem, P_HEAD), COMPS=ws.closed_list(elems[:-1]),
                     VCOMP=ws.resolve(h_synsem, P_VCOMP))
        return (ws.avm("local", CAT=cat), ws.atom("-"), slash, "head-complement-structure",
                {"HEAD-DTR": h, "COMP-DTRS": ws.closed_list([c])})

    return comp.fs, body, place


def apply_head_adjunct(head: Sign, adjunct: Sign, memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
    """Attach a modifier; its MOD value unifies with the head's synsem.

    The mother shares the head's whole CAT (category, valence) and LEX
    value; the adjunct joins the domain as its own element and may end up
    separated from the head.
    """
    return _combine(SCHEMA_HEAD_ADJUNCT, head, adjunct, memo)


def _head_adjunct(head: Sign, adjunct: Sign) -> Optional[Step]:
    def body(ws: Workspace, h: int, h_synsem: int, a: int, a_synsem: int):
        if not ws.unify_nodes(ws.resolve(a_synsem, P_MOD), h_synsem):
            return None
        return (ws.resolve(h_synsem, P_LOC), _try_resolve(ws, h_synsem, P_LEX),
                _union_slash(ws, (h_synsem, a_synsem)), "head-adjunct-structure",
                {"HEAD-DTR": h, "ADJUNCT-DTR": a})

    return adjunct.fs, body, lambda _mother: od.domain_union(head.dom, adjunct.dom)


def apply_verb_cluster(head: Sign, cluster: Sign, memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
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
    return _combine(SCHEMA_VERB_CLUSTER, head, cluster, memo)


def _verb_cluster(head: Sign, cluster: Sign) -> Optional[Step]:
    place = lambda _mother: od.domain_union(head.dom, cluster.dom)
    if head.facts.vcomp == "open":
        # an underspecified selector accepts any verbal sign and learns
        # nothing from it (its VCOMP value carries no reentrancies)
        return _underspecified(SCHEMA_VERB_CLUSTER, head, cluster, place)

    def body(ws: Workspace, h: int, h_synsem: int, c: int, c_synsem: int):
        if not ws.unify_nodes(ws.resolve(h_synsem, P_VCOMP), c_synsem):
            return None
        slash = _union_slash(ws, (h_synsem, c_synsem))
        cat = ws.avm("cat", HEAD=ws.resolve(h_synsem, P_HEAD),
                     COMPS=ws.resolve(h_synsem, P_COMPS), VCOMP=ws.atom("none"))
        return (ws.avm("local", CAT=cat), ws.atom("+"), slash, "head-cluster-structure",
                {"HEAD-DTR": h, "CLUSTER-DTR": c, "COMP-DTRS": ws.closed_list([])})

    return cluster.fs, body, place


def apply_pvp_slash_introduction(head: Sign, licenser: Sign,
                                 memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
    """Discharge the head's VCOMP into SLASH, licensed by a real projection.

    Only the licenser's LOC unifies with the VCOMP restriction — LEX lives
    outside LOC, so a phrasal (LEX −) projection licenses the dependency
    that clustering would reject.  The licenser's arguments are attracted
    through the same entry reentrancies as in clustering, so the mother's
    COMPS comes out fully instantiated; an underspecified result is
    rejected.  The licenser contributes nothing to the mother's domain,
    so it stays out of the mother's coverage until the filler binds it.
    """
    return _combine(SCHEMA_SLASH_INTRO, head, licenser, memo)


def _slash_introduction(head: Sign, licenser: Sign) -> Optional[Step]:
    if head.dom.coverage & licenser.dom.coverage:
        return None

    def body(ws: Workspace, h: int, h_synsem: int, li: int, li_synsem: int):
        vcomp_loc = _try_resolve(ws, h_synsem, P_VCOMP + P_LOC)
        if vcomp_loc is None or not ws.unify_nodes(vcomp_loc, ws.resolve(li_synsem, P_LOC)):
            return None
        cat = ws.avm("cat", HEAD=ws.resolve(h_synsem, P_HEAD),
                     COMPS=ws.resolve(h_synsem, P_COMPS), VCOMP=ws.atom("none"))
        return (ws.avm("local", CAT=cat), ws.atom("+"), ws.set_value([ws.find(vcomp_loc)]),
                "complement-slash-licencing-structure", {"HEAD-DTR": h, "VCOMP-DTR": li})

    return licenser.fs, body, lambda mother: head.dom if check_comps_closed(mother) else None


def apply_filler_head(filler: Sign, head: Sign, memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
    """Bind the clause's SLASH element against the fronted filler.

    The head must be a saturated finite clause carrying exactly one SLASH
    element; the filler's LOC unifies with it and the filler's domain
    material is inserted (pre-verbal block compacted into the Vorfeld).
    The parser additionally requires the filler to be the very edge that
    licensed the dependency.
    """
    return _combine(SCHEMA_FILLER_HEAD, filler, head, memo)


def _filler_head(filler: Sign, head: Sign) -> Optional[Step]:
    verb_pos = od.finite_verb_position(head.dom)
    if verb_pos is None:
        return None

    def body(ws: Workspace, f: int, f_synsem: int, h: int, h_synsem: int):
        slash_elems = ws.elems_of(ws.resolve(h_synsem, P_SLASH))
        if not ws.unify_nodes(slash_elems[0], ws.resolve(f_synsem, P_LOC)):
            return None
        return (ws.resolve(h_synsem, P_LOC), _try_resolve(ws, h_synsem, P_LEX), ws.set_value([]),
                "filler-head-structure", {"HEAD-DTR": h, "FILLER-DTR": f})

    return head.fs, body, lambda _mother: od.insert_filler_domain(head.dom, filler, verb_pos)


# schema label -> the name of the function applying it, looked up in this
# module's namespace at every call rather than bound here, so that a wrapper
# installed on the module attribute (perfbench/tracer.py) sees every call;
# and the schema's step, which the rebuild runs in its own workspace
_APPLY = {
    SCHEMA_HEAD_COMPLEMENT: ("apply_head_complement", _head_complement),
    SCHEMA_HEAD_ADJUNCT: ("apply_head_adjunct", _head_adjunct),
    SCHEMA_VERB_CLUSTER: ("apply_verb_cluster", _verb_cluster),
    SCHEMA_SLASH_INTRO: ("apply_pvp_slash_introduction", _slash_introduction),
    SCHEMA_FILLER_HEAD: ("apply_filler_head", _filler_head),
}


def apply_schema(schema: str, first: Sign, second: Sign,
                 memo: Optional[SchemaMemo] = None) -> Optional[Sign]:
    """Apply the schema labelled ``schema`` to chart signs in derivation order.

    The chart's one dispatch.  It gets a mother of SYNSEM and domain only,
    through ``memo``, or a fresh memo if none is given (:func:`_combine`),
    behind the gate :func:`_step`, which the rebuild of a derivation
    passes too (:func:`rebuild`).
    """
    return globals()[_APPLY[schema][0]](first, second, memo=memo)


# ---------------------------------------------------------------------------
# the rebuild of a derivation, in one workspace


def rebuild(root) -> Optional[Sign]:
    """The whole sign of derivation tree ``root``; None on divergence.

    A node of the tree has its chart ``sign``, and an internal one its
    ``schema`` and two ``daughters`` (:class:`vorfeld.parser.Edge`).  In
    one workspace, bottom-up, each leaf occurrence is grafted once as
    ``lexical-sign[SYNSEM]`` and each internal one runs its schema's step:
    the prechecks and ``place()`` read the daughters' chart signs, the body
    unifies their nodes, and extracting the mother's synsem seals its
    append lists, runs the occurs check and gives the chart sign the next
    step reads.  Only the root is extracted whole; its ``open_lists``
    covers ``DTRS`` too.
    """
    ws = Workspace(root.sign.hierarchy)
    done = []  # finished subtrees: chart sign, whole sign node, synsem node
    stack = [(root, False)]
    while stack:
        edge, expanded = stack.pop()
        if not edge.daughters:
            synsem = ws.graft(edge.sign.fs)
            done.append((edge.sign, ws.avm(TYPE_LEXICAL, SYNSEM=synsem), synsem))
        elif not expanded:
            stack.append((edge, True))
            stack.extend((d, False) for d in reversed(edge.daughters))
        else:
            (a, a_node, a_synsem), (b, b_node, b_synsem) = done[-2:]
            del done[-2:]
            step = _step(edge.schema, a, b)
            if step is None:
                return None
            _depends, body, place = step
            parts = body(ws, a_node, a_synsem, b_node, b_synsem)
            if parts is None:
                return None
            synsem = _synsem(ws, parts)
            fs = ws.extract(synsem)
            mother = _placed(fs and make_sign(ws.hierarchy, fs), place)
            if mother is None:
                return None
            feats = {"SYNSEM": synsem}
            if parts[3] is not None:
                feats["DTRS"] = ws.avm(parts[3], **parts[4])
            done.append((mother, ws.avm(TYPE_PHRASAL, **feats), synsem))
    sign, node, _ = done[0]
    fs = ws.extract(node)
    return fs and Sign(ws.hierarchy, fs, sign.dom, _facts(ws.hierarchy, fs, fs.resolve(P_SYNSEM)))


# ---------------------------------------------------------------------------
# well-formedness and clause conditions


def check_comps_closed(sign: Sign) -> bool:
    """No underspecified valence list survives in a discharged sign.

    A sign whose VCOMP is not ``none``, one still selecting its verbal
    complement or leaving it underspecified, defers the check: its valence
    is tagged to the embedded verb's lists and becomes instantiated the
    moment the complement (or its licenser) is found.  Once VCOMP is
    discharged, every list in the sign's structure must have determinate
    length; a trace in the verbal-complement slot leaves the attracted
    COMPS list open, which is precisely the defect this predicate detects.
    A chart sign is its synsem, so only the synsem is checked there, as
    at each step of a rebuild; on the root a rebuild returns the ``DTRS``
    are checked too.  The lists were read once, when the sign's facts were
    (``SignFacts.open_lists``).
    """
    return sign.facts.vcomp != "none" or not sign.facts.open_lists


def is_complete_clause(sign: Sign, clause_type: str) -> bool:
    """Root condition: saturated, SLASH bound, category per clause type."""
    f = sign.facts
    if f.slash != 0 or f.comps_kind != CLOSED or f.comps_len != 0:
        return False
    if clause_type == od.V2:
        return f.order == od.FINITE and f.vcomp == "none"
    return f.order == od.COMPLEMENTIZER


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
    fs = ws.extract(ws.avm(
        "synsem",
        LOC=loc,
        NONLOC=ws.avm("nonlocal", INHER=ws.avm("inherited", SLASH=ws.set_value([loc]))),
    ))
    assert fs is not None
    return make_sign(hierarchy, fs)
