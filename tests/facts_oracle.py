"""``grammar._facts`` as it was before it read a synsem in one descent: the
reference for the one-descent reading.

It looks every fact up by its whole path from the synsem, or from the
synsem of its last complement, through ``FeatureStructure.resolve`` and
``type_at``, and takes a path that does not resolve, a ``PathError``, as a
fact of None.  ``open_lists`` tests every node of the structure.  The
differential tests hold ``grammar._facts`` to exactly these results.
"""
from __future__ import annotations

from typing import Optional

from vorfeld import orderdomain as od
from vorfeld.grammar import (
    P_CASE,
    P_COMPS,
    P_HEAD,
    P_LEX,
    P_MOD,
    P_SLASH,
    P_VCOMP,
    P_VFORM,
    SignFacts,
)
from vorfeld.tfs import APPEND, CLOSED, OPEN, SET, FeatureStructure, PathError, TypeHierarchy


def facts(hierarchy: TypeHierarchy, fs: FeatureStructure, synsem: int = 0) -> SignFacts:
    comps_kind = last = None
    comps_len = 0
    try:
        comps = fs.nodes[fs.resolve(P_COMPS, synsem)]
        comps_kind = comps.kind
        comps_len = len(comps.elems)
        if comps.kind == CLOSED and comps.elems:
            last = comps.elems[-1]
    except PathError:
        pass
    vcomp_ext = _extension(hierarchy, fs.type_at(P_VCOMP, synsem))
    vcomp = ("none" if _subsumed(hierarchy, vcomp_ext, "none")
             else "sel" if _subsumed(hierarchy, vcomp_ext, "synsem") else "open")
    selected = synsem if vcomp == "sel" else None
    slash: Optional[int] = None
    try:
        slash = len(fs.nodes[fs.resolve(P_SLASH, synsem)].elems)
    except PathError:
        pass
    head_ext = _extension(hierarchy, fs.type_at(P_HEAD, synsem))
    vform_ext = _extension(hierarchy, fs.type_at(P_VFORM, synsem))
    case, mod_head = fs.type_at(P_CASE, synsem), fs.type_at(P_MOD + P_HEAD, synsem)
    has_mod = fs.type_at(P_MOD, synsem) is not None
    order = ((od.FINITE if _subsumed(hierarchy, vform_ext, "fin") else od.VERBAL)
             if _subsumed(hierarchy, head_ext, "verb")
             else od.COMPLEMENTIZER if _subsumed(hierarchy, head_ext, "comp") else None)
    heads = _roles(
        (vcomp == "none" and comps_kind == CLOSED and comps_len > 0)
        or (comps_kind in (OPEN, APPEND) and vcomp in ("none", "open")),
        True,
        vcomp in ("sel", "open"),
        vcomp == "sel" and slash == 0,
        slash == 0)
    deps = _roles(
        True,
        has_mod,
        order in (od.FINITE, od.VERBAL),
        order in (od.FINITE, od.VERBAL) and slash == 0,
        slash == 1 and order == od.FINITE and comps_kind == CLOSED and comps_len == 0)
    return SignFacts(
        order=order,
        lex=fs.type_at(P_LEX, synsem),
        comps_kind=comps_kind,
        comps_len=comps_len,
        vcomp=vcomp,
        slash=slash,
        has_mod=has_mod,
        open_lists=any(node.kind in (OPEN, APPEND) for node in fs.nodes),
        heads=heads,
        deps=deps,
        head_ext=head_ext,
        case_ext=_extension(hierarchy, case),
        vform_ext=vform_ext,
        lex_ext=_extension(hierarchy, fs.type_at(P_LEX, synsem)),
        vcomp_ext=vcomp_ext,
        comps_ext=_size_mask(fs, P_COMPS, synsem, CLOSED),
        slash_ext=_size_mask(fs, P_SLASH, synsem, SET),
        comps_last_head_ext=_type_mask(hierarchy, fs, P_HEAD, last),
        comps_last_case_ext=_type_mask(hierarchy, fs, P_CASE, last),
        comps_last_vform_ext=_type_mask(hierarchy, fs, P_VFORM, last),
        comps_last_vcomp_ext=_type_mask(hierarchy, fs, P_VCOMP, last),
        comps_last_comps_ext=_size_mask(fs, P_COMPS, last, CLOSED),
        comps_last_slash_ext=_size_mask(fs, P_SLASH, last, SET),
        vcomp_vform_ext=_type_mask(hierarchy, fs, P_VCOMP + P_VFORM, selected),
        vcomp_lex_ext=_type_mask(hierarchy, fs, P_VCOMP + P_LEX, selected),
        vcomp_vcomp_ext=_type_mask(hierarchy, fs, P_VCOMP + P_VCOMP, selected),
        mod_head_ext=_extension(hierarchy, mod_head),
    )


def _type_mask(hierarchy: TypeHierarchy, fs: FeatureStructure, path, start: Optional[int]) -> int:
    """The extension mask of the type at ``path`` from node ``start``; -1
    for no start node."""
    return -1 if start is None else _extension(hierarchy, fs.type_at(path, start))


def _size_mask(fs: FeatureStructure, path, start: Optional[int], kind: str) -> int:
    """``1 << n`` for a node of ``kind`` with n elements at ``path`` from
    node ``start``; -1 for no start node, an undefined path or another kind."""
    if start is None:
        return -1
    try:
        node = fs.nodes[fs.resolve(path, start)]
    except PathError:
        return -1
    return 1 << len(node.elems) if node.kind == kind else -1


def _extension(hierarchy: TypeHierarchy, fact: Optional[str]) -> int:
    return hierarchy.extension(fact) if fact in hierarchy else -1


def _subsumed(hierarchy: TypeHierarchy, ext: int, name: str) -> bool:
    return name in hierarchy and not ext & ~hierarchy.extension(name)


def _roles(*admitted: bool) -> int:
    return sum(1 << i for i, holds in enumerate(admitted) if holds)
