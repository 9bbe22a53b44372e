"""Textual AVM syntax: read and print feature structures as s-expressions.

Syntax (documented in the README):

* AVM node:       ``(type (FEAT value) ...)`` — a featureless node may be
  written as the bare type symbol, e.g. ``fin`` or ``none``.
* closed list:    ``(list v1 v2 ...)``
* open list:      ``(openlist v1 v2 ...)`` — known prefix, unconstrained tail
* append:         ``(append l1 l2 ...)`` — list concatenation; one whose
  parts are all closed lists reads as the closed list it stands for
* set:            ``(set)`` or ``(set v)``
* reentrancy:     ``#1=value`` tags a node at its first occurrence,
  ``#1#`` refers back to it.

Printing produces canonical text: features sorted by name, tags numbered
in depth-first discovery order, so ``read(print(x))`` is structure-equal to
``x`` (the round-trip invariant tested in the suite).  Reading goes through
the s-expression reader (:mod:`vorfeld.sexpr`) and builds in a
:class:`~vorfeld.tfs.Workspace`, as every structure is built; printing
writes the text straight from the structure's nodes.
"""
from __future__ import annotations

import math
import re
from typing import Optional

from . import sexpr
from .tfs import (
    APPEND,
    AVM,
    CLOSED,
    OPEN,
    SET,
    ConfigurationError,
    FeatureStructure,
    TypeHierarchy,
    Workspace,
    validate,
)

_TAG_DEF = re.compile(r"^#(\d+)=$")
_TAG_REF = re.compile(r"^#(\d+)#$")
_TAG_ATOM = re.compile(r"^#(\d+)=(.+)$")

_LIST_BUILDERS = {"list": Workspace.closed_list, "openlist": Workspace.open_list,
                  "append": Workspace.append_list, "set": Workspace.set_value}
_LIST_NAMES = {CLOSED: "list", OPEN: "openlist", APPEND: "append", SET: "set"}

#: the columns an indented AVM may fill; :func:`print_fs` reads it at every call
WIDTH = 78

#: deepest nesting of parentheses an AVM value may have; the reader recurses
#: once per level, and the bundled fragment nests at most 17 deep
MAX_DEPTH = 100


class AvmSyntaxError(Exception):
    """Ill-formed AVM text; carries the source position in the message."""


def print_fs(fs: FeatureStructure, indent: bool = True) -> str:
    """Render a structure in the canonical textual syntax.

    With ``indent``, a list that fits in ``WIDTH`` columns at its
    indentation is written on one line; otherwise its head stays on the
    opening line and every further item goes on a line of its own, two
    columns deeper.  Without ``indent`` everything is on one line.

    A structure numbers its nodes in the order the depth-first walk first
    reaches them, so no walk is needed to place the tags: a shared node is
    written whole, tagged ``#k=``, under the last parent numbered before
    it, at that parent's first slot that holds it, and everywhere else as
    ``#k#``; ``k`` counts the shared nodes in node order.

    Two passes, neither recursive: bottom-up (in reverse node order) the
    length of each node's text on one line, then top-down with an explicit
    stack the text itself.  So the work is linear in the output, and no
    depth of structure reaches the recursion limit.
    """
    nodes = fs.nodes
    # every node's (feature or None, child) slots
    slots = [node.feats if node.kind == AVM else tuple((None, c) for c in node.elems)
             for node in nodes]
    indegree = [0] * len(nodes)
    for pairs in slots:
        for _, c in pairs:
            indegree[c] += 1
    tags: dict[int, str] = {}
    for i, d in enumerate(indegree):
        if d > 1:
            tags[i] = str(len(tags) + 1)

    # the length of node i's text where it is written whole, its tag included
    flat = [0] * len(nodes)
    placed = bytearray(len(nodes))  # a slot that writes the node whole was met
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if node.kind == AVM and not node.feats:
            length = len(node.type)
        else:
            length = len(node.type if node.kind == AVM else _LIST_NAMES[node.kind]) + 2
            for feat, c in slots[i]:
                if c > i and not placed[c]:
                    placed[c] = 1
                    length += flat[c] + 1
                else:
                    length += len(tags[c]) + 3
                if feat is not None:
                    length += len(feat) + 3
            if i in tags:
                length += 3  # the parentheses and space around a tagged list
        flat[i] = length + (len(tags[i]) + 2 if i in tags else 0)

    width = WIDTH if indent else math.inf

    def sep(length: int, at: int) -> str:
        """What goes before each item of a list at ``at`` whose text is ``length`` long."""
        return " " if length + at <= width else "\n" + " " * (at + 2)

    out: list[str] = []
    # shared nodes already written whole; the walk reaches each first at the
    # slot where the first pass placed it
    written = bytearray(len(nodes))
    stack: list = [(0, 0, None)]  # text to emit, or (node, indentation, feature)
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        i, at, feat = item
        tag = tags.get(i)
        ref = tag is not None and written[i]
        if feat is not None:  # (FEAT value)
            length = len(feat) + 3 + (len(tag) + 2 if ref else flat[i])
            out.append("(" + feat + sep(length, at))
            stack.append(")")
            at += 2
        if ref:
            out.append("#" + tag + "#")
            continue
        node = nodes[i]
        atom = node.kind == AVM and not node.feats
        length = flat[i]
        if tag is not None:
            written[i] = 1
            if atom:
                out.append("#" + tag + "=" + node.type)
                continue
            out.append("(#" + tag + "=" + sep(length, at))
            stack.append(")")
            at += 2
            length -= len(tag) + 5
        if atom:
            out.append(node.type)
            continue
        out.append("(" + (node.type if node.kind == AVM else _LIST_NAMES[node.kind]))
        stack.append(")")
        before = sep(length, at)
        for feat, c in reversed(slots[i]):
            stack.append((c, at + 2, feat))
            stack.append(before)
    return "".join(out)


def read_fs(text: str, hierarchy: TypeHierarchy,
            templates: Optional[dict[str, FeatureStructure]] = None,
            check: bool = True) -> FeatureStructure:
    """Parse the canonical textual syntax back into a structure.

    ``templates`` maps names to reusable structures; a bare symbol naming a
    template expands to a fresh copy.  With ``check`` the result is
    validated against the hierarchy's appropriateness table.
    """
    try:
        forms = _fuse_tags(sexpr.parse_all(text))
    except sexpr.SexprError as exc:
        raise AvmSyntaxError(str(exc)) from exc
    if len(forms) != 1:
        raise AvmSyntaxError(f"expected exactly one AVM, got {len(forms)} forms")
    return build_fs(forms[0], hierarchy, templates, check=check)


def _fuse_tags(items) -> list:
    """Merge a bare ``#N=`` symbol with the following value into one form."""
    out = []
    i = 0
    items = list(items)
    while i < len(items):
        item = items[i]
        if isinstance(item, sexpr.Symbol) and _TAG_DEF.match(item.name):
            if i + 1 >= len(items):
                raise AvmSyntaxError(f"line {item.line}: dangling tag {item.name}")
            out.append(sexpr.SList((item, items[i + 1]), item.line, item.col))
            i += 2
        else:
            out.append(item)
            i += 1
    return out


def build_fs(form, hierarchy: TypeHierarchy,
             templates: Optional[dict[str, FeatureStructure]] = None,
             check: bool = True) -> FeatureStructure:
    """Like :func:`read_fs` but starting from an already-parsed form."""
    ws = Workspace(hierarchy)
    fs = ws.extract(_build(ws, form, templates or {}, {}, 1))
    if fs is None:
        raise AvmSyntaxError("cyclic structure in AVM text")
    if check:
        try:
            validate(fs, hierarchy)
        except ConfigurationError as exc:
            raise AvmSyntaxError(str(exc)) from exc
    return fs


def _build(ws: Workspace, expr, templates: dict[str, FeatureStructure],
           tags: dict[str, int], depth: int) -> int:
    """Build ``expr`` in ``ws`` and return its node.

    ``tags`` maps each tag defined so far to its node.  Values are built in
    text order, so a tag is defined where it first appears in the text.
    """
    if isinstance(expr, sexpr.Symbol):
        name = expr.name
        ref = _TAG_REF.match(name)
        if ref:
            if ref.group(1) not in tags:
                raise AvmSyntaxError(
                    f"line {expr.line}: reference #{ref.group(1)}# precedes its definition")
            return tags[ref.group(1)]
        m = _TAG_ATOM.match(name)
        if m:
            nid = tags[m.group(1)] = _build(
                ws, sexpr.Symbol(m.group(2), expr.line, expr.col), templates, tags, depth)
            return nid
        if name in templates:
            return ws.graft(templates[name])
        if name not in ws.hierarchy:
            raise AvmSyntaxError(f"line {expr.line}: unknown type or template {name!r}")
        return ws.avm(name)
    if isinstance(expr, str):
        raise AvmSyntaxError("string literal where a value was expected")
    if not isinstance(expr, sexpr.SList) or len(expr) == 0:
        raise AvmSyntaxError(f"line {getattr(expr, 'line', '?')}: empty value")
    if depth > MAX_DEPTH:
        raise AvmSyntaxError(
            f"line {expr.line}, column {expr.col}: value nested deeper than {MAX_DEPTH} levels")
    head = expr.items[0]
    if isinstance(head, sexpr.Symbol):
        m = _TAG_DEF.match(head.name)
        if m:
            tag = m.group(1)
            if len(expr.items) != 2:
                raise AvmSyntaxError(f"line {head.line}: #{tag}= must tag exactly one value")
            # references only resolve after the tagged value is built, so
            # cyclic text cannot be expressed (self-references error out)
            nid = tags[tag] = _build(ws, expr.items[1], templates, tags, depth + 1)
            return nid
    if not isinstance(head, sexpr.Symbol):
        raise AvmSyntaxError(f"line {expr.line}: value must start with a symbol")
    items = [head] + _fuse_tags(expr.items[1:])
    if head.name in _LIST_BUILDERS:
        elems = [_build(ws, x, templates, tags, depth + 1) for x in items[1:]]
        if head.name == "set" and len(elems) > 1:
            raise AvmSyntaxError(f"line {head.line}: sets hold at most one element")
        if head.name == "append" and len(elems) < 2:
            raise AvmSyntaxError(f"line {head.line}: append needs at least two parts")
        return _LIST_BUILDERS[head.name](ws, elems)
    if head.name in templates:
        if len(items) > 1:
            raise AvmSyntaxError(f"line {head.line}: template {head.name!r} takes no features")
        return ws.graft(templates[head.name])
    if head.name not in ws.hierarchy:
        raise AvmSyntaxError(f"line {head.line}: unknown type or template {head.name!r}")
    feats = []
    for item in items[1:]:
        pair = _fuse_tags(item.items) if isinstance(item, sexpr.SList) else None
        if pair is None or len(pair) != 2 or not isinstance(pair[0], sexpr.Symbol):
            raise AvmSyntaxError(f"line {head.line}: features of {head.name!r} must be (NAME value) pairs")
        feats.append((pair[0].name, pair[1]))
    names = set()
    for f, _ in feats:
        if f in names:
            raise AvmSyntaxError(f"line {head.line}: duplicate feature {f!r}")
        names.add(f)
    return ws.avm(head.name, **{f: _build(ws, v, templates, tags, depth + 2) for f, v in feats})
