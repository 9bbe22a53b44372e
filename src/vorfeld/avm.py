"""Textual AVM syntax: read and print feature structures as s-expressions.

Syntax (documented in the README):

* AVM node:       ``(type (FEAT value) ...)`` — a featureless node may be
  written as the bare type symbol, e.g. ``fin`` or ``none``.
* closed list:    ``(list v1 v2 ...)``
* open list:      ``(openlist v1 v2 ...)`` — known prefix, unconstrained tail
* append:         ``(append l1 l2 ...)`` — list concatenation
* set:            ``(set)`` or ``(set v)``
* reentrancy:     ``#1=value`` tags a node at its first occurrence,
  ``#1#`` refers back to it.

Printing produces canonical text: features sorted by name, tags numbered
in depth-first discovery order, so ``read(print(x))`` is structure-equal to
``x`` (the round-trip invariant tested in the suite).
"""
from __future__ import annotations

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
    Node,
    TypeHierarchy,
    _canonicalize,
    postorder,
    validate,
)

_TAG_DEF = re.compile(r"^#(\d+)=$")
_TAG_REF = re.compile(r"^#(\d+)#$")

_LIST_HEADS = {"list": CLOSED, "openlist": OPEN, "append": APPEND, "set": SET}
_LIST_NAMES = {kind: name for name, kind in _LIST_HEADS.items()}

#: deepest nesting of parentheses an AVM value may have; the reader recurses
#: once per level, and the bundled fragment nests at most 17 deep
MAX_DEPTH = 100


class AvmSyntaxError(Exception):
    """Ill-formed AVM text; carries the source position in the message."""


def print_fs(fs: FeatureStructure, indent: bool = True) -> str:
    """Render a structure in the canonical textual syntax.

    Nodes are rendered depth-first with an explicit stack, so the depth of
    a structure is bounded by memory, not by the interpreter's recursion
    limit.
    """
    shared = _shared_nodes(fs)
    tags: dict[int, int] = {}
    done: list = []  # the root's form, once rendered
    # open nodes, innermost last: (items so far, tag prefix, (feature, child)
    # pairs still to render, feature under which the node sits in its parent)
    stack: list = []

    def attach(feat: Optional[str], form) -> None:
        if feat is not None:
            form = sexpr.SList((sexpr.Symbol(feat), form))
        (stack[-1][0] if stack else done).append(form)

    def start(i: int, feat: Optional[str]) -> None:
        if i in tags:
            attach(feat, sexpr.Symbol(f"#{tags[i]}#"))
            return
        prefix = ""
        if i in shared:
            tags[i] = len(tags) + 1
            prefix = f"#{tags[i]}="
        node = fs.nodes[i]
        if node.kind == AVM and not node.feats:
            attach(feat, _tagged(prefix, sexpr.Symbol(node.type)))
        elif node.kind == AVM:
            stack.append(([sexpr.Symbol(node.type)], prefix, iter(node.feats), feat))
        else:
            stack.append(([sexpr.Symbol(_LIST_NAMES[node.kind])], prefix,
                          ((None, c) for c in node.elems), feat))

    start(fs.root, None)
    while stack:
        items, prefix, pending, feat = stack[-1]
        child = next(pending, None)
        if child is not None:
            start(child[1], child[0])
        else:
            stack.pop()
            attach(feat, _tagged(prefix, sexpr.SList(tuple(items))))
    return sexpr.write(done[0]) if indent else sexpr.write_flat(done[0])


def _tagged(prefix: str, body):
    if not prefix:
        return body
    if isinstance(body, sexpr.Symbol):
        return sexpr.Symbol(prefix + body.name)
    return sexpr.SList((sexpr.Symbol(prefix), body))


def _shared_nodes(fs: FeatureStructure) -> set[int]:
    indeg: dict[int, int] = {}
    for node in fs.nodes:
        children = [c for _, c in node.feats] if node.kind == AVM else node.elems
        for c in children:
            indeg[c] = indeg.get(c, 0) + 1
    return {i for i, d in indeg.items() if d > 1}


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
    templates = templates or {}
    store: dict[int, Node] = {}
    counter = [0]
    tags: dict[str, int] = {}

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def graft_template(fs: FeatureStructure) -> int:
        offset = counter[0]
        for j, node in enumerate(fs.nodes):
            nid = fresh()
            if node.kind == AVM:
                store[nid] = Node(AVM, node.type, tuple((f, c + offset) for f, c in node.feats))
            else:
                store[nid] = Node(node.kind, "", (), tuple(c + offset for c in node.elems))
        return offset

    def build(expr, depth: int) -> int:
        if isinstance(expr, sexpr.Symbol):
            name = expr.name
            ref = _TAG_REF.match(name)
            if ref:
                if ref.group(1) not in tags:
                    raise AvmSyntaxError(
                        f"line {expr.line}: reference #{ref.group(1)}# precedes its definition")
                return tags[ref.group(1)]
            m = re.match(r"^#(\d+)=(.+)$", name)
            if m:
                nid = build(sexpr.Symbol(m.group(2), expr.line, expr.col), depth)
                tags[m.group(1)] = nid
                return nid
            if name in templates:
                return graft_template(templates[name])
            if name not in hierarchy:
                raise AvmSyntaxError(f"line {expr.line}: unknown type or template {name!r}")
            nid = fresh()
            store[nid] = Node(AVM, name)
            return nid
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
                inner = build(expr.items[1], depth + 1)
                tags[tag] = inner
                return inner
        if not isinstance(head, sexpr.Symbol):
            raise AvmSyntaxError(f"line {expr.line}: value must start with a symbol")
        items = [head] + _fuse_tags(expr.items[1:])
        if head.name in _LIST_HEADS:
            kind = _LIST_HEADS[head.name]
            elems = tuple(build(x, depth + 1) for x in items[1:])
            if kind == SET and len(elems) > 1:
                raise AvmSyntaxError(f"line {head.line}: sets hold at most one element")
            if kind == APPEND and len(elems) < 2:
                raise AvmSyntaxError(f"line {head.line}: append needs at least two parts")
            nid = fresh()
            store[nid] = Node(kind, "", (), elems)
            return nid
        if head.name in templates:
            if len(items) > 1:
                raise AvmSyntaxError(f"line {head.line}: template {head.name!r} takes no features")
            return graft_template(templates[head.name])
        if head.name not in hierarchy:
            raise AvmSyntaxError(f"line {head.line}: unknown type or template {head.name!r}")
        nid = fresh()
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
        built = tuple(sorted((f, build(v, depth + 2)) for f, v in feats))
        store[nid] = Node(AVM, head.name, built)
        return nid

    def children(nid: int):
        node = store[nid]
        return [c for _, c in node.feats] if node.kind == AVM else node.elems

    root = build(form, 1)
    if postorder(root, children) is None:
        raise AvmSyntaxError("cyclic structure in AVM text")
    fs = _canonicalize(root, *zip(*(store[nid] for nid in range(len(store)))))
    if check:
        try:
            validate(fs, hierarchy)
        except ConfigurationError as exc:
            raise AvmSyntaxError(str(exc)) from exc
    return fs

