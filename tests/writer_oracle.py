"""The AVM printer as it was before it wrote straight from the nodes: the
reference for ``avm.print_fs``.

:func:`print_fs` first builds an s-expression tree (``SList``/``Symbol``)
of the structure, tagging shared nodes in the order it reaches them, and
then writes that tree with :func:`write`, which renders each subform flat
at every level of nesting to decide whether it fits, so it is quadratic in
depth and recursive.  Both halves are kept verbatim so that the property
tests can hold the direct printer to exactly their output.
"""
from __future__ import annotations

from typing import Optional

from vorfeld import sexpr
from vorfeld.avm import _LIST_NAMES
from vorfeld.sexpr import SList, Symbol
from vorfeld.tfs import AVM, FeatureStructure


def print_fs(fs: FeatureStructure, indent: bool = True, width: int = 78) -> str:
    """Render a structure in the canonical textual syntax."""
    form = to_form(fs)
    return write(form, 0, width) if indent else _write_flat(form)


def to_form(fs: FeatureStructure):
    """The s-expression tree of ``fs``.

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
    return done[0]


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


def write(form, indent: int = 0, width: int = 78) -> str:
    """Render a form (Symbol / str / SList) back to text, breaking long lists."""
    flat = _write_flat(form)
    if len(flat) + indent <= width or not isinstance(form, SList):
        return flat
    head = ""
    items = list(form.items)
    parts = []
    if items and isinstance(items[0], Symbol):
        head = str(items[0]) + (" " if len(items) > 1 else "")
        items = items[1:]
    pad = " " * (indent + 2)
    for item in items:
        parts.append(pad + write(item, indent + 2, width))
    inner = "\n".join(parts)
    return "(" + head.rstrip() + ("\n" + inner if parts else "") + ")"


def _write_flat(form) -> str:
    if isinstance(form, Symbol):
        return form.name
    if isinstance(form, str):
        return '"' + form + '"'
    return "(" + " ".join(_write_flat(x) for x in form.items) + ")"
