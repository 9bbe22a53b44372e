"""``Workspace.extract`` as it was before it made one depth-first walk: the
reference for the one-walk extract; and a node-by-node reference for
``Workspace.graft``.

It makes three passes over a workspace's stores.  :func:`postorder` lists
the nodes reachable from the root, each after its children, storing every
node's children back as their union-find representatives and returning
None on a cycle (the occurs check).  A second pass, in that post-order,
sorts each AVM node's features and seals each append node whose parts are
all closed; its parts come earlier, so they are already final.  Last,
:func:`canonicalize` numbers the nodes in preorder, features by name.  The
differential test holds the workspace to exactly these results.

:func:`graft` copies a structure in through the workspace's own
constructors, one node at a time, where ``Workspace.graft`` appends to
its stores directly.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from vorfeld.tfs import APPEND, AVM, CLOSED, OPEN, SET, FeatureStructure, Node, Workspace


def graft(ws: Workspace, fs: FeatureStructure) -> int:
    """Copy ``fs`` into ``ws`` one node at a time; returns the new root id.

    Each constructor gives its node the next id, so node ``n`` of ``fs``
    becomes ``offset + n``, and a child's id is known before it is built.
    """
    offset = len(ws._parent)
    lists = {CLOSED: ws.closed_list, OPEN: ws.open_list, APPEND: ws.append_list, SET: ws.set_value}
    for n, node in enumerate(fs.nodes):
        if node.kind == AVM:
            nid = ws.avm(node.type, **{f: offset + c for f, c in node.feats})
        else:
            nid = lists[node.kind]([offset + c for c in node.elems])
        assert nid == offset + n
    return offset


def extract(ws: Workspace, root: int) -> Optional[FeatureStructure]:
    if ws.failed:
        return None
    root = ws.find(root)
    reached = postorder(root, lambda nid: _children(ws, nid))
    if reached is None:
        return None
    kinds, elems = ws._kind, ws._elems
    feats: dict[int, list[tuple[str, int]]] = {}
    for nid in reached:
        if kinds[nid] == AVM:
            feats[nid] = sorted(ws._feats[nid].items())
        elif kinds[nid] == APPEND and all(kinds[p] == CLOSED for p in elems[nid]):
            kinds[nid] = CLOSED
            elems[nid] = [e for p in elems[nid] for e in elems[p]]
    return canonicalize(root, kinds, ws._type, feats, elems)


def _children(ws: Workspace, nid: int) -> Iterable[int]:
    """Children of ``nid``, stored back as their union-find representatives."""
    find = ws.find
    if ws._kind[nid] == AVM:
        feats = ws._feats[nid] = {f: find(c) for f, c in ws._feats[nid].items()}
        return feats.values()
    elems = ws._elems[nid] = [find(c) for c in ws._elems[nid]]
    return elems


def postorder(root: int, children: Callable[[int], Iterable[int]]) -> Optional[list[int]]:
    """The nodes reachable from ``root``, each after all of its children.

    This is the occurs check: returns None when the graph has a cycle.
    Node ids are non-negative; ``~node`` on the stack marks leaving it.
    """
    order: list[int] = []
    finished: dict[int, bool] = {}  # False while the node is on the current path
    stack = [root]
    while stack:
        cur = stack.pop()
        if cur < 0:
            finished[~cur] = True
            order.append(~cur)
        elif cur not in finished:
            finished[cur] = False
            stack.append(~cur)
            stack.extend(children(cur))
        elif not finished[cur]:
            return None
    return order


def canonicalize(root: int, kinds: Mapping[int, str], types: Mapping[int, str],
                 feats: Mapping[int, Sequence[tuple[str, int]]],
                 elems: Mapping[int, Sequence[int]]) -> FeatureStructure:
    """Renumber the nodes reachable from acyclic ``root`` in preorder."""
    order: dict[int, int] = {}
    visit = [root]
    while visit:
        cur = visit.pop()
        if cur in order:
            continue
        order[cur] = len(order)
        if kinds[cur] == AVM:
            visit.extend([c for _, c in reversed(feats[cur])])
        else:
            visit.extend(reversed(elems[cur]))
    nodes = []
    for old in order:
        if kinds[old] == AVM:
            nodes.append(Node(AVM, types[old], tuple([(f, order[c]) for f, c in feats[old]])))
        else:
            nodes.append(Node(kinds[old], "", (), tuple([order[c] for c in elems[old]])))
    return FeatureStructure(tuple(nodes))
