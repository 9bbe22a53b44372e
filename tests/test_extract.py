"""``Workspace.extract`` and ``Workspace.graft`` against their references
(extract_oracle).

One random sequence of operations is applied to two workspaces, and each
extract is taken by ``Workspace.extract`` on the one and by the reference
on the other; each graft goes through ``Workspace.graft`` on the one and
the node-by-node reference on the other.  Unlike ``fsgen``, the operations
build append lists and, through ``set_feat`` and ``unify_nodes``, cycles;
several extracts run on one workspace, so seals made by one extract meet
the next unification.  A restart begins two fresh workspaces with a graft
at offset 0.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extract_oracle
from vorfeld.tfs import AVM, CLOSED, SET, FeatureStructure, Node, Workspace

TYPES = ["top", "a", "b", "c", "d", "x", "y", "z"]
FEATS = ["F", "G", "H", "S"]

# a node is named by its distance from the newest node, so most operations
# connect recent nodes and the graphs grow deep
REF = st.integers(0, 6)
REFS = st.lists(REF, max_size=3)

OPS = st.one_of(
    st.tuples(st.just("avm"), st.sampled_from(TYPES), st.lists(st.tuples(st.sampled_from(FEATS), REF), max_size=3)),
    st.tuples(st.just("closed"), REFS),
    st.tuples(st.just("open"), REFS),
    st.tuples(st.just("append"), st.lists(REF, min_size=1, max_size=3)),
    st.tuples(st.just("set"), st.lists(REF, max_size=1)),
    st.tuples(st.just("set_feat"), REF, st.sampled_from(FEATS), REF),
    st.tuples(st.just("unify"), REF, REF),
    st.tuples(st.just("extract"), REF),
    st.tuples(st.just("graft"), REF),
    st.tuples(st.just("restart"), REF),
)

# grafted before anything is extracted: an atom, an empty list, and
# b[H <a[F #1 x, G #1], #1>, S {#1}]
SEEDS = (
    FeatureStructure((Node(AVM, "d"),)),
    FeatureStructure((Node(CLOSED),)),
    FeatureStructure((Node(AVM, "b", (("H", 1), ("S", 4))), Node(CLOSED, "", (), (2, 3)),
                      Node(AVM, "a", (("F", 3), ("G", 3))), Node(AVM, "x"), Node(SET, "", (), (3,)))),
)


class Pair:
    """The same workspace twice, one extracted and grafted into by each
    implementation.

    Each starts with ``first`` grafted at offset 0, if given, then an atom
    and an empty closed list, so that every operation finds a node and
    every append a list.  ``extracted`` holds the structures a graft may
    copy, the seeds first.
    """

    def __init__(self, hierarchy, first=None, extracted=SEEDS):
        self.ws = [Workspace(hierarchy), Workspace(hierarchy)]
        self.nodes: list[int] = []  # node ids, equal in both workspaces
        self.lists: list[int] = []
        self.extracted = list(extracted)
        if first is not None:
            self.graft(first)
        self.build(lambda ws: ws.atom("top"))
        self.build(lambda ws: ws.closed_list(), self.lists)

    def node(self, ref: int, pool=None) -> int:
        pool = pool or self.nodes
        return pool[-1 - ref % len(pool)]

    def build(self, make, pool=None, reference=None) -> None:
        new = [make(self.ws[0]), (reference or make)(self.ws[1])]
        assert new[0] == new[1]
        self.nodes.append(new[0])
        if pool is not None:
            pool.append(new[0])

    def graft(self, fs) -> None:
        self.build(lambda ws: ws.graft(fs), reference=lambda ws: extract_oracle.graft(ws, fs))

    def extract(self, root: int):
        got = self.ws[0].extract(root)
        assert got == extract_oracle.extract(self.ws[1], root)
        if got is not None:
            self.extracted.append(got)
        return got


def run(hierarchy, ops) -> None:
    pair = Pair(hierarchy)
    for op, *args in ops:
        if op == "avm":
            feats = {f: pair.node(r) for f, r in args[1]}
            pair.build(lambda ws: ws.avm(args[0], **feats))
        elif op in ("closed", "open", "set"):
            make = {"closed": Workspace.closed_list, "open": Workspace.open_list,
                    "set": Workspace.set_value}[op]
            refs = [pair.node(r) for r in args[0]]
            pair.build(lambda ws: make(ws, refs), None if op == "set" else pair.lists)
        elif op == "append":
            parts = [pair.node(r, pair.lists) for r in args[0]]
            pair.build(lambda ws: ws.append_list(parts), pair.lists)
        elif op == "set_feat":
            node, value = pair.node(args[0]), pair.node(args[2])
            if pair.ws[0]._kind[pair.ws[0].find(node)] == AVM:
                for ws in pair.ws:
                    ws.set_feat(node, args[1], value)
        elif op == "unify":
            x, y = pair.node(args[0]), pair.node(args[1])
            results = [ws.unify_nodes(x, y) for ws in pair.ws]
            assert results[0] == results[1]
            if not results[0]:
                assert pair.extract(x) is None
                pair = Pair(hierarchy)
        elif op == "extract":
            pair.extract(pair.node(args[0]))
        elif op == "graft":
            pair.graft(pair.extracted[-1 - args[0] % len(pair.extracted)])
        else:  # restart
            first = pair.extracted[-1 - args[0] % len(pair.extracted)]
            pair = Pair(hierarchy, first, pair.extracted)
    for ref in range(3):
        pair.extract(pair.node(ref))


def _examples(n: int):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


# A rejected extract leaves no seal behind: node 3 appends two closed lists,
# node 4 reaches it through H before it meets itself through S, and after
# the cycle is rejected node 3 must still fail against an open list.
REJECTED_SEAL = [("closed", [1]), ("append", [0, 1]), ("avm", "b", [("H", 0)]),
                 ("set_feat", 0, "S", 0), ("extract", 0), ("open", [4]), ("unify", 2, 0)]

# A one-node structure grafted at offset 0, unified and extracted, and the
# result grafted at offset 0 in turn and again at the end.
GRAFTED_FIRST = [("restart", 2), ("unify", 1, 2), ("extract", 0), ("restart", 0), ("graft", 0)]


@_examples(150)
@given(ops=st.lists(OPS, max_size=40))
@example(ops=REJECTED_SEAL)
@example(ops=GRAFTED_FIRST)
def test_extract_equals_the_multi_pass_reference(diamond, ops):
    run(diamond, ops)


@pytest.mark.slow
@_examples(1500)
@given(ops=st.lists(OPS, max_size=40))
def test_extract_equals_the_multi_pass_reference_slow(diamond, ops):
    run(diamond, ops)
