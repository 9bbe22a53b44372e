"""Typed feature structures: type hierarchy, unification, subsumption.

A feature structure is a rooted directed acyclic graph.  Every node is one
of:

* an AVM node: a type symbol from the hierarchy plus a map from feature
  names to child nodes (a featureless AVM node is an atom);
* a list node: ``closed`` (determinate length), ``open`` (a known prefix
  plus an unconstrained tail), or ``append`` (concatenation of list-valued
  parts, resolved as soon as every part is closed);
* a set node holding zero or one elements.

Shared children encode reentrancy.  All structures are immutable after
construction and safe to share between threads; unification never mutates
its inputs and returns ``None`` on failure (failure is a value here, not a
fault).  Unification runs in a :class:`Workspace` of dense per-node
arrays; one depth-first walk extracts a result in canonical form, resolving
append lists and rejecting cyclic results by an occurs check.

Sets are capped at one element: the grammar never needs two simultaneous
nonlocal dependencies, and the cap keeps set unification trivial.  General
constraint solving is out of scope; an ``append`` node unifies with a
closed list by eager left-to-right resolution and is rejected when the
remainder is undecidable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

AVM = "avm"
CLOSED = "closed"
OPEN = "open"
APPEND = "append"
SET = "set"

LIST_KINDS = (CLOSED, OPEN, APPEND)

#: pseudo value types usable in appropriateness declarations
LIST_TYPE = "*list*"
SET_TYPE = "*set*"


class ConfigurationError(Exception):
    """Unknown type symbol or ill-formed grammar configuration."""


class HierarchyError(ConfigurationError):
    """The declared type hierarchy violates a well-formedness condition.

    ``type`` names the type whose declaration is at fault, or is None when
    no one declaration is (two tops, a pair of types without a unique
    greatest lower bound)."""

    def __init__(self, message: str, type: Optional[str] = None):
        super().__init__(message)
        self.type = type


class PathError(Exception):
    """A feature path could not be resolved."""


# ---------------------------------------------------------------------------
# type hierarchy


class TypeHierarchy:
    """An acyclic partial order of type symbols with a single top.

    Every pair of types either has no common subtype or a unique greatest
    lower bound; the constructor rejects hierarchies violating that.  The
    hierarchy also carries the appropriateness table: which features a type
    licenses and the required value type of each.  A feature may be
    introduced by exactly one type and is inherited by its subtypes; a
    type with several parents takes each feature's most specific value
    type among theirs, and it is an error when two are incomparable; a
    subtype may redeclare a feature only to narrow its value type.  Each
    type's extension mask, computed at load, has one bit for each of its
    subtypes (Aït-Kaci, Boyer, Lincoln & Nasr 1989), so distinct types have
    distinct masks, and the order is that one table: ``a`` subsumes ``b``
    when the mask of ``b`` has no bit outside that of ``a``, the greatest
    lower bound of two types is the type whose mask is the and of theirs,
    and two types are compatible exactly when their masks share a bit.
    """

    def __init__(self, declarations: Sequence[tuple[str, Sequence[str], Sequence[tuple[str, str]]]]):
        self._parents: dict[str, tuple[str, ...]] = {}
        self._own_feats: dict[str, dict[str, str]] = {}
        for name, parents, feats in declarations:
            if name in self._parents:
                raise HierarchyError(f"type {name!r} declared twice", name)
            self._parents[name] = tuple(parents)
            self._own_feats[name] = dict(feats)
        roots = [t for t, ps in self._parents.items() if not ps]
        if len(roots) != 1:
            raise HierarchyError(f"expected exactly one top type, found {roots}")
        self.top = roots[0]
        children: dict[str, list[str]] = {t: [] for t in self._parents}
        for name, parents in self._parents.items():
            for p in parents:
                if p not in self._parents:
                    raise HierarchyError(f"type {name!r} has unknown parent {p!r}", name)
                children[p].append(name)
        # every type after its parents: no recursion, so no chain is too deep
        waiting = {t: len(ps) for t, ps in self._parents.items()}
        ready = [self.top]
        for name in ready:
            for child in children[name]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        if len(ready) < len(self._parents):
            unplaced = min(set(self._parents) - set(ready))
            raise HierarchyError(f"cycle in hierarchy through or above {unplaced!r}", unplaced)
        self._parents_first = tuple(ready)
        # bit i is the i-th type by name; a mask is the type's own bit and
        # its children's masks, each built before its parents'
        self._extension = {t: 1 << i for i, t in enumerate(sorted(self._parents))}
        for name in reversed(ready):
            for child in children[name]:
                self._extension[name] |= self._extension[child]
        self._by_extension = {mask: t for t, mask in self._extension.items()}
        #: every type's extension mask, read-only: ``extensions.get(t)`` is
        #: one lookup, None for a name the hierarchy does not declare
        self.extensions: Mapping[str, int] = MappingProxyType(self._extension)
        for a, b in itertools.combinations(self._extension, 2):
            meet = self._extension[a] & self._extension[b]
            if meet and meet not in self._by_extension:
                raise HierarchyError(f"types {a!r} and {b!r} have no unique greatest lower bound")
        self._features: dict[str, dict[str, str]] = {}
        introduced: dict[str, str] = {}
        for t in ready:
            feats: dict[str, str] = {}
            for p in self._parents[t]:
                for f, vt in self._features[p].items():
                    most = self._narrower(feats.get(f, vt), vt)
                    if most is None:
                        raise HierarchyError(f"type {t!r} inherits feature {f!r} with incomparable "
                                             f"value types {feats[f]!r} and {vt!r}", t)
                    feats[f] = most
            for f, vt in self._own_feats[t].items():
                if vt not in self._parents and vt not in (LIST_TYPE, SET_TYPE):
                    raise HierarchyError(f"type {t!r} declares feature {f!r} "
                                         f"with unknown value type {vt!r}", t)
                if f not in feats:
                    if f in introduced:
                        raise HierarchyError(
                            f"feature {f!r} introduced by both {introduced[f]!r} and {t!r}", t)
                    introduced[f] = t
                elif self._narrower(feats[f], vt) != vt:
                    raise HierarchyError(
                        f"type {t!r} narrows feature {f!r} to incompatible value type {vt!r}", t)
                feats[f] = vt
            self._features[t] = feats

    def _narrower(self, a: str, b: str) -> Optional[str]:
        """The more specific of value types ``a`` and ``b``; None when
        neither subsumes the other, as for a list and a set."""
        if a == b:
            return a
        if {a, b} & {LIST_TYPE, SET_TYPE}:
            return None
        if self.subsumes_type(a, b):
            return b
        return a if self.subsumes_type(b, a) else None

    # -- queries ------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._parents

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(sorted(self._parents))

    def check_type(self, name: str) -> None:
        if name not in self._parents:
            raise ConfigurationError(f"unknown type symbol {name!r}")

    def subsumes_type(self, a: str, b: str) -> bool:
        """True iff ``b`` is ``a`` or a subtype of ``a``."""
        return not self.extension(b) & ~self.extension(a)

    def glb(self, a: str, b: str) -> Optional[str]:
        """Greatest lower bound of two types, or None if they are incompatible."""
        try:
            return self._by_extension.get(self._extension[a] & self._extension[b])
        except KeyError as exc:
            raise ConfigurationError(f"unknown type symbol {exc.args[0]!r}") from None

    def extension(self, t: str) -> int:
        """The extension mask of ``t``: ``extension(a) & extension(b)`` is
        the mask of ``glb(a, b)``, and zero when there is none."""
        self.check_type(t)
        return self._extension[t]

    def features_for(self, t: str) -> Mapping[str, str]:
        self.check_type(t)
        return self._features[t]

    def declarations(self) -> list[tuple[str, tuple[str, ...], tuple[tuple[str, str], ...]]]:
        """The hierarchy as declaration triples, each type after its parents
        (round-trips through the loader)."""
        return [
            (t, self._parents[t], tuple(sorted(self._own_feats[t].items())))
            for t in self._parents_first
        ]


# ---------------------------------------------------------------------------
# feature structures


class Node(NamedTuple):
    kind: str
    type: str = ""
    feats: tuple[tuple[str, int], ...] = ()
    elems: tuple[int, ...] = ()


@dataclass(frozen=True)
class FeatureStructure:
    """An immutable rooted graph in canonical form.

    Nodes are numbered in deterministic depth-first order from the root
    (which is therefore always node 0), so two structures are isomorphic
    exactly when their node tuples are equal.  ``sid`` is the structure's
    id in the intern table of the schema memo that made it
    (:class:`vorfeld.grammar.SchemaMemo`), -1 for any other structure; it
    takes no part in equality.
    """

    nodes: tuple[Node, ...]
    sid: int = field(default=-1, compare=False, repr=False)

    @property
    def root(self) -> int:
        return 0

    def node_at(self, path: Iterable[str], start: Optional[int] = 0) -> Optional[int]:
        """Node index reached by following ``path`` from node ``start``;
        None when ``start`` is None, a feature is undefined or the path
        steps through a list or set, which has no features."""
        if start is None:
            return None
        nodes, cur = self.nodes, start
        for feat in path:
            for name, child in nodes[cur].feats:
                if name == feat:
                    cur = child
                    break
            else:
                return None
        return cur

    def resolve(self, path: Sequence[str], start: int = 0) -> int:
        """:meth:`node_at`, raising PathError where it gives None."""
        cur = self.node_at(path, start)
        if cur is None:
            raise PathError(f"path {' '.join(path)!r} undefined at node {start}")
        return cur

    def has_path(self, path: Iterable[str]) -> bool:
        return self.node_at(path) is not None

    def type_at(self, path: Iterable[str], start: Optional[int] = 0) -> Optional[str]:
        """Type (or list/set kind) at ``path`` from node ``start``; None if undefined."""
        cur = self.node_at(path, start)
        if cur is None:
            return None
        kind, type_, _, _ = self.nodes[cur]
        return type_ if kind == AVM else kind


def path_get(fs: FeatureStructure, path: Sequence[str]) -> FeatureStructure:
    """The substructure rooted at the node reached by ``path``.

    The result is a standalone structure in canonical form; raises
    PathError on an undefined feature.
    """
    return _canonicalize(fs.resolve(path), fs.nodes)


def fs_equal(a: FeatureStructure, b: FeatureStructure) -> bool:
    """Graph isomorphism respecting types, features and reentrancy."""
    return a.nodes == b.nodes


def _canonicalize(root: int, nodes: Sequence[Node]) -> Optional[FeatureStructure]:
    """The nodes reachable from ``root``, renumbered in canonical order.

    ``nodes[n]`` is node ``n``, its features sorted by name.  Canonical
    order is the preorder of a depth-first walk from ``root`` that takes
    features by name and elements in list order.  The walk is also the
    occurs check: it returns None on meeting a node again while that node
    is on the current path.  Node ids are non-negative; ``~node`` on the
    stack marks leaving it.
    """
    order: dict[int, int] = {}
    out: list[Optional[Node]] = []
    pending: list[tuple] = []
    path: set[int] = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        if cur < 0:
            path.discard(~cur)
        elif cur not in order:
            order[cur] = len(out)
            node = nodes[cur]
            kind, type_, feats, children = node
            if kind == AVM and feats:
                names, children = zip(*feats)
            elif not children:
                out.append(node)
                continue
            else:
                names = None
            pending.append((len(out), kind, type_, names, children))
            out.append(None)
            path.add(cur)
            stack.append(~cur)
            stack.extend(reversed(children))
        elif cur in path:
            return None
    return _renumbered(order, out, pending)


def _renumbered(order: Mapping[int, int], out: list, pending: Iterable[tuple]) -> FeatureStructure:
    """The structure of nodes ``out``, in canonical order, where each
    ``(position, kind, type, names, children)`` of ``pending`` fills its
    position, child ``c`` renamed ``order[c]``: an AVM node's features are
    ``names`` (None for a list or set) paired with its children."""
    new, get = tuple.__new__, order.__getitem__
    for i, kind, type_, names, children in pending:
        if names is None:
            out[i] = new(Node, (kind, "", (), tuple(map(get, children))))
        else:
            out[i] = new(Node, (AVM, type_, tuple(zip(names, map(get, children))), ()))
    return FeatureStructure(tuple(out))


# ---------------------------------------------------------------------------
# workspace: staging area for construction and unification


class Workspace:
    """A mutable graph store with union-find node merging.

    Build nodes (or graft whole structures in), call :meth:`unify_nodes`
    for each constraint, then :meth:`extract` an immutable result.  After
    any failed unification the workspace is poisoned and extraction
    returns None.  Node ids index five lists (kind, type, features,
    elements, union-find parent); elements are replaced, never edited.
    """

    def __init__(self, hierarchy: TypeHierarchy):
        self.hierarchy = hierarchy
        self._kind: list[Optional[str]] = []
        self._type: list[str] = []
        self._feats: list[dict[str, int]] = []
        self._elems: list[Sequence[int]] = []
        self._parent: list[int] = []
        self.failed = False

    # -- construction -------------------------------------------------

    def _new(self, kind: str, type_: str = "", feats: Optional[dict[str, int]] = None,
             elems: Sequence[int] = ()) -> int:
        i = len(self._parent)
        self._kind.append(kind)
        self._type.append(type_)
        self._feats.append(feats or {})
        self._elems.append(elems)
        self._parent.append(i)
        return i

    def avm(self, type_: str, /, **feats: int) -> int:
        self.hierarchy.check_type(type_)
        return self._new(AVM, type_, dict(feats))

    def atom(self, type_: str) -> int:
        return self.avm(type_)

    def closed_list(self, elems: Sequence[int] = ()) -> int:
        return self._new(CLOSED, elems=list(elems))

    def open_list(self, prefix: Sequence[int] = ()) -> int:
        return self._new(OPEN, elems=list(prefix))

    def append_list(self, parts: Sequence[int]) -> int:
        return self._new(APPEND, elems=list(parts))

    def set_value(self, elems: Sequence[int] = ()) -> int:
        if len(elems) > 1:
            raise ConfigurationError("set values hold at most one element")
        return self._new(SET, elems=list(elems))

    def graft(self, fs: FeatureStructure) -> int:
        """Copy ``fs`` into the workspace; returns the new root id."""
        offset = len(self._parent)
        kinds, types, feats, elems = self._kind, self._type, self._feats, self._elems
        for kind, type_, fs_feats, fs_elems in fs.nodes:
            kinds.append(kind)
            types.append(type_)
            feats.append({f: c + offset for f, c in fs_feats} if fs_feats else {})
            elems.append([c + offset for c in fs_elems] if fs_elems else ())
        self._parent.extend(range(offset, len(kinds)))
        return offset

    def set_feat(self, node: int, feat: str, value: int) -> None:
        self._feats[self.find(node)][feat] = self.find(value)

    # -- union-find ---------------------------------------------------

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def resolve(self, root: int, path: Iterable[str]) -> int:
        cur = self.find(root)
        for feat in path:
            if self._kind[cur] != AVM:
                raise PathError(f"feature {feat!r} requested on a {self._kind[cur]} value")
            feats = self._feats[cur]
            if feat not in feats:
                raise PathError(f"feature {feat!r} undefined on type {self._type[cur]!r}")
            cur = self.find(feats[feat])
        return cur

    def type_of(self, node: int) -> str:
        return self._type[self.find(node)]

    def elems_of(self, node: int) -> list[int]:
        return [self.find(e) for e in self._elems[self.find(node)]]

    # -- unification --------------------------------------------------

    def unify_nodes(self, x: int, y: int) -> bool:
        """Destructively merge two nodes; False (and poisoned state) on clash."""
        if self.failed:
            return False
        queue = [(x, y)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            ka, kb = self._kind[a], self._kind[b]
            if ka == AVM and kb == AVM:
                t = self.hierarchy.glb(self._type[a], self._type[b])
                if t is None:
                    self.failed = True
                    return False
                fa, fb = self._feats[a], self._feats[b]
                merged = dict(fa)
                for f, c in fb.items():
                    if f in merged:
                        queue.append((merged[f], c))
                    else:
                        merged[f] = c
                self._join(a, b, AVM, t, merged, [])
            elif ka in LIST_KINDS and kb in LIST_KINDS:
                if not self._unify_lists(a, b, queue):
                    self.failed = True
                    return False
            elif ka == SET and kb == SET:
                ea, eb = self._elems[a], self._elems[b]
                if len(ea) != len(eb):
                    self.failed = True
                    return False
                for p, q in zip(ea, eb):
                    queue.append((p, q))
                self._join(a, b, SET, "", {}, list(ea))
            else:
                self.failed = True
                return False
        return True

    def _join(self, a: int, b: int, kind: str, type_: str, feats: dict[str, int],
              elems: list[int]) -> int:
        self._parent[b] = a
        self._kind[a] = kind
        self._type[a] = type_
        self._feats[a] = feats
        self._elems[a] = elems
        return a

    def _unify_lists(self, a: int, b: int, queue: list) -> bool:
        ka, kb = self._kind[a], self._kind[b]
        if kb == APPEND and ka != APPEND:
            a, b = b, a
            ka, kb = kb, ka
        if ka == APPEND:
            return self._unify_append(a, b, queue)
        if kb == OPEN and ka != OPEN:
            a, b = b, a
            ka, kb = kb, ka
        ea, eb = self._elems[a], self._elems[b]
        if ka == OPEN:
            if kb == OPEN:
                short, long_ = (ea, eb) if len(ea) <= len(eb) else (eb, ea)
                for p, q in zip(short, long_):
                    queue.append((p, q))
                self._join(a, b, OPEN, "", {}, list(long_))
                return True
            # open against closed: the prefix may not exceed the closed length
            if len(ea) > len(eb):
                return False
            for p, q in zip(ea, eb):
                queue.append((p, q))
            self._join(a, b, CLOSED, "", {}, list(eb))
            return True
        # closed against closed
        if len(ea) != len(eb):
            return False
        for p, q in zip(ea, eb):
            queue.append((p, q))
        self._join(a, b, CLOSED, "", {}, list(ea))
        return True

    def _unify_append(self, a: int, b: int, queue: list) -> bool:
        kb = self._kind[b]
        if kb == APPEND:
            ea, eb = self._elems[a], self._elems[b]
            if len(ea) != len(eb):
                return False
            for p, q in zip(ea, eb):
                queue.append((p, q))
            self._join(a, b, APPEND, "", {}, list(ea))
            return True
        if kb == OPEN:
            # an empty open prefix adds no information; anything longer is
            # beyond the solver (general constraint solving is a non-goal)
            if self._elems[b]:
                return False
            self._join(a, b, APPEND, "", {}, list(self._elems[a]))
            return True
        # append against a closed list: consume closed parts from both ends;
        # at most one non-closed part may remain and binds to the remainder
        remaining = [self.find(e) for e in self._elems[b]]
        parts = [self.find(p) for p in self._elems[a]]
        lo, hi = 0, len(parts)
        while lo < hi and self._kind[self.find(parts[lo])] == CLOSED:
            part = self.find(parts[lo])
            pe = self._elems[part]
            if len(pe) > len(remaining):
                return False
            for p, q in zip(pe, remaining[: len(pe)]):
                queue.append((p, q))
            remaining = remaining[len(pe):]
            lo += 1
        while lo < hi and self._kind[self.find(parts[hi - 1])] == CLOSED:
            part = self.find(parts[hi - 1])
            pe = self._elems[part]
            if len(pe) > len(remaining):
                return False
            tail = remaining[len(remaining) - len(pe):]
            for p, q in zip(pe, tail):
                queue.append((p, q))
            remaining = remaining[: len(remaining) - len(pe)]
            hi -= 1
        if hi - lo > 1:
            return False
        if hi - lo == 1:
            part = self.find(parts[lo])
            if self._kind[part] != OPEN or len(self._elems[part]) > len(remaining):
                return False
            for p, q in zip(self._elems[part], remaining[: len(self._elems[part])]):
                queue.append((p, q))
            self._kind[part] = CLOSED
            self._elems[part] = list(remaining)
        elif remaining:
            return False
        self._join(b, a, CLOSED, "", {}, list(self._elems[b]))
        return True

    # -- extraction ---------------------------------------------------

    def _seal(self, nid: int, sealed: list) -> None:
        """Close append node ``nid`` if its parts are closed, sealing append
        parts first; ``sealed`` gets each sealed node with its parts."""
        kinds, elems = self._kind, self._elems
        parts = elems[nid] = [self.find(p) for p in elems[nid]]
        kinds[nid] = None  # while its parts seal: a part containing it stays open
        for p in parts:
            if kinds[p] == APPEND:
                self._seal(p, sealed)
        if all(kinds[p] == CLOSED for p in parts):
            sealed.append((nid, parts))
            kinds[nid], elems[nid] = CLOSED, [e for p in parts for e in elems[p]]
        else:
            kinds[nid] = APPEND

    def extract(self, root: int) -> Optional[FeatureStructure]:
        """Seal the subgraph under ``root`` as an immutable structure.

        One depth-first walk from the root's representative does all the
        work on a node's first visit: it numbers the node in canonical
        order (see :func:`_canonicalize`), maps its children to their
        union-find representatives, seals an append node whose parts are
        all closed as a closed list, runs the occurs check, and writes a
        node without children outright.  A linear pass then writes the
        others.  Seals stay in the workspace, so later unifications see
        closed lists.  Returns None, leaving no seal behind, if a
        unification failed earlier or the merge made a cycle.
        """
        if self.failed:
            return None
        kinds, types, feats, elems, parent = self._kind, self._type, self._feats, self._elems, self._parent
        find, new = self.find, tuple.__new__
        order: dict[int, int] = {}
        out: list[Optional[Node]] = []  # the nodes in canonical order, None while pending
        pending: list[tuple] = []  # the entries of _renumbered, children as representatives
        sealed: list[tuple[int, list[int]]] = []
        path: set[int] = set()
        stack = [find(root)]
        while stack:
            cur = stack.pop()
            if cur < 0:
                path.discard(~cur)
            elif cur not in order:
                order[cur] = len(out)
                kind = kinds[cur]
                if kind == AVM:
                    fd = feats[cur]
                    if not fd:
                        out.append(new(Node, (AVM, types[cur], (), ())))
                        continue
                    names = sorted(fd)
                    children = [c if parent[c] == c else find(c) for c in map(fd.__getitem__, names)]
                    pending.append((len(out), AVM, types[cur], names, children))
                else:
                    if kind == APPEND:
                        self._seal(cur, sealed)
                        kind = kinds[cur]
                    children = elems[cur]
                    if not children:
                        out.append(new(Node, (kind, "", (), ())))
                        continue
                    children = [c if parent[c] == c else find(c) for c in children]
                    pending.append((len(out), kind, "", None, children))
                out.append(None)
                path.add(cur)
                stack.append(~cur)
                stack.extend(reversed(children))
            elif cur in path:
                for nid, parts in sealed:
                    kinds[nid], elems[nid] = APPEND, parts
                return None
        return _renumbered(order, out, pending)


# ---------------------------------------------------------------------------
# top-level operations


def unify(a: FeatureStructure, b: FeatureStructure, hierarchy: TypeHierarchy) -> Optional[FeatureStructure]:
    """Most general structure subsumed by both inputs, or None.

    Inputs are never mutated.  Node types meet at their GLB, reentrancies
    of both sides are preserved and merged, closed-list length conflicts
    fail, set values unify elementwise.
    """
    ws = Workspace(hierarchy)
    ra = ws.graft(a)
    rb = ws.graft(b)
    if not ws.unify_nodes(ra, rb):
        return None
    return ws.extract(ra)


def subsumes(a: FeatureStructure, b: FeatureStructure, hierarchy: TypeHierarchy) -> bool:
    """True iff ``b`` carries all type and reentrancy information of ``a``."""
    mapping: dict[int, int] = {}
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if x in mapping:
            if mapping[x] != y:
                return False
            continue
        mapping[x] = y
        na, nb = a.nodes[x], b.nodes[y]
        if na.kind == AVM:
            if nb.kind != AVM or not hierarchy.subsumes_type(na.type, nb.type):
                return False
            featb = dict(nb.feats)
            for f, c in na.feats:
                if f not in featb:
                    return False
                stack.append((c, featb[f]))
        elif na.kind == SET:
            if nb.kind != SET or len(na.elems) != len(nb.elems):
                return False
            for p, q in zip(na.elems, nb.elems):
                stack.append((p, q))
        elif na.kind == OPEN:
            if nb.kind == CLOSED or nb.kind == OPEN:
                if len(na.elems) > len(nb.elems):
                    return False
                for p, q in zip(na.elems, nb.elems):
                    stack.append((p, q))
            elif nb.kind == APPEND:
                if na.elems:
                    return False
            else:
                return False
        elif na.kind == CLOSED:
            if nb.kind != CLOSED or len(na.elems) != len(nb.elems):
                return False
            for p, q in zip(na.elems, nb.elems):
                stack.append((p, q))
        else:  # APPEND subsumes only a structurally matching append
            if nb.kind != APPEND or len(na.elems) != len(nb.elems):
                return False
            for p, q in zip(na.elems, nb.elems):
                stack.append((p, q))
    return True


def validate(fs: FeatureStructure, hierarchy: TypeHierarchy) -> None:
    """Check types and feature appropriateness; raises ConfigurationError.

    Used at load time — unification preserves well-formedness because
    appropriateness is inherited along the hierarchy.
    """
    for i, node in enumerate(fs.nodes):
        if node.kind != AVM:
            continue
        hierarchy.check_type(node.type)
        allowed = hierarchy.features_for(node.type)
        for f, c in node.feats:
            if f not in allowed:
                raise ConfigurationError(
                    f"feature {f!r} is not appropriate for type {node.type!r}"
                )
            vt = allowed[f]
            child = fs.nodes[c]
            if vt == LIST_TYPE:
                if child.kind not in LIST_KINDS:
                    raise ConfigurationError(f"feature {f!r} requires a list value")
            elif vt == SET_TYPE:
                if child.kind != SET:
                    raise ConfigurationError(f"feature {f!r} requires a set value")
            else:
                if child.kind != AVM or not hierarchy.subsumes_type(vt, child.type):
                    raise ConfigurationError(
                        f"feature {f!r} requires a value of type {vt!r}, got "
                        f"{child.type if child.kind == AVM else child.kind!r}"
                    )
