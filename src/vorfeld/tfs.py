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

from dataclasses import dataclass, field
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
    """The declared type hierarchy violates a well-formedness condition."""


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
    subtype may redeclare a feature only to narrow its value type.  Each
    type's extension mask, computed at load, has one bit for each of its
    subtypes, so two types have a greatest lower bound exactly when their
    masks share a bit: a compatibility test is one and.
    """

    def __init__(self, declarations: Sequence[tuple[str, Sequence[str], Sequence[tuple[str, str]]]]):
        self._parents: dict[str, tuple[str, ...]] = {}
        self._own_feats: dict[str, dict[str, str]] = {}
        for name, parents, feats in declarations:
            if name in self._parents:
                raise HierarchyError(f"type {name!r} declared twice")
            self._parents[name] = tuple(parents)
            self._own_feats[name] = dict(feats)
        roots = [t for t, ps in self._parents.items() if not ps]
        if len(roots) != 1:
            raise HierarchyError(f"expected exactly one top type, found {roots}")
        self.top = roots[0]
        for name, parents in self._parents.items():
            for p in parents:
                if p not in self._parents:
                    raise HierarchyError(f"type {name!r} has unknown parent {p!r}")
        self._ancestors: dict[str, frozenset[str]] = {}
        for name in self._parents:
            self._ancestors_of(name, ())
        self._subtypes: dict[str, set[str]] = {t: set() for t in self._parents}
        for name in self._parents:
            for anc in self._ancestors[name]:
                self._subtypes[anc].add(name)
        self._glb = self._glb_table()
        bit = {t: 1 << i for i, t in enumerate(sorted(self._parents))}
        self._extension = {t: sum(bit[s] for s in subs) for t, subs in self._subtypes.items()}
        self._features: dict[str, dict[str, str]] = {}
        self._check_appropriateness()

    def _ancestors_of(self, name: str, below: tuple[str, ...]) -> frozenset[str]:
        if name in below:
            raise HierarchyError(f"cycle in hierarchy through {name!r}")
        if name in self._ancestors:
            return self._ancestors[name]
        acc = {name}
        for p in self._parents[name]:
            acc |= self._ancestors_of(p, below + (name,))
        result = frozenset(acc)
        self._ancestors[name] = result
        return result

    def _glb_table(self) -> dict[tuple[str, str], str]:
        """The greatest lower bound of every compatible pair, in both orders.

        Rejects a pair whose maximal common subtypes are not unique.
        """
        table: dict[tuple[str, str], str] = {}
        types = sorted(self._parents)
        for i, a in enumerate(types):
            for b in types[i:]:
                common = self._subtypes[a] & self._subtypes[b]
                if not common:
                    continue
                maxima = [t for t in common if not any(t != u and t in self._subtypes[u] for u in common)]
                if len(maxima) != 1:
                    raise HierarchyError(
                        f"types {a!r} and {b!r} have no unique greatest lower bound: {sorted(maxima)}"
                    )
                table[a, b] = table[b, a] = maxima[0]
        return table

    def _check_appropriateness(self) -> None:
        intro: dict[str, str] = {}
        for t in self._parents:
            for f in self._own_feats[t]:
                inherited = any(f in self._own_feats[a] for a in self._ancestors[t] if a != t)
                if not inherited:
                    if f in intro and intro[f] != t and t not in self._ancestors[intro[f]] and intro[f] not in self._ancestors[t]:
                        raise HierarchyError(f"feature {f!r} introduced by both {intro[f]!r} and {t!r}")
                    intro.setdefault(f, t)
        for t in sorted(self._parents):
            feats: dict[str, str] = {}
            for a in sorted(self._ancestors[t], key=lambda x: len(self._ancestors[x])):
                for f, vt in self._own_feats[a].items():
                    if f in feats and vt != feats[f]:
                        if vt not in (LIST_TYPE, SET_TYPE) and not self.subsumes_type(feats[f], vt):
                            raise HierarchyError(
                                f"type {t!r} narrows feature {f!r} to incompatible value type {vt!r}"
                            )
                    feats[f] = vt
            self._features[t] = feats

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
        self.check_type(a)
        self.check_type(b)
        return a in self._ancestors[b]

    def glb(self, a: str, b: str) -> Optional[str]:
        """Greatest lower bound of two types, or None if they are incompatible."""
        result = self._glb.get((a, b))
        if result is None:
            self.check_type(a)
            self.check_type(b)
        return result

    def extension(self, t: str) -> int:
        """The extension mask of ``t``: ``extension(a) & extension(b)`` is
        non-zero exactly when ``glb(a, b)`` is not None."""
        self.check_type(t)
        return self._extension[t]

    def features_for(self, t: str) -> Mapping[str, str]:
        self.check_type(t)
        return self._features[t]

    def declarations(self) -> list[tuple[str, tuple[str, ...], tuple[tuple[str, str], ...]]]:
        """The hierarchy as declaration triples (round-trips through the loader)."""
        return [
            (t, self._parents[t], tuple(sorted(self._own_feats[t].items())))
            for t in sorted(self._parents, key=lambda x: (len(self._ancestors[x]), x))
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

    def resolve(self, path: Iterable[str], start: int = 0) -> int:
        """Node index reached by following ``path`` from node ``start``.

        Raises PathError when a feature is undefined or the path steps
        through a non-AVM node.
        """
        cur = start
        for feat in path:
            node = self.nodes[cur]
            if node.kind != AVM:
                raise PathError(f"feature {feat!r} requested on a {node.kind} value")
            for name, child in node.feats:
                if name == feat:
                    cur = child
                    break
            else:
                raise PathError(f"feature {feat!r} undefined on type {node.type!r}")
        return cur

    def has_path(self, path: Iterable[str]) -> bool:
        try:
            self.resolve(path)
            return True
        except PathError:
            return False

    def type_at(self, path: Iterable[str], start: int = 0) -> Optional[str]:
        """Type (or list/set kind) at ``path`` from node ``start``; None if undefined."""
        try:
            node = self.nodes[self.resolve(path, start)]
        except PathError:
            return None
        return node.type if node.kind == AVM else node.kind


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
    path: set[int] = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        if cur < 0:
            path.discard(~cur)
        elif cur not in order:
            order[cur] = len(order)
            kind, _, feats, elems = nodes[cur]
            children = [c for _, c in feats] if kind == AVM else elems
            if children:
                path.add(cur)
                stack.append(~cur)
                stack.extend(reversed(children))
        elif cur in path:
            return None
    return _renumbered(order, [nodes[n] for n in order])


def _renumbered(order: Mapping[int, int], nodes: Iterable[Node]) -> FeatureStructure:
    """``nodes``, in canonical order, with each child ``c`` renamed ``order[c]``."""
    out = []
    for kind, type_, feats, elems in nodes:
        if kind == AVM:
            out.append(Node(AVM, type_, tuple([(f, order[c]) for f, c in feats])))
        else:
            out.append(Node(kind, "", (), tuple([order[c] for c in elems])))
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

    def avm(self, type_: str, **feats: int) -> int:
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
        all closed as a closed list, and runs the occurs check.  A linear
        pass then writes the nodes.  Seals stay in the workspace, so later
        unifications see closed lists.  Returns None, leaving no seal
        behind, if a unification failed earlier or the merge made a cycle.
        """
        if self.failed:
            return None
        kinds, types, feats, elems, parent = self._kind, self._type, self._feats, self._elems, self._parent
        find = self.find
        order: dict[int, int] = {}
        reached: list[tuple] = []  # the nodes in canonical order, children as representatives
        sealed: list[tuple[int, list[int]]] = []
        path: set[int] = set()
        stack = [find(root)]
        while stack:
            cur = stack.pop()
            if cur < 0:
                path.discard(~cur)
            elif cur not in order:
                order[cur] = len(reached)
                kind = kinds[cur]
                if kind == AVM:
                    pairs = [(f, c if parent[c] == c else find(c)) for f, c in sorted(feats[cur].items())]
                    reached.append((AVM, types[cur], pairs, ()))
                    children = [c for _, c in pairs]
                else:
                    if kind == APPEND:
                        self._seal(cur, sealed)
                        kind = kinds[cur]
                    children = [c if parent[c] == c else find(c) for c in elems[cur]]
                    reached.append((kind, "", (), children))
                if children:
                    path.add(cur)
                    stack.append(~cur)
                    stack.extend(reversed(children))
            elif cur in path:
                for nid, parts in sealed:
                    kinds[nid], elems[nid] = APPEND, parts
                return None
        return _renumbered(order, reached)


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
