import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgen import structure_pairs
from test_lexicon import MINI_TYPES
from vorfeld.avm import read_fs
import vorfeld
from vorfeld.lexicon import load_lexicon
from vorfeld.tfs import (
    AVM,
    CLOSED,
    ConfigurationError,
    HierarchyError,
    Node,
    PathError,
    TypeHierarchy,
    Workspace,
    _canonicalize,
    fs_equal,
    path_get,
    subsumes,
    unify,
)


# ---------------------------------------------------------------- hierarchy

DEEP = 1500  # a chain of subtypes deeper than Python's default recursion limit

# ``t`` inherits F from two parents that narrow it differently, the value
# of one subsuming the other's
MULTI_INHERITANCE = """
(type fval (top)) (type fsub (fval)) (type u (top) (F fval))
(type p1 (u) (F fval)) (type p2 (u) (F fsub)) (type t (p1 p2))
"""


class TestHierarchy:
    def test_glb_idempotent(self, diamond):
        assert diamond.glb("a", "a") == "a"

    def test_glb_top_is_identity(self, diamond):
        assert diamond.glb("top", "a") == "a"
        assert diamond.glb("x", "top") == "x"

    def test_glb_of_incomparable_types_with_common_subtype(self, diamond):
        # independent oracle: scan all common subtypes, pick the maximum
        common = [t for t in diamond.types
                  if diamond.subsumes_type("a", t) and diamond.subsumes_type("b", t)]
        maxima = [t for t in common
                  if all(diamond.subsumes_type(t, u) for u in common)]
        assert maxima == ["c"]
        assert diamond.glb("a", "b") == "c"

    def test_glb_failure(self, diamond):
        assert diamond.glb("x", "y") is None

    def test_unknown_type_is_configuration_error(self, diamond):
        with pytest.raises(ConfigurationError):
            diamond.glb("a", "nope")

    def test_non_unique_glb_rejected(self):
        with pytest.raises(HierarchyError):
            TypeHierarchy([
                ("top", (), ()),
                ("a", ("top",), ()),
                ("b", ("top",), ()),
                ("c", ("a", "b"), ()),
                ("d", ("a", "b"), ()),
            ])

    def test_cycle_rejected(self):
        with pytest.raises(HierarchyError):
            TypeHierarchy([
                ("top", (), ()),
                ("a", ("top", "b"), ()),
                ("b", ("a",), ()),
            ])

    @pytest.mark.parametrize("child_first", [False, True])
    def test_a_deep_chain_of_subtypes_loads(self, child_first):
        """The masks and features are built without recursion, so a chain
        of 1,500 subtypes loads whichever end is declared first."""
        chain = [(f"d{i}", (f"d{i - 1}" if i > 1 else "top",), ()) for i in range(1, DEEP + 1)]
        hierarchy = TypeHierarchy([("top", (), ())] + (chain[::-1] if child_first else chain))
        assert hierarchy.subsumes_type("top", f"d{DEEP}")
        assert hierarchy.glb("d1", f"d{DEEP}") == f"d{DEEP}"
        assert not hierarchy.subsumes_type(f"d{DEEP}", "d1")

    @pytest.mark.parametrize("cycle", [1, DEEP])
    def test_a_cycle_of_any_length_rejected(self, cycle):
        ring = [(f"c{i}", (f"c{(i + 1) % cycle}",), ()) for i in range(cycle)]
        with pytest.raises(HierarchyError, match="cycle"):
            TypeHierarchy([("top", (), ()), ("a", ("top", "c0"), ())] + ring)

    @pytest.mark.parametrize("feats", [
        (("LF", "*list*"), ("LF", "top")),  # a list narrowed to a type
        (("LF", "*list*"), ("LF", "*set*")),  # a list narrowed to a set
        (("LF", "*set*"), ("LF", "*list*")),  # a set narrowed to a list
        (("LF", "top"), ("LF", "*list*")),  # a type narrowed to a list
        (("LF", "a"), ("LF", "b")),  # a type to one it does not subsume
        (("ODD", "nosuchtype"), ("EVEN", "top")),  # an undeclared value type
    ])
    def test_a_value_type_is_declared_and_keeps_its_kind(self, feats):
        (f1, v1), (f2, v2) = feats
        with pytest.raises(HierarchyError):
            TypeHierarchy([("top", (), ()), ("a", ("top",), ()), ("b", ("top",), ()),
                           ("lsta", ("top",), ((f1, v1),)), ("lstb", ("lsta",), ((f2, v2),))])

    @pytest.mark.parametrize("value", ["*list*", "*set*", "a"])
    def test_a_redeclaration_may_keep_or_narrow_its_value_type(self, value):
        narrower = {"a": "b"}.get(value, value)
        hierarchy = TypeHierarchy([("top", (), ()), ("a", ("top",), ()), ("b", ("a",), ()),
                                   ("lsta", ("top",), (("LF", value),)),
                                   ("lstb", ("lsta",), (("LF", narrower),))])
        assert hierarchy.features_for("lstb")["LF"] == narrower

    @pytest.mark.parametrize("declarations, at_fault", [
        ([("top", (), ()), ("a", ("top",), ()), ("a", ("top",), ())], "a"),
        ([("top", (), ()), ("a", ("nosuch",), ())], "a"),
        ([("top", (), ()), ("a", ("top",), (("F", "nosuch"),))], "a"),
        ([("top", (), ()), ("other", (), ())], None),
    ], ids=["declared-twice", "unknown-parent", "unknown-value-type", "two-tops"])
    def test_the_error_names_the_type_at_fault(self, declarations, at_fault):
        """A loader finds the declaration to report by the error's type."""
        with pytest.raises(HierarchyError) as exc:
            TypeHierarchy(declarations)
        assert exc.value.type == at_fault

    def test_two_tops_rejected(self):
        with pytest.raises(HierarchyError):
            TypeHierarchy([("top", (), ()), ("other", (), ())])

    def test_feature_introduced_twice_rejected(self):
        with pytest.raises(HierarchyError):
            TypeHierarchy([
                ("top", (), ()),
                ("a", ("top",), (("F", "top"),)),
                ("b", ("top",), (("F", "top"),)),
            ])

    @pytest.mark.parametrize("parents", [("p1", "p2"), ("p2", "p1")])
    def test_several_parents_give_a_feature_its_most_specific_value_type(self, parents):
        hierarchy = TypeHierarchy(_several_parents("fval", parents))
        assert dict(hierarchy.features_for("t")) == {"F": "fsub"}

    def test_several_parents_with_incomparable_value_types_rejected(self):
        with pytest.raises(HierarchyError, match="type 't' inherits feature 'F' with "
                                                 "incomparable value types 'fother' and 'fsub'"):
            TypeHierarchy(_several_parents("fother", ("p1", "p2")))

    def test_a_type_with_several_parents_loads_alike_under_every_hash_seed(self):
        """Features are merged in declaration order, not in an order that
        ``PYTHONHASHSEED`` varies, so it cannot decide whether a fragment
        loads: the bundled fragment with ``MULTI_INHERITANCE``, loaded in
        a fresh interpreter per seed."""
        script = ("import sys; from vorfeld.lexicon import fragment_text, load_lexicon; "
                  "print(dict(load_lexicon(fragment_text() + sys.argv[1]).hierarchy.features_for('t')))")
        src = str(Path(vorfeld.__file__).parents[1])
        outcomes = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script, MULTI_INHERITANCE], env=env,
                                 capture_output=True, text=True, timeout=120)
            outcomes.add((run.returncode, run.stdout, run.stderr))
        assert outcomes == {(0, "{'F': 'fsub'}\n", "")}

    def test_declarations_round_trip(self, diamond, fragment):
        """A hierarchy rebuilt from its declarations has the same types, and
        its glb is the reference's; each type is declared after its parents."""
        for hierarchy in (diamond, fragment.hierarchy, load_lexicon(MINI_TYPES).hierarchy):
            declarations = hierarchy.declarations()
            rebuilt = TypeHierarchy(declarations)
            assert rebuilt.types == hierarchy.types
            _assert_glb_matches_reference(rebuilt)
            seen = set()
            for name, parents, _feats in declarations:
                assert set(parents) <= seen, name
                seen.add(name)

    def test_extension_masks_meet_exactly_when_a_glb_exists(self, diamond, fragment):
        """The schemata's type tests (``grammar.fits``, the gate of every
        schema application) are ands of extension masks, and ``glb`` reads
        the same masks, so this is what guards them: over every pair of
        types of each hierarchy the tests declare, ``glb`` is the unique
        maximal common subtype of the reference, found from the
        declarations alone, and the masks share a bit exactly when it
        exists."""
        for hierarchy in (diamond, fragment.hierarchy, load_lexicon(MINI_TYPES).hierarchy):
            _assert_glb_matches_reference(hierarchy)
        with pytest.raises(ConfigurationError):
            diamond.extension("nope")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(parents=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3),
                            min_size=1, max_size=10))
    def test_extension_masks_meet_exactly_when_a_glb_exists_generated(self, parents):
        """The same over generated hierarchies: type ``t<i>`` has parents
        among ``t0`` (the top) to ``t<i-1>``.  The loader rejects exactly
        the hierarchies in which the reference finds a pair of types with
        several maximal common subtypes."""
        declarations = [("t0", (), ())]
        for i, ps in enumerate(parents, 1):
            declarations.append((f"t{i}", tuple(sorted({f"t{p % i}" for p in ps})), ()))
        try:
            hierarchy = TypeHierarchy(declarations)
        except HierarchyError:
            assert reference_glbs(declarations) is None
            return
        _assert_glb_matches_reference(hierarchy)
        _assert_glb_matches_reference(TypeHierarchy(hierarchy.declarations()))


def _several_parents(p1_value: str, t_parents: tuple[str, ...]) -> list:
    """``MULTI_INHERITANCE`` with a top, ``fother`` beside ``fsub``, p1's
    value type of F and t's parents as given."""
    return [("top", (), ()), ("fval", ("top",), ()), ("fsub", ("fval",), ()), ("fother", ("fval",), ()),
            ("u", ("top",), (("F", "fval"),)), ("p1", ("u",), (("F", p1_value),)),
            ("p2", ("u",), (("F", "fsub"),)), ("t", t_parents, ())]


def reference_glbs(declarations) -> Optional[dict]:
    """The greatest lower bound of every pair of declared types, as the
    unique maximum of their common subtypes (None without one), found from
    the declarations alone; None for the whole table when some pair has
    several maximal common subtypes."""
    parents = {name: ps for name, ps, _feats in declarations}
    ancestors: dict = {}

    def up(t):
        if t not in ancestors:
            ancestors[t] = {t}.union(*map(up, parents[t]))
        return ancestors[t]

    subtypes = {t: {s for s in parents if t in up(s)} for t in parents}
    table = {}
    for a in parents:
        for b in parents:
            common = subtypes[a] & subtypes[b]
            maxima = [t for t in common if not any(t != u and t in subtypes[u] for u in common)]
            if len(maxima) > 1:
                return None
            table[a, b] = maxima[0] if maxima else None
    return table


def _assert_glb_matches_reference(hierarchy: TypeHierarchy) -> None:
    reference = reference_glbs(hierarchy.declarations())
    for a in hierarchy.types:
        for b in hierarchy.types:
            meet = hierarchy.extension(a) & hierarchy.extension(b)
            assert hierarchy.glb(a, b) == reference[a, b], (a, b)
            assert bool(meet) == (reference[a, b] is not None), (a, b)


# ------------------------------------------------------------- unification


class TestUnify:
    def test_top_is_identity(self, diamond):
        x = read_fs("(a (F x) (G (b)))", diamond)
        top = read_fs("top", diamond)
        assert fs_equal(unify(top, x, diamond), x)

    def test_idempotent(self, diamond):
        x = read_fs("(a (F #1=(b)) (G #1#))", diamond)
        assert fs_equal(unify(x, x, diamond), x)

    def test_sharing_merges_values(self, diamond):
        """Unifying {F:a, G:b} with {F:#1, G:#1} collapses F and G."""
        lhs = read_fs("(a (F (a)) (G (b)))", diamond)
        rhs = read_fs("(a (F #1=top) (G #1#))", diamond)
        result = unify(lhs, rhs, diamond)
        assert result is not None
        # independent naive fixpoint oracle over node partitions
        partitions, types = _naive_merge(lhs, rhs, diamond)
        assert partitions["F"] == partitions["G"]
        f = result.resolve(("F",))
        g = result.resolve(("G",))
        assert f == g, "F and G must share one node"
        assert result.nodes[f].type == types[partitions["F"]] == "c"

    def test_type_clash_fails(self, diamond):
        assert unify(read_fs("x", diamond), read_fs("y", diamond), diamond) is None

    def test_closed_list_length_mismatch_fails(self, diamond):
        one = read_fs("(b (H (list x)))", diamond)
        two = read_fs("(b (H (list x x)))", diamond)
        assert unify(one, two, diamond) is None

    def test_open_list_extends(self, diamond):
        closed = read_fs("(b (H (list x x)))", diamond)
        open_ = read_fs("(b (H (openlist x)))", diamond)
        assert fs_equal(unify(open_, closed, diamond), closed)

    def test_open_list_prefix_too_long_fails(self, diamond):
        closed = read_fs("(b (H (list x)))", diamond)
        open_ = read_fs("(b (H (openlist x x)))", diamond)
        assert unify(open_, closed, diamond) is None

    def test_set_cardinality_is_meaningful(self, diamond):
        empty = read_fs("(b (S (set)))", diamond)
        single = read_fs("(b (S (set x)))", diamond)
        assert unify(empty, single, diamond) is None
        assert fs_equal(unify(single, single, diamond), single)

    @pytest.mark.parametrize("other", ["x", "(list)"])
    def test_a_set_unifies_only_with_a_set(self, diamond, other):
        empty, other = read_fs("(set)", diamond), read_fs(other, diamond)
        assert unify(empty, other, diamond) is None
        assert unify(other, empty, diamond) is None

    def test_cyclic_result_rejected(self, diamond):
        ws = Workspace(diamond)
        root = ws.graft(read_fs("(a (F (a (F (a)))))", diamond))
        ws.unify_nodes(root, ws.resolve(root, ("F",)))
        assert ws.extract(root) is None

    def test_inputs_not_mutated(self, diamond):
        lhs = read_fs("(a (F (a)) (G (b)))", diamond)
        rhs = read_fs("(a (F #1=top) (G #1#))", diamond)
        before = (lhs.nodes, rhs.nodes)
        unify(lhs, rhs, diamond)
        assert (lhs.nodes, rhs.nodes) == before

    def test_append_resolves_against_closed(self, diamond):
        lhs = read_fs("(b (H (append (list x) (openlist))))", diamond, check=False)
        rhs = read_fs("(b (H (list x y y)))", diamond)
        result = unify(lhs, rhs, diamond)
        assert fs_equal(result, rhs)
        assert fs_equal(unify(rhs, lhs, diamond), result)

    def test_append_right_anchored_resolution(self, diamond):
        lhs = read_fs("(b (H (append (openlist) (list y))))", diamond, check=False)
        rhs = read_fs("(b (H (list x y)))", diamond)
        assert fs_equal(unify(lhs, rhs, diamond), rhs)

    @pytest.mark.parametrize("rhs, expected", [
        ("(list x y z)", "(list x y z)"),
        ("(list y z)", "(list y z)"),  # the open part closes empty
        ("(list x z y)", None),  # the closed parts in the other order
        ("(list z)", None),  # shorter than the closed parts
    ])
    def test_closed_parts_after_the_open_part_match_from_the_right(self, diamond, rhs, expected):
        lhs = read_fs("(b (H (append (openlist) (list y) (list z))))", diamond)
        rhs = read_fs(f"(b (H {rhs}))", diamond)
        for result in (unify(lhs, rhs, diamond), unify(rhs, lhs, diamond)):
            if expected is None:
                assert result is None
            else:
                assert fs_equal(result, read_fs(f"(b (H {expected}))", diamond))

    def test_append_with_two_unknown_parts_is_rejected(self, diamond):
        # undecidable split: conservative failure, constraint solving is out of scope
        lhs = read_fs("(b (H (append (openlist) (openlist))))", diamond, check=False)
        rhs = read_fs("(b (H (list x y)))", diamond)
        assert unify(lhs, rhs, diamond) is None

    @pytest.mark.parametrize("rhs, expected", [
        # an append of closed lists reads as the closed list (list z y):
        # x and z meet at z, and the open part closes
        ("(b (H (append (list z) (list y))))", "(b (H (list z y)))"),
        # the parts meet but stay open, so the result is still an append
        ("(b (H (append (list top) (openlist y))))", "(b (H (append (list x) (openlist y))))"),
        ("(b (H (append (list x) (openlist) (openlist))))", None),  # another number of parts
        ("(b (H (append (list y) (openlist))))", None),  # a part that clashes
        ("(b (H (openlist)))", "(b (H (append (list x) (openlist))))"),  # adds nothing
        ("(b (H (openlist x)))", None),  # a known prefix is beyond the solver
    ])
    def test_append_against_an_append_or_an_open_list(self, diamond, rhs, expected):
        lhs = read_fs("(b (H (append (list x) (openlist))))", diamond, check=False)
        rhs = read_fs(rhs, diamond, check=False)
        for result in (unify(lhs, rhs, diamond), unify(rhs, lhs, diamond)):
            if expected is None:
                assert result is None
            else:
                assert fs_equal(result, read_fs(expected, diamond, check=False))


# -------------------------------------------------------------- extraction


class TestExtract:
    def test_nested_appends_of_closed_lists_become_one_closed_list(self, diamond):
        ws = Workspace(diamond)
        x, y, z = ws.atom("x"), ws.atom("y"), ws.atom("z")
        inner = ws.append_list([ws.closed_list([x]), ws.closed_list([y, z])])
        outer = ws.append_list([ws.closed_list([]), inner, ws.closed_list([x])])
        fs = ws.extract(ws.avm("b", H=outer))
        assert fs_equal(fs, read_fs("(b (H (list #1=x y z #1#)))", diamond))

    def test_append_with_an_open_part_stays_an_append(self, diamond):
        ws = Workspace(diamond)
        inner = ws.append_list([ws.closed_list([ws.atom("x")]), ws.open_list([ws.atom("y")])])
        outer = ws.append_list([ws.closed_list([ws.atom("z")]), inner])
        fs = ws.extract(ws.avm("b", H=outer))
        expected = "(b (H (append (list z) (append (list x) (openlist y)))))"
        assert fs_equal(fs, read_fs(expected, diamond))

    @pytest.mark.parametrize("part", ["closed", "open"])
    def test_cycle_through_an_append_part_is_rejected(self, diamond, part):
        """The root sits in an append part: resolved (closed) or not (open)."""
        ws = Workspace(diamond)
        root = ws.avm("b")
        inside = ws.closed_list([root]) if part == "closed" else ws.open_list([root])
        ws.set_feat(root, "H", ws.append_list([ws.closed_list([]), inside]))
        assert ws.extract(root) is None

    def test_extract_of_a_graft_is_the_structure_itself(self, diamond, fragment):
        cases = [(fs, diamond) for pair in structure_pairs(diamond, seed=5, count=100)
                 for fs in pair]
        cases += [(entry.fs, fragment.hierarchy) for entry in fragment.entries]
        for fs, hierarchy in cases:
            ws = Workspace(hierarchy)
            assert fs_equal(ws.extract(ws.graft(fs)), fs)


class TestCanonicalize:
    """The reader cannot write a cycle, so only hand-built node lists reach
    the occurs check of ``_canonicalize``."""

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_a_cycle_is_rejected(self, root):
        # 0 -F-> 1 -> 2 -G-> 0: a cycle through a list, from any node on it
        nodes = [Node(AVM, "a", (("F", 1),)), Node(CLOSED, "", (), (2,)), Node(AVM, "b", (("G", 0),))]
        assert _canonicalize(root, nodes) is None

    def test_a_self_loop_is_rejected(self):
        assert _canonicalize(0, [Node(AVM, "a", (("F", 0),))]) is None

    def test_a_shared_node_is_no_cycle(self):
        nodes = [Node(AVM, "x"), Node(AVM, "a", (("F", 0), ("G", 0))), Node(CLOSED, "", (), (1, 0))]
        fs = _canonicalize(2, nodes)
        assert fs.nodes == (Node(CLOSED, "", (), (1, 2)), Node(AVM, "a", (("F", 2), ("G", 2))), Node(AVM, "x"))


# every kind of node, shared ones included
EVERY_KIND = "(b (H (append (list #1=(a (F #2=x) (G #2#)) z) (openlist #1#))) (S (set (a (F y)))))"


class TestNodes:
    """The walkers build nodes with ``tuple.__new__``: each must still be a
    ``Node``, with its fields and ``_replace``."""

    def _assert_nodes(self, fs):
        assert {n.kind for n in fs.nodes} >= {AVM, CLOSED, "open", "append", "set"}
        for n in fs.nodes:
            assert type(n) is Node
            kind, type_, feats, elems = n
            assert (n.kind, n.type, n.feats, n.elems) == (kind, type_, feats, elems)
            assert n._replace(type="z") == Node(kind, "z", feats, elems)
            assert type(n._replace()) is Node and n._replace() == n

    def test_read_fs(self, diamond):
        self._assert_nodes(read_fs(EVERY_KIND, diamond))

    def test_extract(self, diamond):
        fs = read_fs(EVERY_KIND, diamond)
        ws = Workspace(diamond)
        ws.graft(fs)  # the second copy sits at a non-zero offset
        self._assert_nodes(ws.extract(ws.graft(fs)))

    def test_path_get(self, diamond):
        fs = read_fs(f"(b (H (list {EVERY_KIND})))", diamond)
        self._assert_nodes(path_get(fs, ("H",)))


def _naive_merge(a, b, hierarchy):
    """Fixpoint partition merger, independent of the workspace machinery."""
    nodes = {}
    for tag, fs in (("a", a), ("b", b)):
        for i, node in enumerate(fs.nodes):
            nodes[(tag, i)] = node
    parent = {k: k for k in nodes}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    pairs = [(("a", a.root), ("b", b.root))]
    while pairs:
        p, q = pairs.pop()
        p, q = find(p), find(q)
        if p == q:
            continue
        parent[q] = p
        fp = dict(nodes[p].feats)
        fq = dict(nodes[q].feats)
        for feat, child in fq.items():
            if feat in fp:
                pairs.append(((p[0], fp[feat]), (q[0], child)))
    partitions = {}
    types = {}
    for feat, child in a.nodes[a.root].feats:
        rep = find(("a", child))
        partitions[feat] = rep
    for rep in set(partitions.values()):
        merged = [k for k in nodes if find(k) == rep]
        t = "top"
        for k in merged:
            t = hierarchy.glb(t, nodes[k].type)
        types[rep] = t
    return partitions, types


# ------------------------------------------------------------- subsumption


class TestSubsumes:
    def test_reflexive(self, diamond):
        x = read_fs("(a (F x))", diamond)
        assert subsumes(x, x, diamond)

    def test_top_subsumes_everything(self, diamond):
        top = read_fs("top", diamond)
        for text in ["x", "(a (F x))", "(b (H (list x)))", "(b (S (set y)))"]:
            assert subsumes(top, read_fs(text, diamond), diamond)

    def test_sharing_is_information(self, diamond):
        shared = read_fs("(a (F #1=top) (G #1#))", diamond)
        unshared = read_fs("(a (F top) (G top))", diamond)
        assert subsumes(unshared, shared, diamond)
        assert not subsumes(shared, unshared, diamond)

    def test_result_of_unification_is_subsumed(self, diamond):
        lhs = read_fs("(a (F (a)) (G (b)))", diamond)
        rhs = read_fs("(a (F #1=top) (G #1#))", diamond)
        result = unify(lhs, rhs, diamond)
        assert subsumes(lhs, result, diamond)
        assert subsumes(rhs, result, diamond)

    @pytest.mark.parametrize("general, specific, holds", [
        # an append subsumes only an append of as many parts, part by part
        ("(append (list top) (openlist))", "(append (list x) (openlist))", True),
        ("(append (list x) (openlist))", "(append (list top) (openlist))", False),
        ("(append (list x) (openlist))", "(append (list x) (openlist) (openlist))", False),
        ("(append (list x) (openlist))", "(list x)", False),
        # an open list subsumes an append only with an empty prefix
        ("(openlist)", "(append (list x) (openlist))", True),
        ("(openlist x)", "(append (list x) (openlist))", False),
        # a closed list subsumes only a closed list of its length
        ("(list x)", "(openlist x)", False),
        ("(list x)", "(list x y)", False),
    ])
    def test_append_values(self, diamond, general, specific, holds):
        general, specific = (read_fs(f"(b (H {text}))", diamond, check=False)
                             for text in (general, specific))
        assert subsumes(general, specific, diamond) is holds


# ------------------------------------------------------------------- paths


class TestPaths:
    def test_empty_path_returns_whole(self, diamond):
        x = read_fs("(a (F x))", diamond)
        assert fs_equal(path_get(x, ()), x)

    def test_undefined_feature_fails(self, diamond):
        x = read_fs("(a (F x))", diamond)
        with pytest.raises(PathError):
            path_get(x, ("G",))
        with pytest.raises(PathError):
            path_get(x, ("F", "F"))

    def test_path_through_list_fails(self, diamond):
        x = read_fs("(b (H (list x)))", diamond)
        with pytest.raises(PathError):
            path_get(x, ("H", "F"))

    @pytest.mark.parametrize("sibling", ["", " (G y)"])
    def test_substructure_is_standalone(self, diamond, sibling):
        """With or without a sibling of the value, the result is renumbered alone."""
        value = "(b (H (list #1=x (openlist #1#))))"
        x = read_fs(f"(a (F {value}){sibling})", diamond)
        assert fs_equal(path_get(x, ("F",)), read_fs(value, diamond))

    def test_wird_vform_is_finite(self, fragment):
        (entry,) = fragment.find("wird")
        sub = path_get(entry.fs, ("SYNSEM", "LOC", "CAT", "HEAD", "VFORM"))
        assert sub.nodes[sub.root].type == "fin"

    def test_lex_lives_outside_loc(self, fragment):
        (entry,) = fragment.find("wird")
        assert entry.fs.has_path(("SYNSEM", "LEX"))
        with pytest.raises(PathError):
            entry.fs.resolve(("SYNSEM", "LOC", "LEX"))

    def test_node_at_is_the_one_walk(self, diamond):
        """``resolve``, ``type_at`` and ``has_path`` agree with ``node_at``,
        which gives None where a feature is missing, the path steps through
        a list, or it starts from None."""
        x = read_fs("(a (F (b (H (list x)))) (G y))", diamond)
        h = x.node_at(("F", "H"))
        assert x.nodes[h].kind == CLOSED and x.type_at(("F", "H")) == CLOSED
        assert x.node_at(("F",), 0) == x.resolve(("F",)) and x.type_at((), x.node_at(("G",))) == "y"
        for path, start in [(("F", "G"), 0), (("F", "H", "F"), 0), (("H",), h), (("F",), None), ((), None)]:
            assert x.node_at(path, start) is None and x.type_at(path, start) is None
            if start is not None:
                with pytest.raises(PathError):
                    x.resolve(path, start)
        assert x.has_path(("F", "H")) and not x.has_path(("F", "H", "F"))


# ---------------------------------------------------------------- equality


class TestFsEqual:
    def test_copy_is_equal(self, diamond):
        x = read_fs("(a (F #1=(b (H (list x)))) (G #1#))", diamond)
        y = read_fs("(a (F #1=(b (H (list x)))) (G #1#))", diamond)
        assert fs_equal(x, y)

    def test_extra_reentrancy_differs(self, diamond):
        shared = read_fs("(a (F #1=top) (G #1#))", diamond)
        unshared = read_fs("(a (F top) (G top))", diamond)
        assert not fs_equal(shared, unshared)

    def test_unify_commutes(self, diamond):
        lhs = read_fs("(a (F (a)) (G (b)))", diamond)
        rhs = read_fs("(a (F #1=top) (G #1#))", diamond)
        assert fs_equal(unify(lhs, rhs, diamond), unify(rhs, lhs, diamond))


class TestEntryTagInstantiation:
    def test_auxiliary_restriction_unifies_with_projection(self, fragment):
        """The finite auxiliary's VCOMP restriction picks up the embedded
        verb's valence: tag 1 becomes the one-element subject list, tag 2
        the dative/accusative complement list."""
        (wird,) = fragment.find("wird")
        ditransitive = [
            e for e in fragment.find("erzählen")
            if len(e.fs.nodes[e.fs.resolve(("SYNSEM", "LOC", "CAT", "COMPS"))].elems) == 2
        ]
        vcomp_loc = path_get(wird.fs, ("SYNSEM", "LOC", "CAT", "VCOMP", "LOC"))
        erz_loc = path_get(ditransitive[0].fs, ("SYNSEM", "LOC"))
        result = unify(vcomp_loc, erz_loc, fragment.hierarchy)
        assert result is not None
        subj = result.nodes[result.resolve(("CAT", "HEAD", "SUBJ"))]
        comps = result.nodes[result.resolve(("CAT", "COMPS"))]
        assert subj.kind == "closed" and len(subj.elems) == 1
        assert comps.kind == "closed" and len(comps.elems) == 2
        first, second = comps.elems
        assert _case_of(result, first) == "dat"
        assert _case_of(result, second) == "acc"
        assert _case_of(result, subj.elems[0]) == "nom"


def _case_of(fs, synsem_node):
    cur = synsem_node
    for feat in ("LOC", "CAT", "HEAD", "CASE"):
        node = fs.nodes[cur]
        cur = dict(node.feats)[feat]
    return fs.nodes[cur].type
