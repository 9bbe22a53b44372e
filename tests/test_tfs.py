import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgen import structure_pairs
from test_lexicon import MINI_TYPES
from vorfeld.avm import read_fs
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

    def test_declarations_round_trip(self, diamond):
        rebuilt = TypeHierarchy(diamond.declarations())
        assert rebuilt.types == diamond.types
        for s in diamond.types:
            for t in diamond.types:
                assert rebuilt.glb(s, t) == diamond.glb(s, t)

    def test_extension_masks_meet_exactly_when_a_glb_exists(self, diamond, fragment):
        """The schemata's type tests (``grammar.fits``, which the steps and
        the pairing loop share) are ands of extension masks, and the
        closure oracle runs the same steps, so this is what guards them:
        over every pair of types of each hierarchy the tests declare, the
        masks share a bit exactly when the glb table has an entry."""
        for hierarchy in (diamond, fragment.hierarchy, load_lexicon(MINI_TYPES).hierarchy):
            _assert_masks_match_glb(hierarchy)
        with pytest.raises(ConfigurationError):
            diamond.extension("nope")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(parents=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3),
                            min_size=1, max_size=10))
    def test_extension_masks_meet_exactly_when_a_glb_exists_generated(self, parents):
        """The same over generated hierarchies: type ``t<i>`` has parents
        among ``t0`` (the top) to ``t<i-1>``."""
        declarations = [("t0", (), ())]
        for i, ps in enumerate(parents, 1):
            declarations.append((f"t{i}", tuple(sorted({f"t{p % i}" for p in ps})), ()))
        try:
            hierarchy = TypeHierarchy(declarations)
        except HierarchyError:
            assume(False)
        _assert_masks_match_glb(hierarchy)


def _assert_masks_match_glb(hierarchy: TypeHierarchy) -> None:
    for a in hierarchy.types:
        for b in hierarchy.types:
            meet = hierarchy.extension(a) & hierarchy.extension(b)
            assert bool(meet) == (hierarchy.glb(a, b) is not None), (a, b)


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

    def test_append_with_two_unknown_parts_is_rejected(self, diamond):
        # undecidable split: conservative failure, constraint solving is out of scope
        lhs = read_fs("(b (H (append (openlist) (openlist))))", diamond, check=False)
        rhs = read_fs("(b (H (list x y)))", diamond)
        assert unify(lhs, rhs, diamond) is None


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
