import pytest

from vorfeld.avm import MAX_DEPTH, AvmSyntaxError, print_fs, read_fs
from vorfeld.sexpr import SexprError, parse_all
from vorfeld.tfs import AVM, CLOSED, FeatureStructure, Node, fs_equal


class TestReader:
    def test_bare_atom_equals_featureless_node(self, diamond):
        assert fs_equal(read_fs("x", diamond), read_fs("(x)", diamond))

    def test_list_kinds(self, diamond):
        fs = read_fs("(b (H (openlist x y)))", diamond)
        node = fs.nodes[fs.resolve(("H",))]
        assert node.kind == "open" and len(node.elems) == 2

    def test_set_arity_checked(self, diamond):
        with pytest.raises(AvmSyntaxError):
            read_fs("(b (S (set x y)))", diamond)

    def test_unknown_type_reports_line(self, diamond):
        with pytest.raises(AvmSyntaxError, match="line 2"):
            read_fs("(a\n  (F unknown-type))", diamond)

    def test_inappropriate_feature_rejected(self, diamond):
        with pytest.raises(AvmSyntaxError, match="not appropriate"):
            read_fs("(x (F y))", diamond)

    def test_duplicate_feature_rejected(self, diamond):
        with pytest.raises(AvmSyntaxError, match="duplicate"):
            read_fs("(a (F x) (F y))", diamond)

    def test_forward_reference_rejected(self, diamond):
        with pytest.raises(AvmSyntaxError, match="precedes"):
            read_fs("(a (F #1#) (G #1=x))", diamond)

    def test_dangling_tag_rejected(self, diamond):
        with pytest.raises(AvmSyntaxError, match="dangling"):
            read_fs("(b (H (list #1=)))", diamond)

    def test_nesting_depth_is_capped_with_a_position(self, diamond):
        def nested(depth):
            return "(list " * depth + ")" * depth

        assert read_fs(nested(MAX_DEPTH), diamond).nodes[0].kind == "closed"
        with pytest.raises(AvmSyntaxError, match=f"line 1, column {6 * MAX_DEPTH + 1}: .*deeper"):
            read_fs(nested(MAX_DEPTH + 1), diamond)
        with pytest.raises(AvmSyntaxError, match="deeper"):
            read_fs(nested(3000), diamond)

    def test_unbalanced_parens(self):
        with pytest.raises(SexprError, match="unclosed"):
            parse_all("(a (F x)")

    def test_sexpr_errors_are_avm_syntax_errors_with_a_position(self, diamond):
        for text, where in (('(a (F "x))', "line 1, column 7: unterminated"),
                            ("(a (F x)", "line 1, column 1: unclosed"),
                            ("(a)\n  (F x))", "line 2, column 8: unbalanced")):
            with pytest.raises(AvmSyntaxError, match=where):
                read_fs(text, diamond)

    def test_a_tag_is_defined_where_it_first_appears_in_the_text(self, diamond):
        """G sorts after F, but its value comes first in the text."""
        fs = read_fs("(a (G #1=x) (F #1#))", diamond)
        assert fs.resolve(("F",)) == fs.resolve(("G",))

    @pytest.mark.parametrize("text, expected", [
        ("(append (list top) (list))", "(list top)"),
        ("(b (H (append (list x) (append (list) (list y z)))))", "(b (H (list x y z)))"),
    ])
    def test_an_append_of_closed_lists_reads_as_that_list(self, diamond, text, expected):
        assert print_fs(read_fs(text, diamond), indent=False) == expected

    def test_templates_expand_to_fresh_copies(self, diamond):
        shared = read_fs("(a (F #1=(b)) (G #1#))", diamond)
        fs = read_fs("(b (H (list tpl tpl)))", diamond, templates={"tpl": shared})
        first, second = fs.nodes[fs.resolve(("H",))].elems
        assert first != second, "template uses must not alias each other"


class TestPrinter:
    def test_deterministic(self, diamond):
        fs = read_fs("(a (F #1=(b (H (list x)))) (G #1#))", diamond)
        assert print_fs(fs) == print_fs(fs)

    def test_tags_only_for_shared_nodes(self, diamond):
        plain = read_fs("(a (F x) (G y))", diamond)
        assert "#" not in print_fs(plain)
        shared = read_fs("(a (F #1=x) (G #1#))", diamond)
        assert "#1=" in print_fs(shared) and "#1#" in print_fs(shared)

    def test_round_trip_with_sharing_and_lists(self, diamond):
        texts = [
            "(a (F #1=(b (H (list x #2=(a (F y)) #2#)))) (G (b (S (set #1#)))))",
            "(b (H (openlist)))",
            "(b (S (set)))",
            "x",
        ]
        for text in texts:
            fs = read_fs(text, diamond, check=False)
            assert fs_equal(read_fs(print_fs(fs), diamond, check=False), fs)


    def test_prints_a_structure_nested_beyond_the_recursion_limit(self):
        """Neither the renderer nor the writer recurses: 5,000 nested lists,
        built as nodes since the reader caps nesting at MAX_DEPTH, print
        flat and indented."""
        depth = 5000
        nodes = [Node(AVM, "b", (("H", 1),))]
        nodes += [Node(CLOSED, "", (), (i + 1,)) for i in range(1, depth + 1)]
        nodes.append(Node(AVM, "x"))
        fs = FeatureStructure(tuple(nodes))
        assert print_fs(fs, indent=False) == "(b (H " + "(list " * depth + "x" + ")" * (depth + 2)
        lines = print_fs(fs).split("\n")
        assert lines[:3] == ["(b", "  (H", "    (list"]
        assert len(lines) == depth + 3
        assert lines[-1] == " " * (2 * depth + 4) + "x" + ")" * (depth + 2)


class TestFragmentRoundTrip:
    def test_every_entry_round_trips(self, fragment):
        for entry in fragment.entries:
            printed = print_fs(entry.fs)
            back = read_fs(printed, fragment.hierarchy)
            assert fs_equal(back, entry.fs), f"round trip failed for {entry.phon}"

    def test_every_template_round_trips(self, fragment):
        for name, fs in fragment.templates.items():
            back = read_fs(print_fs(fs), fragment.hierarchy, check=False)
            assert fs_equal(back, fs), f"round trip failed for template {name}"
