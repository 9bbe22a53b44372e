import hashlib
import re

import pytest

from test_lexicon import EMPTY_FORMS, ENTRIES_LACKING_HEAD_OR_COMPS, UNREPRESENTABLE_ENTRIES
from vorfeld.avm import read_fs
from vorfeld.cli import (
    format_report,
    machine_report,
    main,
    parse_corpus_line,
    run_corpus,
    tokenize_sentence,
)
from vorfeld.lexicon import corpus_text, fragment_text
from vorfeld.tfs import fs_equal

# SHA-256 of `vorfeld parse --print-avm --print-derivation --sentence S` for
# each bundled corpus line, recorded before chart signs stopped carrying
# DTRS: the rebuilt AVMs and the printed trees must stay byte-identical.
PRINTED_DIGESTS = {
    "Erzählen wird er seiner Tochter ein Märchen.":
        "d6fdef5576a1bf02792cbca87a91bd28516a7ab2c095d2431cfcf66b1dcba891",
    "Erzählen müssen wird er seiner Tochter ein Märchen.":
        "8073b9ac27383da43dc19b9d921ac25a24efc3b4575977887600393356251ed9",
    "Er wird seiner Tochter ein Märchen erzählen müssen.":
        "e08b2cfc40b7c769e062065766490c708392383f2bfa6113488dba38aa84d0dc",
    "Seiner Tochter ein Märchen erzählen wird er.":
        "40718cf17183dd3590682c26f55f3bb6a8e0f8cef9aec4d39e26f43686dcf1a5",
    "Ein Märchen erzählen wird er seiner Tochter.":
        "4750bb3a9c4516a8b0f28dcc9db07cb2b1343d7056b1c807ed175863019c0d64",
    "Ein Märchen erzählen wird er seiner Tochter müssen.":
        "2854a78bf1069f1ff878dbf778f9515d3375d1e0f3f2c290dc91c7ce78b0ba10",
    "Seiner Tochter erzählen wird er das Märchen.":
        "edd7966d6f95d2ceff370d9d40b554898ed0d0532245ee0224a124b3b669c6cb",
    "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer.":
        "71b710ffa6f85c99c0f1d0d56e056541f660a6a678779e3971e4ee1dc2e8d8f6",
    "Müssen wird er ihr ein Märchen erzählen.":
        "2c295f9f69f72830a4635a68a1893e6779abde2bf9cf415a6ec63dd981c1e3c3",
    "weil er ihr ein Märchen erzählen müssen wird.":
        "5a212ea8cea195b838f858675b159bc00b032144f25e982b1d13255568bd0894",
    "weil er ihm ein Märchen erzählen lassen hat.":
        "3f8ae311907176f83be22890707588bb6a0c7ff7611ac8b74380dd8c950ff6dd",
    "Vortragen wird er es morgen.":
        "0bb01a479ca121d3aaa70d8099f8ee8fdd010c4d5a457a1a29f88c64d9384271",
}

# The same digests for three one-adjunct insertions (perfbench/adjunct_pins.json),
# recorded before the printer became linear: their readings are the deepest
# and most numerous AVMs the fragment prints.
ADJUNCT_PRINTED_DIGESTS = {
    "Erzählen müssen wird er seiner Tochter ein Märchen mit diesem Messer":  # 18 readings
        "cb6bf705af486ba6b5eefc810f9956a55203cfb58c9af0ebc998c6382155b0f1",
    "Ein Märchen erzählen wird er seiner Tochter morgen müssen":  # 14 readings
        "7f227c2e4088f0650e8729c588f426cbbb7d692af160abb408098aba0bd9b2e8",
    "Erzählen müssen mit diesem Messer wird er seiner Tochter ein Märchen":  # 9 readings
        "c7cffdae71a9e118ede882cadca8a874e582cd62a69b8c10ecfbed20490c24ef",
}


# malformed forms, each appended to the bundled fragment, and the load error
# (``{line}`` is the form's line; a hierarchy error names its declaration's)
MALFORMED_FORMS = {
    "def-without-value": ("(def x)", "line {line}: def takes a name and one expression"),
    "template-defined-twice": ("(def np-nom np-acc)", "line {line}: template 'np-nom' defined twice"),
    "template-shadowing-a-type": ("(def top np-acc)", "line {line}: template 'top' shadows a type"),
    "stem-without-finite-form": ('(stem "a" np-nom-sign)',
                                 'line {line}: stem takes "PHON" "FINITE" and one expression'),
    "stem-with-symbol-phon": ('(stem foo "x" np-nom-sign)',
                              'line {line}: stem takes "PHON" "FINITE" and one expression'),
    "unknown-form": ("(foo 1)", "line {line}: unknown form 'foo'"),
    "string-parent": ('(type zz ("top"))', "line {line}: parents of 'zz' must be symbols"),
    "bare-parent": ("(type zz top)", "line {line}: type takes a name, a parent list and features"),
    "type-declared-twice": ("(type verb (top))", "line {line}: type 'verb' declared twice"),
    "unknown-parent": ("(type zz (nosuch))", "line {line}: type 'zz' has unknown parent 'nosuch'"),
    "own-parent": ("(type zz (zz))", "line {line}: cycle in hierarchy through 'zz'"),
    "comps-not-a-list": ('(word "zz" (lexical-sign (SYNSEM (synsem (LOC (local (CAT (cat (COMPS top)))))))))',
                         "line {line}: feature 'COMPS' requires a list value"),
    "slash-not-a-set": ('(word "zz" (lexical-sign (SYNSEM (synsem '
                        '(NONLOC (nonlocal (INHER (inherited (SLASH (list))))))))))',
                        "line {line}: feature 'SLASH' requires a set value"),
    "synsem-a-list": ('(word "zz" (lexical-sign (SYNSEM (list))))',
                      "line {line}: feature 'SYNSEM' requires a value of type 'synsem', got 'closed'"),
    "string-as-value": ('(word "zz" "x")', "line {line}: string literal where a value was expected"),
    "value-headed-by-a-list": ('(word "zz" ((a) b))', "line {line}: value must start with a symbol"),
}

# malformed corpus lines and their error
MALFORMED_CORPUS_LINES = {
    "non-numeric-count": ("OK=x\tEr wird.", "bad verdict 'OK=x'"),
    "empty-count": ("OK=\tEr wird.", "bad verdict 'OK='"),
    "zero-count": ("OK=0\tEr wird.", "OK=n requires n >= 1"),
    "empty-sentence": ("OK\t.", "empty sentence"),
}


class TestTokenizer:
    def test_strips_final_punctuation(self):
        assert tokenize_sentence("Erzählen wird er seiner Tochter ein Märchen.") == [
            "Erzählen", "wird", "er", "seiner", "Tochter", "ein", "Märchen"]

    def test_strips_leading_comma(self):
        assert tokenize_sentence(", weil er ihr ein Märchen erzählen müssen wird.")[0] == "weil"

    def test_keeps_capitalization(self):
        assert tokenize_sentence("Müssen wird er.")[0] == "Müssen"

    def test_empty(self):
        assert tokenize_sentence("  . ") == []


class TestCorpusLineParsing:
    def test_blank_and_comment_skipped(self):
        assert parse_corpus_line(1, "") is None
        assert parse_corpus_line(2, "# comment") is None

    def test_verdicts(self):
        line = parse_corpus_line(3, "OK=2\tEr wird.")
        assert line.verdict == "OK=2" and line.expected == 2

    def test_malformed_verdict(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_corpus_line(4, "FINE\tEr wird.")

    def test_missing_tab(self):
        with pytest.raises(ValueError, match="line 5"):
            parse_corpus_line(5, "OK Er wird.")


class TestCmdParse:
    def test_grammatical_sentence_exits_zero(self, capsys):
        rc = main(["parse", "--sentence", "Erzählen wird er seiner Tochter ein Märchen"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"readings: [1-9]", out)

    def test_starred_sentence_exits_one(self, capsys):
        rc = main(["parse", "--sentence", "Müssen wird er ihr ein Märchen erzählen"])
        assert rc == 1
        assert "readings: 0" in capsys.readouterr().out

    def test_empty_sentence_exits_two(self, capsys):
        rc = main(["parse", "--sentence", ""])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_word_exits_two(self, capsys):
        rc = main(["parse", "--sentence", "Hans schläft"])
        assert rc == 2
        assert "Hans" in capsys.readouterr().err

    def test_missing_lexicon_file_exits_two(self, capsys):
        rc = main(["parse", "--lexicon", "/nonexistent.lex", "--sentence", "Er wird"])
        assert rc == 2

    def test_deeply_nested_lexicon_value_exits_two(self, capsys, tmp_path):
        deep = "(list " * 3000 + ")" * 3000
        text = fragment_text().replace("(CASE nom))) (COMPS (list))", f"(CASE nom))) (COMPS {deep})", 1)
        path = tmp_path / "deep.lex"
        path.write_text(text, encoding="utf-8")
        rc = main(["parse", "--lexicon", str(path), "--sentence", "er"])
        assert rc == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_printed_avm_reads_back(self, capsys, fragment):
        rc = main(["parse", "--sentence", "Seiner Tochter ein Märchen erzählen wird er",
                   "--print-avm"])
        assert rc == 0
        out = capsys.readouterr().out
        avm_text = out.split("-- avm 1\n", 1)[1]
        fs = read_fs(avm_text, fragment.hierarchy)
        assert fs_equal(read_fs(avm_text, fragment.hierarchy), fs)
        assert fs.nodes[fs.root].type == "phrasal-sign"

    def test_derivation_printing_shows_fields(self, capsys):
        rc = main(["parse", "--sentence", "Vortragen wird er es morgen",
                   "--print-derivation"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VF" in out and "LB" in out and "pvp-slash-intro" in out

    def test_printed_output_is_pinned(self, capsys):
        for sentence, digest in PRINTED_DIGESTS.items():
            main(["parse", "--print-avm", "--print-derivation", "--sentence", sentence])
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, sentence

    @pytest.mark.parametrize("sentence", list(ADJUNCT_PRINTED_DIGESTS))
    def test_adjunct_printed_output_is_pinned(self, capsys, sentence):
        main(["parse", "--print-avm", "--print-derivation", "--sentence", sentence])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ADJUNCT_PRINTED_DIGESTS[sentence]

    def test_bare_parse_renders_no_avm(self, capsys, monkeypatch):
        from vorfeld import parser
        calls = []
        for name in ("print_fs", "replay"):
            def counted(*args, _name=name, _original=getattr(parser, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(parser, name, counted)
        sentence = "Vortragen wird er es morgen"
        assert main(["parse", "--sentence", sentence]) == 0
        assert main(["parse", "--sentence", sentence, "--print-derivation"]) == 0
        assert calls == []
        assert main(["parse", "--sentence", sentence, "--print-avm"]) == 0
        # each reading is printed from its replay (parser.enumerate_readings)
        assert calls.count("print_fs") == calls.count("replay") == 10
        capsys.readouterr()

    def test_trace_mode_reports_the_edge_limit(self, capsys):
        """The transcript of README.md's "Trace mode" section."""
        argv = ["parse", "--sentence", "Erzählen wird er seiner Tochter ein Märchen",
                "--mode", "trace", "--edge-limit", "10000"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "readings: 0\n"
            "edge limit 10000 exceeded in trace mode (10000 edges built)\n")

    def test_bad_flag_exits_two(self, capsys):
        assert main(["parse", "--sentence", "Er wird", "--mode", "psychic"]) == 2

    def test_nonpositive_edge_limit_exits_two(self, capsys):
        for limit in ("0", "-3"):
            assert main(["parse", "--sentence", "Er wird", "--edge-limit", limit]) == 2
            assert capsys.readouterr().err == "error: edge_limit must be positive\n"

    def test_non_utf8_lexicon_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.lex"
        path.write_bytes(b"\xff(type top ())\n")
        for command in (["parse", "--sentence", "Er wird"], ["corpus"]):
            assert main(command + ["--lexicon", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "latin1.lex: not UTF-8" in err

    def test_a_deep_chain_of_subtypes_loads(self, capsys, tmp_path):
        """1,500 subtypes declared child first, once a recursion error."""
        chain = "\n".join(f"(type d{i} (d{i - 1}))" for i in range(1500, 1, -1))
        path = tmp_path / "deep.lex"
        path.write_text(f"{chain}\n(type d1 (top))\n{fragment_text()}", encoding="utf-8")
        rc = main(["parse", "--lexicon", str(path), "--sentence", "Vortragen wird er es morgen"])
        assert (rc, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("declarations", [
        "(type lsta (top) (LF *list*)) (type lstb (lsta) (LF top))",
        "(type lsta (top) (LF *list*)) (type lstb (lsta) (LF *set*))",
        "(type lsta (top) (LF top)) (type lstb (lsta) (LF *list*))",
        "(type odd (top) (ODD nosuchtype))",
    ])
    def test_an_ill_declared_value_type_exits_two(self, capsys, tmp_path, declarations):
        """A value type is a declared type, *list* or *set*, and a
        redeclaration keeps its kind: anything else is a load error."""
        path = tmp_path / "values.lex"
        path.write_text(f"{fragment_text()}\n{declarations}\n", encoding="utf-8")
        rc = main(["parse", "--lexicon", str(path), "--sentence", "Vortragen wird er es morgen"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "value type" in err

    def test_bom_prefixed_lexicon_loads(self, capsys, tmp_path):
        """A UTF-8 file may start with a byte-order mark, as some editors write it."""
        path = tmp_path / "bom.lex"
        path.write_text(fragment_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        rc = main(["parse", "--lexicon", str(path), "--sentence",
                   "Erzählen wird er seiner Tochter ein Märchen"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert re.search(r"readings: [1-9]", captured.out)


    @pytest.mark.parametrize("text, missing", [
        ('(type top ()) (type a (top)) (word "x" (a))', "fin"),
        ("\n".join(line for line in fragment_text().splitlines()
                   if not line.startswith("(type phrasal-sign ")), "phrasal-sign"),
    ], ids=["bare-hierarchy", "fragment-without-phrasal-sign"])
    def test_hierarchy_lacking_grammar_types_exits_two(self, capsys, tmp_path, text, missing):
        """The hierarchy is checked against the types the grammar builds at
        load time, not when a parse first builds one."""
        path = tmp_path / "partial.lex"
        path.write_text(text, encoding="utf-8")
        sentence = "Er wird seiner Tochter ein Märchen erzählen müssen"
        assert main(["parse", "--sentence", sentence, "--lexicon", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not declare" in err
        assert missing in err.strip().split("declare: ")[1].split(", ")

    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_ENTRIES))
    def test_unrepresentable_entry_exits_two(self, capsys, tmp_path, name):
        path = tmp_path / "entry.lex"
        path.write_text(UNREPRESENTABLE_ENTRIES[name][0], encoding="utf-8")
        assert main(["parse", "--sentence", "er", "--lexicon", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "entry must be lexical-sign[SYNSEM]" in err

    @pytest.mark.parametrize("name", sorted(ENTRIES_LACKING_HEAD_OR_COMPS))
    def test_entry_lacking_head_or_comps_exits_two(self, capsys, tmp_path, name):
        text, sentence, message = ENTRIES_LACKING_HEAD_OR_COMPS[name]
        path = tmp_path / "entry.lex"
        path.write_text(text, encoding="utf-8")
        assert main(["parse", "--sentence", sentence, "--lexicon", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_FORMS))
    def test_malformed_form_exits_two(self, capsys, tmp_path, name):
        form, message = MALFORMED_FORMS[name]
        text = fragment_text().rstrip("\n") + "\n" + form + "\n"
        path = tmp_path / "form.lex"
        path.write_text(text, encoding="utf-8")
        assert main(["parse", "--sentence", "er", "--lexicon", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(line=text.count(chr(10)))}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(EMPTY_FORMS))
    def test_empty_phon_or_finite_form_exits_two(self, capsys, tmp_path, name):
        text, message = EMPTY_FORMS[name]
        path = tmp_path / "entry.lex"
        path.write_text(text, encoding="utf-8")
        assert main(["parse", "--sentence", "er", "--lexicon", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCmdCorpus:
    def test_bundled_corpus_passes(self, capsys):
        rc = main(["corpus"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "12/12 lines pass" in out

    def test_flipped_verdict_pinpoints_the_line(self, fragment, capsys, tmp_path):
        flipped = corpus_text().replace(
            "BAD\tMüssen wird er ihr ein Märchen erzählen.",
            "OK\tMüssen wird er ihr ein Märchen erzählen.")
        path = tmp_path / "corpus.tsv"
        path.write_text(flipped, encoding="utf-8")
        rc = main(["corpus", "--corpus", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        fail_lines = [l for l in out.splitlines() if "FAIL" in l]
        assert len(fail_lines) == 1
        assert "Müssen wird er" in fail_lines[0]

    def test_lexical_gap_counts_as_failure(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("OK\tHans schläft.\nOK\tEr wird seiner Tochter ein Märchen erzählen müssen.\n",
                        encoding="utf-8")
        rc = main(["corpus", "--corpus", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "gap" in out
        assert "1/2 lines pass" in out

    def test_malformed_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("OK\tEr wird seiner Tochter ein Märchen erzählen müssen.\nWAT\tfoo.\n",
                        encoding="utf-8")
        rc = main(["corpus", "--corpus", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_CORPUS_LINES))
    def test_malformed_verdict_or_sentence_exits_two(self, tmp_path, capsys, name):
        line, message = MALFORMED_CORPUS_LINES[name]
        path = tmp_path / "corpus.tsv"
        path.write_text(f"# a comment\n{line}\n", encoding="utf-8")
        assert main(["corpus", "--corpus", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: corpus line 2: {message}\n"
        assert "Traceback" not in captured.out + captured.err

    def test_nonpositive_edge_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("# no records\n", encoding="utf-8")
        for corpus in ([], ["--corpus", str(path)]):
            assert main(["corpus", "--edge-limit", "0"] + corpus) == 2
            assert capsys.readouterr().err == "error: edge_limit must be positive\n"

    def test_non_utf8_corpus_exits_two(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"OK\tEr wird seiner Tochter ein M\xe4rchen erz\xe4hlen m\xfcssen.\n")
        assert main(["corpus", "--corpus", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "corpus.tsv: not UTF-8" in captured.err

    def test_bom_prefixed_corpus_passes(self, tmp_path, capsys):
        path = tmp_path / "bom.tsv"
        path.write_text(corpus_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["corpus", "--corpus", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "12/12 lines pass" in captured.out

    def test_unwritable_report_path_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("BAD\tMüssen wird er ihr ein Märchen erzählen.\n", encoding="utf-8")
        out_path = tmp_path / "missing" / "report.tsv"
        assert main(["corpus", "--corpus", str(corpus), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.tsv" in err
        assert not out_path.exists()

    def test_machine_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.tsv"
        rc = main(["corpus", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[-1] == "total=passed 12 of 12"
        first = dict(kv.split("=", 1) for kv in lines[0].split("\t"))
        assert first["status"] == "pass"
        assert first["verdict"] == "OK"
        assert "time_ms" in first
        assert [kv.split("=", 1)[0] for kv in lines[0].split("\t")] == [
            "line", "status", "verdict", "expected", "got", "limit_hit", "time_ms", "sentence"]
        assert {line.split("\t")[5] for line in lines[:-1]} == {"limit_hit=0"}

    def test_a_line_cut_off_by_the_edge_limit_fails(self, tmp_path, capsys):
        """Line 13 is ``BAD`` and builds 54 edges in full: stopped at 20 it
        has no reading, which is not the verdict's "no reading", so it
        fails, and both reports say that the limit stopped it."""
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("BAD\tMüssen wird er ihr ein Märchen erzählen.\n", encoding="utf-8")
        out_path = tmp_path / "report.tsv"
        assert main(["corpus", "--corpus", str(corpus), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert "limit_hit=0" in out_path.read_text(encoding="utf-8")
        rc = main(["corpus", "--corpus", str(corpus), "--out", str(out_path),
                   "--edge-limit", "20"])
        table = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert table[1].split()[:5] == ["1", "FAIL", "BAD", "0", "limit"]
        assert table[-1] == "0/1 lines pass"
        record = dict(kv.split("=", 1) for kv in
                      out_path.read_text(encoding="utf-8").splitlines()[0].split("\t"))
        assert (record["status"], record["got"], record["limit_hit"]) == ("fail", "0", "1")


class TestReportDeterminism:
    def test_byte_identical_modulo_timing(self, fragment):
        self.check(fragment, 50000)

    def test_byte_identical_when_the_limit_stops_every_line(self, fragment):
        self.check(fragment, 20)

    @staticmethod
    def check(fragment, edge_limit):
        first = run_corpus(fragment, corpus_text(), edge_limit)
        second = run_corpus(fragment, corpus_text(), edge_limit)
        assert [o.limit_hit for o in first.outcomes] == [edge_limit == 20] * 12

        def normalize(report_text):
            return re.sub(r"time_ms=[0-9.]+", "time_ms=_", report_text)

        assert normalize(machine_report(first)) == normalize(machine_report(second))

        def normalize_table(text):
            return [re.sub(r"\s+[0-9]+\.[0-9]\s\s", " _ ", line)
                    for line in text.splitlines()]

        assert normalize_table(format_report(first)) == normalize_table(format_report(second))
