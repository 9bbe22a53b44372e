import dataclasses
import hashlib
import random

import pytest

from conftest import corpus_sentences
from oracle import closure
from vorfeld import cli, grammar, orderdomain, parser
from vorfeld.avm import print_fs
from vorfeld.grammar import (
    P_SYNSEM,
    SCHEMA_FILLER_HEAD,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    SCHEMATA,
    SchemaMemo,
    TYPE_LEXICAL,
    TYPE_PHRASAL,
    check_comps_closed,
)
from vorfeld.cli import run_corpus
from vorfeld.lexicon import corpus_text, load_lexicon
from vorfeld.parser import (
    Derivation,
    Edge,
    LexicalGapError,
    ParseOptions,
    demonstrate_trace_mode,
    enumerate_readings,
    is_reading,
    parse,
    replay,
)
from vorfeld.tfs import CLOSED, Workspace, fs_equal, path_get

S_1A = "Erzählen wird er seiner Tochter ein Märchen"
S_2 = "Er wird seiner Tochter ein Märchen erzählen müssen"
S_5A = "Müssen wird er ihr ein Märchen erzählen"
S_7B = "Vortragen wird er es morgen"

STRUCTURE_TYPES = {
    SCHEMA_HEAD_COMPLEMENT: "head-complement-structure",
    SCHEMA_HEAD_ADJUNCT: "head-adjunct-structure",
    SCHEMA_VERB_CLUSTER: "head-cluster-structure",
    SCHEMA_SLASH_INTRO: "complement-slash-licencing-structure",
    SCHEMA_FILLER_HEAD: "filler-head-structure",
}

# Reading counts are implementation-measured regression values: the corpus
# only fixes >=1 / =1 / =0, but the exact derivation counts (licenser
# choices, adjunct attachment sites) should not drift silently.
PINNED_READINGS = {
    S_1A: 3,
    "Erzählen müssen wird er seiner Tochter ein Märchen": 3,
    S_2: 1,
    "Seiner Tochter ein Märchen erzählen wird er": 1,
    "Ein Märchen erzählen wird er seiner Tochter": 2,
    "Ein Märchen erzählen wird er seiner Tochter müssen": 2,
    "Seiner Tochter erzählen wird er das Märchen": 1,
    "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer": 5,
    S_5A: 0,
    "weil er ihr ein Märchen erzählen müssen wird": 1,
    "weil er ihm ein Märchen erzählen lassen hat": 1,
    S_7B: 10,
}


class TestParse:
    def test_fronted_verb_goes_through_the_licensing_schema(self, fragment):
        result = parse(S_1A.split(), fragment)
        assert result.readings >= 1
        intro_edges = [
            e
            for d in result.derivations
            for e in d.edges()
            if e.schema == SCHEMA_SLASH_INTRO
        ]
        assert intro_edges
        licensers = {e.daughters[1].sign.dom.phon() for e in intro_edges}
        assert ("Erzählen",) in licensers

    def test_starred_cluster_split_has_no_reading(self, fragment):
        assert parse(S_5A.split(), fragment).readings == 0

    def test_mittelfeld_is_unambiguous(self, fragment):
        assert parse(S_2.split(), fragment).readings == 1

    def test_pinned_reading_counts(self, fragment):
        got = {s: parse(s.split(), fragment).readings for s in PINNED_READINGS}
        assert got == PINNED_READINGS

    def test_adjunct_attaches_to_licenser_and_to_clause(self, fragment):
        """Both attachment sites for the Mittelfeld adverb survive."""
        result = parse(S_7B.split(), fragment)
        fillers = set()
        for d in result.derivations:
            for e in d.edges():
                if e.schema == SCHEMA_FILLER_HEAD:
                    fillers.add(e.daughters[0].sign.dom.phon())
        assert ("Vortragen",) in fillers  # adverb inside the clause
        assert ("Vortragen", "morgen") in fillers  # adverb inside the fronted part

    def test_empty_input_rejected(self, fragment):
        with pytest.raises(ValueError):
            parse([], fragment)

    def test_lexical_gap_names_the_tokens(self, fragment):
        with pytest.raises(LexicalGapError) as exc:
            parse("Hans wird er".split(), fragment)
        assert "Hans" in str(exc.value)

    def test_clause_type_detection(self, fragment):
        assert parse(S_1A.split(), fragment).clause_type == "v2"
        weil = "weil er ihr ein Märchen erzählen müssen wird"
        assert parse(weil.split(), fragment).clause_type == "vfinal"

    def test_auto_reads_the_clause_type_off_the_first_signs(self):
        """Any complementizer, not one word, starts a verb-final clause: a
        copy of *weil*'s entry as *dass* parses under ``auto`` as under
        ``vfinal``."""
        text = _fragment_source()
        weil = text[text.index('(word "weil"'):].split("\n\n")[0]
        lexicon = load_lexicon(text + "\n" + weil.replace('"weil"', '"dass"') + "\n")
        result = parse("dass er ihr ein Märchen erzählen müssen wird".split(), lexicon)
        assert (result.clause_type, result.readings) == ("vfinal", 1)

    def test_forcing_the_wrong_clause_type_kills_the_parse(self, fragment):
        result = parse(S_2.split(), fragment, ParseOptions(clause_type="vfinal"))
        assert result.readings == 0

    def test_a_fragment_without_comp_parses_no_verb_final_clause(self, fragment):
        """``comp`` is an optional type: a fragment that does not declare it
        loads, ``auto`` then reads every clause as verb-second, and no
        verb-final clause parses, even under ``vfinal``; verb-second clauses
        keep their readings."""
        text = _fragment_source()
        weil = text[text.index('(word "weil"'):].split("\n\n")[0]
        assert "(type comp (head))" in text and "HEAD comp" in weil
        lexicon = load_lexicon(text.replace(weil, "").replace("(type comp (head))", ""))
        assert "comp" not in lexicon.hierarchy
        clause = "er ihr ein Märchen erzählen müssen wird".split()
        assert parse(clause, lexicon).clause_type == "v2"
        for clause_type in ("auto", "v2", "vfinal"):
            assert parse(clause, lexicon, ParseOptions(clause_type=clause_type)).readings == 0
        assert parse(["weil"] + clause, fragment).readings == 1
        with pytest.raises(LexicalGapError):
            parse(["weil"] + clause, lexicon)
        for sentence in (S_1A, S_2, S_7B):
            assert parse(sentence.split(), lexicon).readings == PINNED_READINGS[sentence]


class TestChartInvariants:
    def test_coverage_conservation(self, fragment):
        """Every edge's coverage is the disjoint union of its daughters',
        except slash introduction, which excludes the licenser."""
        for sentence in PINNED_READINGS:
            result = parse(sentence.split(), fragment)
            for e in result.edges:
                if not e.daughters:
                    continue
                union = 0
                for d in e.daughters:
                    assert union & d.coverage == 0
                    union |= d.coverage
                if e.schema == SCHEMA_SLASH_INTRO:
                    assert e.coverage == e.daughters[0].coverage
                    assert e.daughters[1].coverage != 0
                    assert e.coverage != union
                else:
                    assert e.coverage == union

    def test_coverage_matches_domain(self, fragment, trace_chart):
        """An edge covers what its sign's domain covers, slash introduction
        included: its domain alone leaves the licenser out."""
        charts = [parse(s.split(), fragment).edges for s in PINNED_READINGS]
        for edges in charts + [trace_chart.edges]:
            for e in edges:
                assert e.coverage == e.sign.dom.coverage

    def test_full_coverage_spells_the_input(self, fragment, trace_chart):
        """A sign of full coverage has the input as its phonology, so the
        root filter need not compare the two: every element holds the
        tokens at its own positions, in position order."""
        charts = [(tuple(tokens), parse(tokens, fragment).edges) for tokens in corpus_sentences()]
        charts.append((tuple(S_1A.split()), trace_chart.edges))
        checked = 0
        for tokens, edges in charts:
            full = orderdomain.mask_span(0, len(tokens))
            for sign in {e.sign for e in edges if e.coverage == full}:
                assert sign.dom.phon() == tokens
                checked += 1
        assert checked

    def test_licensing_mode_keeps_valence_determinate(self, fragment):
        for sentence in PINNED_READINGS:
            result = parse(sentence.split(), fragment)
            assert result.open_comps_rejected == 0
            for e in result.edges:
                assert check_comps_closed(e.sign)
                # The chart sign has no DTRS; its rebuild checks the daughters.
                assert check_comps_closed(Derivation(e).sign)

    def test_filler_identity_matches_licenser(self, fragment):
        for sentence in PINNED_READINGS:
            result = parse(sentence.split(), fragment)
            for e in result.edges:
                if e.schema == SCHEMA_FILLER_HEAD:
                    filler, head = e.daughters
                    assert head.licenser_id == filler.id

    def test_edge_counts_pinned(self, fragment):
        """Termination regression: measured chart sizes per corpus line."""
        sizes = {s: len(parse(s.split(), fragment).edges) for s in PINNED_READINGS}
        assert sizes == PINNED_EDGES

    def test_determinism(self, fragment):
        for sentence in (S_1A, S_7B):
            first = parse(sentence.split(), fragment)
            second = parse(sentence.split(), fragment)
            assert [d.canonical_key() for d in first.derivations] == [
                d.canonical_key() for d in second.derivations
            ]
            assert len(first.edges) == len(second.edges)


PINNED_EDGES = {
    S_1A: 35,
    "Erzählen müssen wird er seiner Tochter ein Märchen": 95,
    S_2: 80,
    "Seiner Tochter ein Märchen erzählen wird er": 35,
    "Ein Märchen erzählen wird er seiner Tochter": 35,
    "Ein Märchen erzählen wird er seiner Tochter müssen": 64,
    "Seiner Tochter erzählen wird er das Märchen": 35,
    "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer": 69,
    S_5A: 54,
    "weil er ihr ein Märchen erzählen müssen wird": 76,
    "weil er ihm ein Märchen erzählen lassen hat": 83,
    S_7B: 69,
}


class TestSoundness:
    def test_replay_reproduces_every_root(self, fragment):
        for sentence, expected in PINNED_READINGS.items():
            result = parse(sentence.split(), fragment)
            assert result.readings == expected
            for derivation in result.derivations:
                again, chart = replay(derivation), derivation.root.sign
                assert again is not None
                assert again.fs.has_path(("DTRS",))
                assert fs_equal(path_get(again.fs, P_SYNSEM), chart.fs)
                assert again.dom == chart.dom
                # Chart signs carry no DTRS, so the licensing-mode check
                # covers the daughters only on the rebuilt sign.
                assert check_comps_closed(again)
                # Domains compare categories, not synsems: each internal
                # edge's synsem is held to its own rebuild directly.
                for edge in derivation.edges():
                    if edge.daughters:
                        sign = replay(Derivation(edge))
                        assert fs_equal(path_get(sign.fs, P_SYNSEM), edge.sign.fs)
                        assert sign.dom == edge.sign.dom

    def test_swapped_daughters_do_not_replay(self, fragment):
        """A head-complement edge with its daughters swapped is no
        derivation: the rebuild refuses it, and reading its sign raises."""
        result = parse(S_2.split(), fragment)
        edge = next(e for e in result.edges if e.schema == SCHEMA_HEAD_COMPLEMENT)
        swapped = Derivation(dataclasses.replace(edge, daughters=edge.daughters[::-1]))
        assert replay(swapped) is None
        with pytest.raises(RuntimeError, match="does not replay"):
            swapped.sign

    def test_linearization_reproduces_the_input(self, fragment):
        for sentence in PINNED_READINGS:
            tokens = tuple(sentence.split())
            result = parse(list(tokens), fragment)
            for derivation in result.derivations:
                assert derivation.sign.dom.phon() == tokens


EDGE_FIELDS = ["id", "sign", "coverage", "schema", "daughters", "licenser_id", "label",
               "heads", "deps", "slash1"]
EDGE_DEFAULTS = {"licenser_id": None, "label": "", "heads": 0, "deps": 0, "slash1": False}


class TestEdge:
    """``Edge``'s public contract: a frozen, slotted dataclass with identity
    equality, its fields in order and with their defaults."""

    def edges(self, fragment):
        sign = fragment.lookup(["er"], 0)[0][1]
        by_position = Edge(7, sign, 1, "lex", (), 3, "er@0/0", 5, 6, True)
        by_keyword = Edge(id=8, sign=sign, coverage=1, schema="lex", daughters=(by_position,))
        return by_position, by_keyword

    def test_fields_and_defaults(self, fragment):
        assert [f.name for f in dataclasses.fields(Edge)] == EDGE_FIELDS
        assert {f.name: f.default for f in dataclasses.fields(Edge)
                if f.default is not dataclasses.MISSING} == EDGE_DEFAULTS
        by_position, by_keyword = self.edges(fragment)
        assert [getattr(by_position, name) for name in EDGE_FIELDS] == [
            7, by_position.sign, 1, "lex", (), 3, "er@0/0", 5, 6, True]
        assert [getattr(by_keyword, name) for name in EDGE_FIELDS] == [
            8, by_position.sign, 1, "lex", (by_position,), None, "", 0, 0, False]

    def test_frozen(self, fragment):
        for edge in self.edges(fragment):
            for name in EDGE_FIELDS:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(edge, name, getattr(edge, name))

    def test_replace_keeps_the_other_fields(self, fragment):
        for edge in self.edges(fragment):
            relabelled = dataclasses.replace(edge, label="x")
            assert relabelled is not edge and relabelled.label == "x"
            assert all(getattr(relabelled, name) is getattr(edge, name)
                       for name in EDGE_FIELDS if name != "label")

    def test_equality_and_hash_by_identity(self, fragment):
        edge, _ = self.edges(fragment)
        twin = dataclasses.replace(edge)
        assert edge == edge and edge != twin
        assert hash(edge) == object.__hash__(edge) != hash(twin)
        assert len({edge, twin}) == 2

    def test_no_instance_dict(self, fragment):
        for edge in self.edges(fragment):
            assert not hasattr(edge, "__dict__")


class TestDerivationRecord:
    """The derivation tree lives on the edges only; chart signs carry no DTRS."""

    def test_no_chart_sign_has_dtrs(self, fragment):
        for sentence in corpus_sentences():
            result = parse(sentence, fragment)
            assert not [e for e in result.edges if e.sign.fs.has_path(("DTRS",))]
        trace = parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=800))
        assert not [e for e in trace.edges if e.sign.fs.has_path(("DTRS",))]

    def test_every_chart_sign_is_a_synsem(self, fragment):
        """A chart sign's structure is its synsem, lexical, built by a schema
        or taken from the trace-mode memo; the sign roots exist only in
        rebuilt derivations."""
        results = [parse(sentence, fragment) for sentence in corpus_sentences()]
        results.append(parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=800)))
        for result in results:
            for edge in result.edges:
                fs = edge.sign.fs
                assert fs.nodes[fs.root].type == "synsem"
                assert not fs.has_path(P_SYNSEM)


    def test_every_edge_rebuilds_to_a_whole_sign(self, fragment):
        """Every edge of the corpus charts and of a trace-mode chart is the
        mother its schema gives its daughters' chart signs, and rebuilds to
        a whole sign with the chart's synsem: a leaf to
        ``lexical-sign[SYNSEM]``, any other edge to a ``phrasal-sign`` whose
        ``DTRS`` has its schema's type, or none for a trace-mode mother on
        an underspecified head.  Under ``DTRS`` one sign stands for each
        occurrence in the derivation and only the leaves are lexical signs,
        so a licenser that is also the filler is there twice.  Applied with
        no memo, the schema gives the chart's mother too."""
        results = [parse(sentence, fragment) for sentence in corpus_sentences()]
        results.append(parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=3000)))
        for result in results:
            memo = SchemaMemo()
            for edge in result.edges:
                fs = replay(Derivation(edge)).fs
                types = [node.type for node in fs.nodes]
                assert types[0] == (TYPE_PHRASAL if edge.daughters else TYPE_LEXICAL)
                assert fs_equal(path_get(fs, P_SYNSEM), edge.sign.fs)
                if edge.daughters:
                    a, b = edge.daughters
                    for chart in (grammar.apply_schema(edge.schema, a.sign, b.sign, memo),
                                  grammar.apply_schema(edge.schema, a.sign, b.sign)):
                        assert fs_equal(chart.fs, edge.sign.fs) and chart.dom == edge.sign.dom
                    assert fs.type_at(("DTRS",)) == (
                        None if _records_no_daughters(edge) else STRUCTURE_TYPES[edge.schema])
                # the derivation's occurrences down to the mothers that record
                # no daughters
                shown, stack = [], [edge]
                while stack:
                    e = stack.pop()
                    shown.append(e)
                    if e.daughters and not _records_no_daughters(e):
                        stack.extend(e.daughters)
                leaves = sum(1 for e in shown if not e.daughters)
                assert types.count(TYPE_LEXICAL) == leaves
                assert types.count(TYPE_PHRASAL) == len(shown) - leaves


def _records_no_daughters(edge) -> bool:
    """``edge`` is a trace-mode mother on an underspecified head."""
    head = edge.daughters[0].sign.facts
    return (head.comps_kind != CLOSED if edge.schema == SCHEMA_HEAD_COMPLEMENT
            else edge.schema == SCHEMA_VERB_CLUSTER and head.vcomp == "open")


class TestReadings:
    def test_empty(self):
        assert enumerate_readings([]) == []

    def test_single_reading_for_the_mittelfeld_sentence(self, fragment):
        result = parse(S_2.split(), fragment)
        readings = enumerate_readings(result.derivations)
        assert len(readings) == 1
        derivation, avm = readings[0]
        assert "phrasal-sign" in avm

    def test_order_is_canonical(self, fragment):
        result = parse(S_7B.split(), fragment)
        readings = enumerate_readings(result.derivations)
        keys = [d.canonical_key() for d, _ in readings]
        assert keys == sorted(keys)


class TestTraceMode:
    def test_limit_hit_and_offenders_reported(self, fragment):
        report = demonstrate_trace_mode(S_1A.split(), fragment, edge_limit=800)
        assert report.limit_hit
        assert report.open_comps_edges >= 1
        assert report.sample_open_comps_avm is not None
        assert "append" in report.sample_open_comps_avm or "openlist" in report.sample_open_comps_avm
        chart = parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=800))
        first = next(e for e in chart.edges if not check_comps_closed(e.sign))
        assert report.sample_open_comps_avm == print_fs(first.sign.fs)

    def test_memo_hits_build_no_sign(self, monkeypatch, fragment):
        """Work count: a mother taken from the parse's memo reuses the
        memo's structure, facts and synsem, so ``make_sign`` runs only for
        lexical signs, the one trace sign and mother structures not seen
        before in the parse (36 calls while each boundary built its own
        trace, 38 while verb clusters out of order were built, 290 with the
        earlier trace-only memo, which built the unified mothers of every
        pair afresh); sending every hit through ``make_sign`` would count one
        call per edge."""
        calls = []
        make_sign = grammar.make_sign
        monkeypatch.setattr(grammar, "make_sign",
                            lambda *args: calls.append(args) or make_sign(*args))
        report = demonstrate_trace_mode(S_1A.split(), fragment)
        assert report.edges_built == 10000
        assert len(calls) == 29

    def test_the_closure_is_finite(self, fragment):
        """Criterion 2's sentence: without a binding edge limit the trace
        account stops by itself, with no reading and about half its edges
        carrying an underspecified valence list."""
        report = demonstrate_trace_mode(S_1A.split(), fragment, edge_limit=400000)
        assert not report.limit_hit
        assert (report.edges_built, report.readings, report.open_comps_edges) == (10608, 0, 5104)

    def test_licensing_mode_contrast(self, fragment):
        result = parse(S_1A.split(), fragment, ParseOptions(edge_limit=10000))
        assert not result.limit_hit
        offenders = [e for e in result.edges if not check_comps_closed(e.sign)]
        assert offenders == []

    def test_without_traces_fronting_is_unanalyzable(self, fragment):
        """The baseline: with neither traces nor slash introduction, the
        grammar's whole closure holds no reading of (1a)."""
        tokens = tuple(S_1A.split())
        chart = closure(tokens, fragment, mode="trace", traces=False)
        assert chart
        assert not [e for e in chart if is_reading(e.sign, "v2")]

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            ParseOptions(mode="quantum")
        with pytest.raises(ValueError):
            ParseOptions(edge_limit=0)
        with pytest.raises(ValueError):
            ParseOptions(clause_type="v1")

    @pytest.mark.parametrize("limit", [True, False, 2.5, 10000.0, "10", None])
    def test_a_non_int_edge_limit_is_rejected(self, limit):
        with pytest.raises(ValueError, match="edge_limit must be an int"):
            ParseOptions(edge_limit=limit)


# SHA-256 over every edge of the criterion-2 trace chart (10,000 edges),
# first recorded before the processed edges were indexed by SLASH (the index
# left the chart as the full pairing loop builds it, edge ids included), and
# recorded again when verb clusters out of order stopped being built.  When
# chart signs became their synsems, it took the value the chart already had
# when hashed over each sign's SYNSEM: no synsem changed.  That the chart is
# the full loop's is checked against the oracle in test_oracle.py, up to an
# edge limit.
TRACE_CHART_DIGEST = "3b3e8ae3836d9f2545169b065175cab54089e7fe02d41418d5448f95057af61f"


@pytest.fixture(scope="module")
def trace_chart(fragment):
    return parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=10000))


def _chart_digest(edges) -> str:
    h = hashlib.sha256()
    for e in edges:
        h.update(repr((e.id, e.schema, e.coverage, tuple(d.id for d in e.daughters),
                       e.label, e.licenser_id)).encode())
        h.update(repr(e.sign.fs.nodes).encode())
    return h.hexdigest()


class TestSlashIndex:
    """Pairing skips every pair of SLASH-carrying edges and tests a chart
    sign against each pool edge once; nothing else moves."""

    def test_trace_chart_digest_pinned(self, trace_chart):
        assert trace_chart.limit_hit
        assert len(trace_chart.edges) == 10000
        assert _chart_digest(trace_chart.edges) == TRACE_CHART_DIGEST

    @staticmethod
    def count_applications(monkeypatch) -> list:
        """Every schema application from now on, as (schema, first, second)."""
        calls = []
        apply_schema = grammar.apply_schema
        monkeypatch.setattr(grammar, "apply_schema", lambda *args, **kw:
                            calls.append(args[:3]) or apply_schema(*args, **kw))
        return calls

    def test_schema_applications_pinned(self, monkeypatch, fragment):
        """Work count: the schema applications of the criterion-2 demo, the
        same with and without the index (no skipped pair reached a schema).
        The parse's pair table applies each (schema, first sign, second
        sign) once, failures included, its sign table gives edges built
        from equal pairs one sign, and the pairing loop drops the pairs
        whose facts fail a schema's quick check: 347 applications, each of
        them a memo lookup (354 while the quick check compared only HEAD
        and CASE of the last complement, MOD HEAD and VCOMP VFORM, 465
        while domain elements carried their sign's
        facts, so that the sign table told apart domains of equal order,
        2,125 while the table held one sign per pair of signs and no
        failures, 4,401 while those pairs reached the schema, 13,055 when
        every pair of edges was applied afresh)."""
        calls = self.count_applications(monkeypatch)
        report = demonstrate_trace_mode(S_1A.split(), fragment, edge_limit=10000)
        assert report.edges_built == 10000
        assert len(calls) == 347

    def test_pairing_work_pinned(self, monkeypatch, fragment):
        """Work count: the pairing loop's ``fits`` calls.  Each chart sign
        keeps a partner list, so it is tested against a pool edge once,
        however many edges hold it: 694 calls in the criterion-2 demo and
        3,398 in ``run_corpus`` (819 in the demo while domain elements
        carried their sign's facts, 13,280 and 4,780 while every edge
        scanned its pool afresh)."""
        calls = []
        fits = parser.fits
        monkeypatch.setattr(parser, "fits", lambda *args: calls.append(args) or fits(*args))
        assert demonstrate_trace_mode(S_1A.split(), fragment, edge_limit=10000).edges_built == 10000
        assert len(calls) == 694
        calls.clear()
        assert run_corpus(fragment, corpus_text()).passed
        assert len(calls) == 3398

    def test_trace_edges_share_their_mothers(self, trace_chart):
        """Edges with equal structure and domain share one sign, so the
        10,000 edges of the criterion-2 chart hold 114 distinct signs
        (175 while domain elements carried their sign's facts, so that
        domains of equal order built from distinct structures differed,
        1,340 while only edges built from one pair of signs shared its
        mother, 9,993 while each edge got a sign of its own)."""
        assert len({id(e.sign) for e in trace_chart.edges}) == 114

    def test_licensing_mode_never_repeats_a_sign_pair(self, monkeypatch, fragment):
        """Work count: ``run_corpus`` makes 562 schema applications (715
        while the quick check compared only HEAD and CASE of the last
        complement, MOD HEAD and VCOMP VFORM, 868 while edges of equal
        structure and domain held distinct signs, 4,566
        as before the pair table, while the pairs whose facts fail a
        schema's type test reached the schema), each on a pair of signs no
        other one had: the shared signs let the table save licensing mode
        work too."""
        calls = self.count_applications(monkeypatch)
        assert run_corpus(fragment, corpus_text()).passed
        assert len(set(calls)) == len(calls) == 562

    def test_the_pair_table_lives_for_one_parse(self, fragment):
        """Two trace-mode parses through one schema memo build the pinned
        chart twice, and share no sign: the pair table, whose mothers carry
        one sentence's domains, starts empty in each parse."""
        memo = SchemaMemo()
        options = ParseOptions(mode="trace", edge_limit=10000)
        first, second = (parse(S_1A.split(), fragment, options, memo=memo) for _ in range(2))
        assert _chart_digest(first.edges) == _chart_digest(second.edges) == TRACE_CHART_DIGEST
        assert not {id(e.sign) for e in first.edges} & {id(e.sign) for e in second.edges}

    def test_no_schema_combines_two_slashed_edges(self, fragment, trace_chart):
        """The invariant the index rests on, checked on the schemata
        themselves for sampled pairs, in both argument orders."""
        charts = [trace_chart.edges]
        charts += [parse(sentence, fragment).edges for sentence in corpus_sentences()]
        rng = random.Random(4)
        pairs = 0
        for edges in charts:
            slashed = [e for e in edges if e.slash1]
            if len(slashed) ** 2 <= 400:
                sample = [(a, b) for a in slashed for b in slashed]
            else:
                sample = [(rng.choice(slashed), rng.choice(slashed)) for _ in range(400)]
            for a, b in sample:
                for schema in SCHEMATA:
                    assert grammar.apply_schema(schema, a.sign, b.sign) is None
                    assert grammar.apply_schema(schema, b.sign, a.sign) is None
            pairs += len(sample)
        assert pairs > 2000

    def test_pairing_reads_only_the_sign(self, fragment, trace_chart):
        """The invariant the partner lists rest on: what the pairing loop
        reads of an edge, its coverage, role masks and SLASH, is its sign's."""
        charts = [trace_chart.edges]
        charts += [parse(sentence, fragment).edges for sentence in corpus_sentences()]
        for edges in charts:
            for e in edges:
                facts = e.sign.facts
                assert ((e.coverage, e.heads, e.deps, e.slash1)
                        == (e.sign.dom.coverage, facts.heads, facts.deps, facts.slash == 1))


class TestSignTable:
    """A parse keeps one sign per (structure, domain), and its pair table
    answers every pair of signs after the first, failures and verb-cluster
    order included."""

    def test_one_sign_per_structure_and_domain(self, fragment, trace_chart):
        for result in [trace_chart] + [parse(s, fragment) for s in corpus_sentences()]:
            signs = {id(e.sign): e.sign for e in result.edges}.values()
            assert len(signs) == len({(sign.fs.sid, sign.dom) for sign in signs})

    def test_no_pair_of_signs_reaches_a_schema_twice(self, monkeypatch, fragment):
        """Failures included: each parse applies a (schema, first sign,
        second sign) once, and many of those applications fail."""
        calls, results = [], []
        apply_schema = grammar.apply_schema

        def counted(*args, **kw):
            calls.append(args[:3])
            results.append(apply_schema(*args, **kw))
            return results[-1]

        monkeypatch.setattr(grammar, "apply_schema", counted)
        parses = [lambda: demonstrate_trace_mode(S_1A.split(), fragment)]
        parses += [lambda s=sentence: parse(s, fragment) for sentence in corpus_sentences()]
        failures = 0
        for run in parses:
            calls.clear()
            results.clear()
            run()
            assert len(set(calls)) == len(calls) > 0
            failures += results.count(None)
        assert failures > 0

    def test_no_cluster_out_of_order_reaches_a_schema(self, monkeypatch, fragment):
        """The order of a verb cluster is judged on the pair of signs before
        the schema runs, so the schema never sees a pair out of order; the
        judgement does refuse some pairs of the corpus."""
        clusters, refused = [], []
        apply_schema, in_order = grammar.apply_schema, orderdomain.cluster_in_order

        def judged(coverage, head_dom, clause_type):
            holds = in_order(coverage, head_dom, clause_type)
            if not holds:
                refused.append(coverage)
            return holds

        def applied(schema, a, b, **kw):
            if schema == SCHEMA_VERB_CLUSTER:
                clusters.append((a, b))
            return apply_schema(schema, a, b, **kw)

        monkeypatch.setattr(orderdomain, "cluster_in_order", judged)
        monkeypatch.setattr(grammar, "apply_schema", applied)
        for sentence in corpus_sentences():
            clusters.clear()
            result = parse(sentence, fragment)
            assert len(result.edges) == PINNED_EDGES[" ".join(sentence)]
            for a, b in clusters:
                assert in_order(a.dom.coverage | b.dom.coverage, a.dom, result.clause_type)
        assert refused


    def test_the_order_class_is_read_off_head_and_vform(self, fragment, trace_chart):
        """Every chart sign's word order class agrees with the HEAD and VFORM
        of its structure, over the corpus charts and the trace chart."""
        classes = set()
        for result in [trace_chart] + [parse(s, fragment) for s in corpus_sentences()]:
            for sign in {id(e.sign): e.sign for e in result.edges}.values():
                head, vform = sign.fs.type_at(grammar.P_HEAD), sign.fs.type_at(grammar.P_VFORM)
                expected = None
                if head == "verb":
                    expected = orderdomain.FINITE if vform == "fin" else orderdomain.VERBAL
                elif head == "comp":
                    expected = orderdomain.COMPLEMENTIZER
                assert sign.facts.order == expected, (head, vform)
                classes.add(expected)
        assert classes == {orderdomain.FINITE, orderdomain.VERBAL,
                           orderdomain.COMPLEMENTIZER, None}


class TestSchemaMemo:
    """A parse unifies each (schema, daughter structures) key once; a
    rebuild shares nothing with the chart."""

    def test_one_build_per_memo_key(self, monkeypatch, fragment):
        """Work count: each sentence builds one mother structure per distinct
        memo key, and over the bundled corpus ``Workspace.extract`` runs 386
        times (418 while memo keys held whole signs, so that a lexical and a
        phrasal sign with equal SYNSEM had two, 447 while verb clusters out
        of order were built, 744 when every pair of edges was unified
        afresh); a build whose unification fails extracts nothing.  Each
        key looked up is stored once."""
        extracts, keys, builds = [], set(), []
        extract, get, store = Workspace.extract, SchemaMemo.get, SchemaMemo.__setitem__
        monkeypatch.setattr(Workspace, "extract",
                            lambda ws, root: extracts.append(root) or extract(ws, root))
        monkeypatch.setattr(SchemaMemo, "get", lambda memo, key, *default:
                            keys.add(key) or get(memo, key, *default))
        monkeypatch.setattr(SchemaMemo, "__setitem__", lambda memo, key, mother:
                            builds.append(key) or store(memo, key, mother))
        for sentence in corpus_sentences():
            keys.clear()
            builds.clear()
            parse(sentence, fragment)
            assert len(builds) == len(keys) > 0
        assert len(extracts) == 386

    @staticmethod
    def count_extracts(monkeypatch) -> list:
        extracts = []
        extract = Workspace.extract
        monkeypatch.setattr(Workspace, "extract",
                            lambda ws, root: extracts.append(root) or extract(ws, root))
        return extracts

    def test_a_corpus_run_shares_one_memo(self, monkeypatch, fragment):
        """Work count: ``run_corpus`` passes one memo to every line, so over
        the bundled corpus ``Workspace.extract`` runs 96 times, not the 386
        of one memo per line.  Twice the corpus in one run still extracts 96
        times, and every line of it passes: the memo grows with the distinct
        structures, not with the lines."""
        extracts = self.count_extracts(monkeypatch)
        report = run_corpus(fragment, corpus_text())
        assert report.passed and len(extracts) == 96
        extracts.clear()
        twice = run_corpus(fragment, corpus_text() + corpus_text())
        assert twice.totals == (24, 24) and len(extracts) == 96

    def test_a_shared_memo_leaves_every_chart_as_it_was(self, monkeypatch, fragment):
        """The corpus lines parsed in reverse order through one memo extract
        96 times too, and each line's readings and chart (edge keys,
        structures and coverages) equal those of its standalone parse."""
        extracts = self.count_extracts(monkeypatch)
        reverse = "\n".join(reversed(corpus_text().splitlines()))
        assert run_corpus(fragment, reverse).passed and len(extracts) == 96
        memo, shared_extracts = SchemaMemo(), 0
        for sentence in reversed(corpus_sentences()):
            before = len(extracts)
            shared = parse(sentence, fragment, memo=memo)
            shared_extracts += len(extracts) - before
            alone = parse(sentence, fragment)
            assert ([d.canonical_key() for d in shared.derivations]
                    == [d.canonical_key() for d in alone.derivations])
            assert len(shared.edges) == len(alone.edges)
            for a, b in zip(shared.edges, alone.edges):
                assert a.key() == b.key() and a.coverage == b.coverage
                assert a.sign.fs.nodes == b.sign.fs.nodes and a.sign.facts == b.sign.facts
                assert a.sign.dom == b.sign.dom
        assert shared_extracts == 96

    @staticmethod
    def count_lookups(monkeypatch) -> list:
        """Every memo key looked up from now on."""
        lookups = []
        get = SchemaMemo.get
        monkeypatch.setattr(SchemaMemo, "get", lambda memo, key, *default:
                            lookups.append(key) or get(memo, key, *default))
        return lookups

    def test_memo_lookups_pinned(self, monkeypatch, fragment):
        """Work count: ``run_corpus`` looks 562 keys up in its memo and
        extracts 96 times, and the criterion-2 demo looks 347 keys up: one
        per schema application, so the pair table's hits never reach the
        memo (715 and 354 under the smaller quick check, 465 in the demo
        while domain elements carried their sign's
        facts, 868 and 2,125 while the table neither shared signs between
        equal edges nor stored failures)."""
        lookups, extracts = self.count_lookups(monkeypatch), self.count_extracts(monkeypatch)
        assert run_corpus(fragment, corpus_text()).passed
        assert (len(lookups), len(extracts)) == (562, 96)
        lookups.clear()
        assert demonstrate_trace_mode(S_1A.split(), fragment).edges_built == 10000
        assert len(lookups) == 347

    def test_equal_structures_share_one_interned_structure(self, fragment):
        """Within one memo every chart sign's structure, lexical ones
        included, is the memo's interned structure of its shape, and a memo
        key is the schema, trace-mode mothers included, a structure id and
        a structure id or None."""
        memo = SchemaMemo()
        results = [parse(sentence, fragment, memo=memo) for sentence in corpus_sentences()]
        results.append(parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=3000),
                             memo=memo))
        shapes = {}
        for result in results:
            for edge in result.edges:
                fs = edge.sign.fs
                assert memo.structures[fs.sid] is fs
                shapes.setdefault(fs.nodes, set()).add(id(fs))
        assert all(len(objects) == 1 for objects in shapes.values())
        assert len({fs.nodes for fs in memo.structures}) == len(memo.structures) >= len(shapes)
        for label, first, second in memo:
            assert label in SCHEMATA
            assert isinstance(first, int) and (second is None or isinstance(second, int))

    def test_no_two_corpus_runs_share_an_intern_table(self, monkeypatch, fragment):
        """The lines of one ``run_corpus`` call share its memo and intern
        table; the next call starts an empty one of its own."""
        memos = []
        parse_line = cli.parse
        monkeypatch.setattr(cli, "parse", lambda *args, memo, **kw:
                            memos.append((memo, len(memo.structures)))
                            or parse_line(*args, memo=memo, **kw))
        run_corpus(fragment, corpus_text())
        run_corpus(fragment, corpus_text())
        assert len(memos) == 24
        first, second = memos[:12], memos[12:]
        assert all(memo is first[0][0] for memo, _ in first)
        assert all(memo is second[0][0] for memo, _ in second)
        assert first[0][0] is not second[0][0]
        assert first[0][1] == second[0][1] == 0

    def test_replay_unifies_every_step_again(self, monkeypatch, fragment):
        """After the chart has filled its memo, rebuilding a reading still
        extracts once per internal node of its tree, and once more for the
        whole root, and grafts once per leaf: 6 to 8 extracts on this
        sentence, whose trees hold 5 to 7 internal nodes (a licenser that is
        also the filler is rebuilt at each of its two nodes)."""
        result = parse(S_7B.split(), fragment)
        assert result.readings == PINNED_READINGS[S_7B]
        extracts = self.count_extracts(monkeypatch)
        grafts = []
        graft = Workspace.graft
        monkeypatch.setattr(Workspace, "graft", lambda ws, fs: grafts.append(fs) or graft(ws, fs))
        counts = []
        for derivation in result.derivations:
            extracts.clear()
            grafts.clear()
            assert replay(derivation) is not None
            nodes = list(derivation.edges())
            internal = sum(1 for e in nodes if e.daughters)
            assert len(extracts) == internal + 1
            assert len(grafts) == len(nodes) - internal
            counts.append(len(extracts))
        assert (min(counts), max(counts)) == (6, 8)


class TestPartnerRecords:
    """Each partner list entry resolves its mothers once per direction and
    keeps their records; later edges with its sign build from them."""

    @pytest.mark.parametrize("limit, applications", [(18, 6), (800, 168), (5000, 323)])
    def test_work_up_to_the_limit_pinned(self, monkeypatch, fragment, limit, applications):
        """Work count: the schema applications and memo lookups of the
        criterion-2 trace parse cut at an edge limit, as when every pair of
        edges went through the pair table schema by schema.  At limit 18
        the first of one pair's two mothers hits the limit, and its second
        schema is still applied, as the pair's other schemata always were
        (172 and 330 at limits 800 and 5,000 under the smaller quick check,
        which compared only HEAD and CASE of the last complement, MOD HEAD
        and VCOMP VFORM)."""
        calls = TestSlashIndex.count_applications(monkeypatch)
        lookups = TestSchemaMemo.count_lookups(monkeypatch)
        result = parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=limit))
        assert result.limit_hit and len(result.edges) == limit
        assert len(calls) == len(lookups) == applications

    @pytest.mark.parametrize("limit, signs", [(5000, 4), (10000, 9)])
    def test_the_root_filter_runs_once_per_sign(self, monkeypatch, fragment, limit, signs):
        """The root filter reads only the sign: the criterion-2 trace parse
        tests as many complete clauses as it has signs of full coverage
        (281 and 4,113 while it tested every edge of full coverage)."""
        calls = []
        is_complete_clause = parser.is_complete_clause
        monkeypatch.setattr(parser, "is_complete_clause",
                            lambda *args: calls.append(args) or is_complete_clause(*args))
        tokens = S_1A.split()
        result = parse(tokens, fragment, ParseOptions(mode="trace", edge_limit=limit))
        full = (1 << len(tokens)) - 1
        assert len(calls) == len({id(e.sign) for e in result.edges if e.coverage == full}) == signs

    def test_open_valence_is_tested_once_per_sign(self, monkeypatch, fragment, trace_chart):
        """The trace-mode report counts the edges with open valence, but
        tests each of the chart's 114 signs once."""
        calls = []
        check = parser.check_comps_closed
        monkeypatch.setattr(parser, "check_comps_closed", lambda sign: calls.append(sign) or check(sign))
        report = demonstrate_trace_mode(S_1A.split(), fragment)
        assert len(calls) == len({id(e.sign) for e in trace_chart.edges}) == 114
        assert report.open_comps_edges == sum(
            not check_comps_closed(e.sign) for e in trace_chart.edges) == 4803


class TestLexiconVariants:
    def test_an_entry_synsem_subtype_is_a_chart_sign(self, fragment):
        """Entries whose SYNSEM has a declared subtype of ``synsem`` give
        chart signs, not whole ones: every corpus line parses to the bundled
        fragment's readings, and each reading replays and prints with the
        subtype on its leaves."""
        text = _fragment_source()
        declaration = "(type synsem (vcomp-val) (LOC local) (NONLOC nonlocal) (LEX bool))"
        text = text.replace(declaration, declaration + "\n(type word-synsem (synsem))")
        assert text.count("(lexical-sign (SYNSEM (synsem") == 9
        lexicon = load_lexicon(text.replace("(lexical-sign (SYNSEM (synsem",
                                            "(lexical-sign (SYNSEM (word-synsem"))
        for sentence in corpus_sentences():
            result = parse(sentence, lexicon)
            assert result.readings == parse(sentence, fragment).readings
            for derivation in result.derivations:
                assert replay(derivation).fs.nodes[0].type == TYPE_PHRASAL
            rendered = enumerate_readings(result.derivations)
            assert len(rendered) == result.readings
            assert all("word-synsem" in avm for _derivation, avm in rendered)


class TestAmbiguousLexiconStillDeterministic:
    def test_parse_with_reduced_lexicon(self, fragment):
        """A lexicon without the transitive erzählen still parses (1a)."""
        text = [l for l in _fragment_source().splitlines()
                if "erzaehlen-trans)" not in l]
        lexicon = load_lexicon("\n".join(text))
        assert parse(S_1A.split(), lexicon).readings >= 1


def _fragment_source():
    from vorfeld.lexicon import fragment_text
    return fragment_text()
