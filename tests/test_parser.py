import pytest

from vorfeld.grammar import check_comps_closed
from vorfeld.lexicon import load_lexicon
from vorfeld.orderdomain import (
    SCHEMA_FILLER_HEAD,
    SCHEMA_SLASH_INTRO,
    mask_span,
)
from vorfeld.parser import (
    Derivation,
    LexicalGapError,
    ParseOptions,
    demonstrate_trace_mode,
    enumerate_readings,
    parse,
    replay,
)
from vorfeld.tfs import fs_equal

S_1A = "Erzählen wird er seiner Tochter ein Märchen"
S_2 = "Er wird seiner Tochter ein Märchen erzählen müssen"
S_5A = "Müssen wird er ihr ein Märchen erzählen"
S_7B = "Vortragen wird er es morgen"

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

    def test_forcing_the_wrong_clause_type_kills_the_parse(self, fragment):
        result = parse(S_2.split(), fragment, ParseOptions(clause_type="vfinal"))
        assert result.readings == 0


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

    def test_coverage_matches_domain(self, fragment):
        for sentence in (S_1A, S_2):
            result = parse(sentence.split(), fragment)
            for e in result.edges:
                assert e.sign.dom.coverage == (
                    e.daughters[0].coverage if e.schema == SCHEMA_SLASH_INTRO
                    else e.coverage
                )

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
    "Ein Märchen erzählen wird er seiner Tochter müssen": 95,
    "Seiner Tochter erzählen wird er das Märchen": 35,
    "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer": 75,
    S_5A: 85,
    "weil er ihr ein Märchen erzählen müssen wird": 85,
    "weil er ihm ein Märchen erzählen lassen hat": 92,
    S_7B: 75,
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
                assert fs_equal(again.synsem_fs, chart.synsem_fs)
                assert again.dom == chart.dom
                # Chart signs carry no DTRS, so the licensing-mode check
                # covers the daughters only on the rebuilt sign.
                assert check_comps_closed(again)

    def test_linearization_reproduces_the_input(self, fragment):
        for sentence in PINNED_READINGS:
            tokens = tuple(sentence.split())
            result = parse(list(tokens), fragment)
            for derivation in result.derivations:
                assert derivation.sign.dom.phon() == tokens


class TestDerivationRecord:
    """The derivation tree lives on the edges only; chart signs carry no DTRS."""

    def test_no_chart_sign_has_dtrs(self, fragment):
        for sentence in _corpus_sentences():
            result = parse(sentence, fragment)
            assert not [e for e in result.edges if e.sign.fs.has_path(("DTRS",))]
        trace = parse(S_1A.split(), fragment, ParseOptions(mode="trace", edge_limit=800))
        assert not [e for e in trace.edges if e.sign.fs.has_path(("DTRS",))]


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

    def test_licensing_mode_contrast(self, fragment):
        result = parse(S_1A.split(), fragment, ParseOptions(edge_limit=10000))
        assert not result.limit_hit
        offenders = [e for e in result.edges if not check_comps_closed(e.sign)]
        assert offenders == []

    def test_without_traces_fronting_is_unanalyzable(self, fragment):
        options = ParseOptions(mode="trace", propose_traces=False)
        result = parse(S_1A.split(), fragment, options)
        assert result.readings == 0
        assert not result.limit_hit

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            ParseOptions(mode="quantum")
        with pytest.raises(ValueError):
            ParseOptions(edge_limit=0)
        with pytest.raises(ValueError):
            ParseOptions(clause_type="v1")


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


def _corpus_sentences():
    from vorfeld.cli import parse_corpus_line, tokenize_sentence
    from vorfeld.lexicon import corpus_text
    lines = [parse_corpus_line(n, raw) for n, raw in enumerate(corpus_text().splitlines(), 1)]
    return [tokenize_sentence(line.sentence) for line in lines if line is not None]
