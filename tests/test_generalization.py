"""Probes beyond the regression corpus.

The fragment should generalize along its own lines (plain V2, NP fronting,
full VP fronting of a transitive) and keep rejecting what the word order
and valence system rules out — in particular every permutation that breaks
cluster order or strands cluster parts in the Mittelfeld.
"""
import pytest

from vorfeld.parser import parse

GRAMMATICAL = [
    # plain V2 with the subject in the Vorfeld
    "Er wird ein Märchen erzählen",
    # object fronting without any verbal material is plain linearization
    "Ein Märchen wird er erzählen",
    "Seiner Tochter wird er ein Märchen erzählen",
    # full transitive VP in the Vorfeld
    "Ein Märchen erzählen wird er",
    # bare-verb fronting below a stranded clause-final modal (the
    # "Zahlen wird er müssen" pattern): licensing under the modal, the
    # modal clustering with the auxiliary afterwards
    "Erzählen wird er seiner Tochter ein Märchen müssen",
    # apparent multiple fronting = a remnant projection in the Vorfeld
    "Seiner Tochter ein Märchen wird er erzählen",
    # modal under the preterite auxiliary
    "Den Kanzlerkandidaten ermorden wollte sie",
    # verb-final variant of a corpus sentence
    "weil er es morgen vortragen wird",
]

UNGRAMMATICAL = [
    # cluster order inverted in the right bracket
    "Er wird seiner Tochter ein Märchen müssen erzählen",
    # auxiliary flip order is outside the fragment
    "weil er ihm ein Märchen hat erzählen lassen",
    # verb-final cluster split around the finite verb
    "weil er ihr ein Märchen müssen erzählen wird",
    # verb-final finite verb before its cluster: the finite verb escapes
    # the cluster's order only to a verb-second left bracket
    "weil er ihr ein Märchen wird erzählen müssen",
    # finite verb first (no Vorfeld at all)
    "wird er seiner Tochter ein Märchen erzählen müssen",
    # cluster part dropped into the Mittelfeld
    "Erzählen wird er müssen seiner Tochter ein Märchen",
    # case filter: nominative slot fed with a dative
    "Erzählen wird ihm seiner Tochter ein Märchen",
    # verbal material in the Vorfeld without a binder downstairs
    "Erzählen müssen er wird seiner Tochter ein Märchen",
]


@pytest.mark.parametrize("sentence", GRAMMATICAL)
def test_generalizes(fragment, sentence):
    assert parse(sentence.split(), fragment).readings >= 1, sentence


@pytest.mark.parametrize("sentence", UNGRAMMATICAL)
def test_rejects(fragment, sentence):
    assert parse(sentence.split(), fragment).readings == 0, sentence


def test_shuffled_input_never_crashes(fragment):
    """Robustness: arbitrary reorderings either parse, parse to nothing,
    or raise a lexical gap — never anything else."""
    import random

    from vorfeld.parser import LexicalGapError

    rng = random.Random(7)
    bases = [s.split() for s in GRAMMATICAL + UNGRAMMATICAL]
    for _ in range(150):
        tokens = rng.choice(bases)[:]
        rng.shuffle(tokens)
        try:
            result = parse(tokens, fragment)
        except LexicalGapError:
            continue
        assert result.open_comps_rejected == 0
