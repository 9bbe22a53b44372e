"""Every order of three sentences' words, parsed: the accepted ones pinned.

Each base is permuted token by token (nouns keep their capital, the first
word is capitalised; a verb-final base keeps *weil* first).  An order with
a token the fragment lacks in that form has no reading.  The pins record
what the grammar accepts today, overgeneration included, so any change to
word order shows up here as a diff.

One overgeneration is listed as expected failures: a Vorfeld in which a
complement follows the non-finite verb.  German VPs are head-final, but
``insert_filler_domain`` compacts the pre-verbal elements in any order and
no LP rule puts the verb last.  A fix turns these into passes, which
``strict`` reports, so the fix has to update both lists.
"""
import itertools

import pytest

from vorfeld.parser import LexicalGapError, parse

CRITERION_2 = "erzählen wird er seiner Tochter ein Märchen"
VORTRAGEN = "vortragen wird er es morgen"
WEIL = "weil er es morgen vortragen wird"

ACCEPTED = {
    CRITERION_2: {  # 28 of 5,040 orders
        "Ein Märchen erzählen seiner Tochter wird er": 1,
        "Ein Märchen erzählen wird er seiner Tochter": 2,
        "Ein Märchen erzählen wird seiner Tochter er": 2,
        "Ein Märchen seiner Tochter erzählen wird er": 1,
        "Ein Märchen seiner Tochter wird er erzählen": 1,
        "Ein Märchen wird er seiner Tochter erzählen": 3,
        "Ein Märchen wird seiner Tochter er erzählen": 3,
        "Er wird ein Märchen seiner Tochter erzählen": 1,
        "Er wird seiner Tochter ein Märchen erzählen": 1,
        "Erzählen ein Märchen seiner Tochter wird er": 1,
        "Erzählen ein Märchen wird er seiner Tochter": 2,
        "Erzählen ein Märchen wird seiner Tochter er": 2,
        "Erzählen seiner Tochter ein Märchen wird er": 1,
        "Erzählen seiner Tochter wird ein Märchen er": 1,
        "Erzählen seiner Tochter wird er ein Märchen": 1,
        "Erzählen wird ein Märchen er seiner Tochter": 3,
        "Erzählen wird ein Märchen seiner Tochter er": 3,
        "Erzählen wird er ein Märchen seiner Tochter": 3,
        "Erzählen wird er seiner Tochter ein Märchen": 3,
        "Erzählen wird seiner Tochter ein Märchen er": 3,
        "Erzählen wird seiner Tochter er ein Märchen": 3,
        "Seiner Tochter ein Märchen erzählen wird er": 1,
        "Seiner Tochter ein Märchen wird er erzählen": 1,
        "Seiner Tochter erzählen ein Märchen wird er": 1,
        "Seiner Tochter erzählen wird ein Märchen er": 1,
        "Seiner Tochter erzählen wird er ein Märchen": 1,
        "Seiner Tochter wird ein Märchen er erzählen": 2,
        "Seiner Tochter wird er ein Märchen erzählen": 2,
    },
    VORTRAGEN: {  # 14 of 120
        "Er wird es morgen vortragen": 4,
        "Er wird morgen es vortragen": 3,
        "Vortragen es morgen wird er": 2,
        "Vortragen es wird er morgen": 5,
        "Vortragen es wird morgen er": 5,
        "Vortragen morgen es wird er": 2,
        "Vortragen morgen wird er es": 3,
        "Vortragen morgen wird es er": 3,
        "Vortragen wird er es morgen": 10,
        "Vortragen wird er morgen es": 10,
        "Vortragen wird es er morgen": 10,
        "Vortragen wird es morgen er": 10,
        "Vortragen wird morgen er es": 10,
        "Vortragen wird morgen es er": 10,
    },
    WEIL: {  # 6 of 120, all Mittelfeld permutations
        "weil er es morgen vortragen wird": 4,
        "weil er morgen es vortragen wird": 3,
        "weil es er morgen vortragen wird": 4,
        "weil es morgen er vortragen wird": 3,
        "weil morgen er es vortragen wird": 3,
        "weil morgen es er vortragen wird": 3,
    },
}

# accepted orders whose Vorfeld has a complement after the non-finite verb
COMPLEMENT_AFTER_VERB_IN_VORFELD = [
    "Ein Märchen erzählen seiner Tochter wird er",
    "Erzählen ein Märchen seiner Tochter wird er",
    "Erzählen ein Märchen wird er seiner Tochter",
    "Erzählen ein Märchen wird seiner Tochter er",
    "Erzählen seiner Tochter ein Märchen wird er",
    "Erzählen seiner Tochter wird ein Märchen er",
    "Erzählen seiner Tochter wird er ein Märchen",
    "Seiner Tochter erzählen ein Märchen wird er",
    "Vortragen es morgen wird er",
    "Vortragen es wird er morgen",
    "Vortragen es wird morgen er",
    "Vortragen morgen es wird er",
]


def _orders(base: str) -> list[list[str]]:
    words = base.split()
    if words[0] == "weil":
        return [["weil", *perm] for perm in itertools.permutations(words[1:])]
    return [[perm[0][0].upper() + perm[0][1:], *perm[1:]]
            for perm in itertools.permutations(words)]


def _readings(fragment, tokens: list[str]) -> int:
    try:
        return parse(tokens, fragment).readings
    except LexicalGapError:
        return 0


@pytest.mark.parametrize("base", list(ACCEPTED), ids=["criterion_2", "vortragen", "weil"])
def test_accepted_orders_pinned(fragment, base):
    accepted = {}
    for tokens in _orders(base):
        readings = _readings(fragment, tokens)
        if readings:
            accepted[" ".join(tokens)] = readings
    assert accepted == ACCEPTED[base]


def test_the_overgeneration_list_is_complete():
    """The listed orders are exactly the accepted ones with a complement
    after the non-finite verb before the finite verb."""
    verbs, adjuncts = {"erzählen", "vortragen"}, {"morgen"}
    found = []
    for accepted in ACCEPTED.values():
        for sentence in accepted:
            words = sentence.lower().split()
            if "weil" in words:
                continue
            vorfeld = words[:words.index("wird")]
            verb = [i for i, w in enumerate(vorfeld) if w in verbs]
            if verb and set(vorfeld[verb[0] + 1:]) - adjuncts:
                found.append(sentence)
    assert sorted(found) == sorted(COMPLEMENT_AFTER_VERB_IN_VORFELD)


@pytest.mark.xfail(strict=True, reason="no LP rule puts the non-finite verb after its "
                   "complements in a fronted projection")
@pytest.mark.parametrize("sentence", COMPLEMENT_AFTER_VERB_IN_VORFELD)
def test_complement_after_the_fronted_verb_rejected(fragment, sentence):
    assert parse(sentence.split(), fragment).readings == 0
