"""The fragment's names and order are arbitrary: the bundled fragment with
its entries or its type declarations in reverse or shuffled order, with
subtypes that nothing uses added, or with the types no code names renamed,
reads the corpus as the bundled one does, with the same edge counts,
reading counts and printed AVMs."""
from __future__ import annotations

import json
import os
import random
import re
from collections import Counter

import pytest

from conftest import corpus_sentences
from vorfeld.avm import print_fs
from vorfeld.lexicon import REQUIRED_TYPES, LexiconError, fragment_text, load_lexicon
from vorfeld.parser import parse

# the types of the bundled fragment that no code names: neither built, nor
# tested, nor read as a word order class
UNNAMED_TYPES = ("noun", "prep", "adv", "nom", "dat", "acc", "case", "head",
                 "adjunct-head", "con-struc", "vform", "bool", "top")
RENAMES = {name: f"renamed-{i}" for i, name in enumerate(UNNAMED_TYPES)}

# subtypes that no entry uses: of two types no code names, and of one that
# the grammar tests and builds
UNUSED_SUBTYPES = "(type head-unused (head)) (type case-unused (case)) (type verb-unused (verb))"

ENTRIES, TYPES = "word|stem", "type"

PINS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "adjunct_pins.json")


def _as_token(name: str) -> str:
    """A pattern for ``name`` as a whole token of the fragment's syntax or
    of a printed AVM, where a type follows a paren, a blank or a tag's
    ``=``."""
    return rf"(?<![^\s()=]){re.escape(name)}(?![^\s()=])"


def _rename(text: str, names: dict[str, str]) -> str:
    pattern = "|".join(_as_token(n) for n in sorted(names, key=len, reverse=True))
    return re.sub(pattern, lambda m: names[m.group()], text)


def _reordered_forms(text: str, head: str, reorder) -> str:
    """``text`` with its top-level forms that start with ``(head`` in the
    order ``reorder`` gives their list, each in the place of another; a
    form ends where the next top-level form or comment starts."""
    starts = re.compile(rf"^\(({head}) ", re.M)
    pieces = re.split(r"\n(?=[(;])", text)
    places = [i for i, p in enumerate(pieces) if starts.match(p)]
    assert len(places) > 1
    for i, form in zip(places, reorder([pieces[i] for i in places])):
        pieces[i] = form
    return "\n".join(pieces)


def _reversed(text: str, head: str) -> str:
    return _reordered_forms(text, head, lambda forms: forms[::-1])


def _shuffled(text: str, head: str, seed: int) -> str:
    return _reordered_forms(text, head, lambda forms: random.Random(seed).sample(forms, len(forms)))


def _with_unused_subtypes(text: str) -> str:
    return text.rstrip("\n") + "\n" + UNUSED_SUBTYPES + "\n"


def _outcomes(sentences, lexicon, indent=True, back=lambda avm: avm):
    """Per sentence: the edge count, the reading count and the multiset of
    printed AVMs."""
    out = []
    for tokens in sentences:
        result = parse(tokens, lexicon)
        avms = Counter(back(print_fs(d.sign.fs, indent=indent)) for d in result.derivations)
        out.append((len(result.edges), result.readings, avms))
    return out


@pytest.fixture(scope="module")
def sentences():
    return corpus_sentences()


@pytest.fixture(scope="module")
def bundled(fragment, sentences):
    return _outcomes(sentences, fragment)


@pytest.mark.parametrize("head", [ENTRIES, TYPES], ids=["entries", "types"])
def test_reversed_declarations_read_the_corpus_alike(bundled, sentences, head):
    text = fragment_text()
    reordered = _reversed(text, head)
    assert reordered != text
    assert sorted(reordered.split()) == sorted(text.split())
    assert _outcomes(sentences, load_lexicon(reordered)) == bundled


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("head", [ENTRIES, TYPES], ids=["entries", "types"])
def test_shuffled_declarations_read_the_corpus_alike(bundled, sentences, head, seed):
    """Shuffled type declarations put some types before their parents, so
    the type order owes nothing to the order of the file."""
    text = fragment_text()
    shuffled = _shuffled(text, head, seed)
    assert shuffled not in (text, _reversed(text, head))
    assert sorted(shuffled.split()) == sorted(text.split())
    assert _outcomes(sentences, load_lexicon(shuffled)) == bundled


def test_unused_subtypes_read_the_corpus_alike(bundled, sentences):
    lexicon = load_lexicon(_with_unused_subtypes(fragment_text()))
    assert {"head-unused", "case-unused", "verb-unused"} <= set(lexicon.hierarchy.types)
    assert _outcomes(sentences, lexicon) == bundled


def test_renamed_unnamed_types_read_the_corpus_alike(fragment, sentences):
    """The AVMs are compared unindented, with the names mapped back, since
    line breaks move with the length of a name."""
    text = fragment_text()
    renamed = _rename(text, RENAMES)
    for name in UNNAMED_TYPES:
        assert re.search(rf"\(type {_as_token(name)}", text)
        assert not re.search(rf"\(type {_as_token(name)}", renamed)
    back = {new: old for old, new in RENAMES.items()}
    got = _outcomes(sentences, load_lexicon(renamed), indent=False,
                   back=lambda avm: _rename(avm, back))
    assert got == _outcomes(sentences, fragment, indent=False)


@pytest.mark.parametrize("name", ["synsem", "fin", "verb", "head-complement-structure"])
def test_renaming_a_required_type_fails_at_load(name):
    assert name in REQUIRED_TYPES
    with pytest.raises(LexiconError, match=re.escape(name)):
        load_lexicon(_rename(fragment_text(), {name: f"{name}-renamed"}))


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as f:
        return [sentence.split() for sentence in json.load(f)]


@pytest.fixture(scope="module")
def pins_bundled(fragment, pins):
    return _outcomes(pins, fragment, indent=False)


@pytest.mark.slow
@pytest.mark.parametrize("variant", [
    lambda text: _reversed(text, ENTRIES),
    lambda text: _reversed(text, TYPES),
    lambda text: _shuffled(text, ENTRIES, 0),
    lambda text: _shuffled(text, TYPES, 0),
    _with_unused_subtypes,
    lambda text: _rename(text, RENAMES),
], ids=["entries-reversed", "types-reversed", "entries-shuffled", "types-shuffled",
        "unused-subtypes", "renamed"])
def test_variants_read_the_adjunct_pins_alike(pins, pins_bundled, variant):
    """Each variant on the 74 one-adjunct pins, the AVMs compared
    unindented, with the renamed types' names mapped back."""
    assert len(pins) == 74
    back = {new: old for old, new in RENAMES.items()}
    got = _outcomes(pins, load_lexicon(variant(fragment_text())), indent=False,
                    back=lambda avm: _rename(avm, back))
    assert got == pins_bundled
