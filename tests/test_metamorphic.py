"""The fragment's names and order are arbitrary: the bundled fragment with
its entries or its type declarations in reverse order, or with the types
no code names renamed, reads the corpus as the bundled one does, with the
same edge counts, reading counts and printed AVMs."""
from __future__ import annotations

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


def _as_token(name: str) -> str:
    """A pattern for ``name`` as a whole token of the fragment's syntax or
    of a printed AVM, where a type follows a paren, a blank or a tag's
    ``=``."""
    return rf"(?<![^\s()=]){re.escape(name)}(?![^\s()=])"


def _rename(text: str, names: dict[str, str]) -> str:
    pattern = "|".join(_as_token(n) for n in sorted(names, key=len, reverse=True))
    return re.sub(pattern, lambda m: names[m.group()], text)


def _reversed_forms(text: str, head: str) -> str:
    """``text`` with its top-level forms that start with ``(head`` in
    reverse order, each in the place of another; a form ends where the
    next top-level form or comment starts."""
    starts = re.compile(rf"^\({head} ", re.M)
    pieces = re.split(r"\n(?=[(;])", text)
    places = [i for i, p in enumerate(pieces) if starts.match(p)]
    assert len(places) > 1
    for i, form in zip(places, reversed([pieces[i] for i in places])):
        pieces[i] = form
    return "\n".join(pieces)


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


@pytest.mark.parametrize("head", ["word|stem", "type"], ids=["entries", "types"])
def test_reversed_declarations_read_the_corpus_alike(fragment, sentences, head):
    text = fragment_text()
    reordered = _reversed_forms(text, f"(?:{head})")
    assert reordered != text
    assert sorted(reordered.split()) == sorted(text.split())
    assert _outcomes(sentences, load_lexicon(reordered)) == _outcomes(sentences, fragment)


def test_renamed_unnamed_types_read_the_corpus_alike(fragment, sentences):
    """The AVMs are compared unindented, with the names mapped back, since
    line breaks move with the length of a name."""
    names = {name: f"renamed-{i}" for i, name in enumerate(UNNAMED_TYPES)}
    text = fragment_text()
    renamed = _rename(text, names)
    for name in UNNAMED_TYPES:
        assert re.search(rf"\(type {_as_token(name)}", text)
        assert not re.search(rf"\(type {_as_token(name)}", renamed)
    back = {new: old for old, new in names.items()}
    got = _outcomes(sentences, load_lexicon(renamed), indent=False,
                   back=lambda avm: _rename(avm, back))
    assert got == _outcomes(sentences, fragment, indent=False)


@pytest.mark.parametrize("name", ["synsem", "fin", "verb", "head-complement-structure"])
def test_renaming_a_required_type_fails_at_load(name):
    assert name in REQUIRED_TYPES
    with pytest.raises(LexiconError, match=re.escape(name)):
        load_lexicon(_rename(fragment_text(), {name: f"{name}-renamed"}))
