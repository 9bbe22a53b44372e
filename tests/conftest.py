from __future__ import annotations

import pytest

from vorfeld.lexicon import Lexicon, load_fragment
from vorfeld.tfs import TypeHierarchy


@pytest.fixture(scope="session")
def fragment() -> Lexicon:
    return load_fragment()


@pytest.fixture(scope="session")
def diamond() -> TypeHierarchy:
    """Small hierarchy with a diamond (a, b meet at c) for unification tests."""
    return TypeHierarchy([
        ("top", (), ()),
        ("a", ("top",), (("F", "top"), ("G", "top"))),
        ("b", ("top",), (("H", "*list*"), ("S", "*set*"))),
        ("c", ("a", "b"), ()),
        ("d", ("c",), ()),
        ("x", ("top",), ()),
        ("y", ("top",), ()),
        ("z", ("x",), ()),
    ])


def sign_at(lexicon: Lexicon, phrase: str, tokens: list[str], position: int,
            arity: int | None = None):
    """The unique lexical sign for ``phrase`` anchored at ``position``.

    ``arity`` disambiguates verbs with several valence frames by their
    COMPS length (erzählen ships with two).
    """
    matches = [
        sign
        for span, sign in lexicon.lookup(tokens, position)
        if " ".join(tokens[position:position + span]) == phrase
        and (arity is None or sign.facts.comps_len == arity)
    ]
    assert matches, f"no entry for {phrase!r} at {position}"
    assert len(matches) == 1, f"ambiguous entry for {phrase!r}"
    return matches[0]


def signs_at(lexicon: Lexicon, tokens: list[str], position: int):
    return [sign for _, sign in lexicon.lookup(tokens, position)]


def corpus_sentences() -> list[list[str]]:
    """The tokens of each sentence of the bundled corpus."""
    from vorfeld.cli import parse_corpus_line, tokenize_sentence
    from vorfeld.lexicon import corpus_text
    lines = [parse_corpus_line(n, raw) for n, raw in enumerate(corpus_text().splitlines(), 1)]
    return [tokenize_sentence(line.sentence) for line in lines if line is not None]
