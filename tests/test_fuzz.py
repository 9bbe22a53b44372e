"""Malformed input fuzzing: only the documented exception types escape.

Each reader gets mutations of well-formed text (a span deleted, duplicated
or replaced by characters the syntax gives meaning to) and arbitrary text.
The documented errors are ``SexprError`` for ``sexpr.parse_all``,
``AvmSyntaxError`` for ``read_fs``, ``LexiconError`` for ``load_lexicon``
and ``ValueError`` for ``parse_corpus_line``; anything else fails, a
``SexprError`` escaping one of the last three included.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vorfeld.avm import AvmSyntaxError, print_fs, read_fs
from vorfeld.cli import parse_corpus_line
from vorfeld.lexicon import LexiconError, corpus_text, fragment_text, load_fragment, load_lexicon
from vorfeld.sexpr import SexprError, parse_all

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SYNTAX = st.sampled_from(list('()"#=; \n\t') + ["#1=", "#1#", "list", "set", "append",
                                                 "openlist", "OK", "BAD", "OK=", "x"])

FRAGMENT = load_fragment()
AVMS = [print_fs(entry.fs) for entry in FRAGMENT.words()[:12]]
CORPUS_LINES = [line for line in corpus_text().splitlines() if line.strip()]


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with up to three spans deleted, doubled or replaced."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        action = draw(st.sampled_from(["delete", "double", "replace"]))
        if action == "delete":
            text = text[:i] + text[j:]
        elif action == "double":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + "".join(draw(st.lists(SYNTAX, max_size=4))) + text[j:]
    return text


def inputs(texts):
    return st.one_of(mutated(texts), st.text(max_size=60),
                     st.lists(SYNTAX, max_size=30).map("".join))


@FUZZ
@given(inputs(AVMS))
def test_parse_all_raises_only_sexpr_errors(text):
    try:
        parse_all(text)
    except SexprError:
        pass


@FUZZ
@given(inputs(AVMS))
def test_read_fs_raises_only_avm_syntax_errors(text):
    try:
        read_fs(text, FRAGMENT.hierarchy)
    except AvmSyntaxError:
        pass


@FUZZ
@given(inputs([fragment_text()]))
def test_load_lexicon_raises_only_lexicon_errors(text):
    try:
        load_lexicon(text)
    except LexiconError:
        pass


@FUZZ
@given(inputs(CORPUS_LINES))
def test_parse_corpus_line_raises_only_value_errors(raw):
    try:
        parse_corpus_line(1, raw)
    except ValueError:
        pass

