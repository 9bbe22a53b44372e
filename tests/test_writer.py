"""``avm.print_fs`` gives exactly the reference printer's text
(``writer_oracle.py``: an s-expression tree, then the recursive writer) on
random structures and their unifications at random widths, and on every
entry, template and corpus reading of the bundled fragment."""
from __future__ import annotations

import pytest
from conftest import corpus_sentences
from fsgen import StructureGen
from hypothesis import given, settings
from hypothesis import strategies as st

import writer_oracle
from vorfeld import avm
from vorfeld.parser import enumerate_readings, parse
from vorfeld.tfs import unify

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

SEEDS = st.integers(0, 2**32 - 1)
WIDTHS = st.integers(1, 120)


def _structures(hierarchy, seed):
    """Two random reentrant structures on ``hierarchy`` and, if any, their unification."""
    gen = StructureGen(hierarchy, seed)
    a, b = gen.structure(), gen.structure()
    ab = unify(a, b, hierarchy)
    return (a, b) if ab is None else (a, b, ab)


def _holds_to_the_reference(structures, width, indent):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(avm, "WIDTH", width)
        for fs in structures:
            assert avm.print_fs(fs, indent) == writer_oracle.print_fs(fs, indent, width)


@SETTINGS
@given(SEEDS, WIDTHS)
def test_print_fs_equals_the_reference(diamond, seed, width):
    _holds_to_the_reference(_structures(diamond, seed), width, indent=True)


@SETTINGS
@given(SEEDS, WIDTHS)
def test_flat_print_fs_equals_the_reference(diamond, seed, width):
    _holds_to_the_reference(_structures(diamond, seed), width, indent=False)


def test_every_entry_and_template_prints_as_the_reference(fragment):
    structures = [entry.fs for entry in fragment.entries] + list(fragment.templates.values())
    for indent in (True, False):
        _holds_to_the_reference(structures, avm.WIDTH, indent)


def test_every_corpus_reading_prints_as_the_reference(fragment):
    readings = 0
    for tokens in corpus_sentences():
        for derivation, text in enumerate_readings(parse(tokens, fragment).derivations):
            fs = derivation.sign.fs
            assert text == writer_oracle.print_fs(fs)
            assert avm.print_fs(fs, indent=False) == writer_oracle.print_fs(fs, indent=False)
            readings += 1
    assert readings > 0
