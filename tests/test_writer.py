"""``sexpr.write`` and ``sexpr.write_flat`` give exactly the reference
writer's text (``writer_oracle.py``) on random forms, widths and indents."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import writer_oracle
from vorfeld.sexpr import SList, Symbol, write, write_flat

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# short names, some with the whitespace a broken line's head symbol drops
TEXT = st.text(alphabet="ab#=( \t", max_size=6)
ATOMS = st.one_of(st.builds(Symbol, TEXT), TEXT)


def _extend(children):
    lists = st.lists(children, max_size=6).map(lambda items: SList(tuple(items)))
    headed = st.tuples(st.builds(Symbol, TEXT), st.lists(children, max_size=5)).map(
        lambda pair: SList((pair[0], *pair[1])))
    # one subform object reached twice, as printed AVMs never have but forms may
    shared = children.map(lambda form: SList((Symbol("pair"), form, form)))
    return st.one_of(lists, headed, shared)


FORMS = st.recursive(ATOMS, _extend, max_leaves=80)


@SETTINGS
@given(FORMS, st.integers(0, 10), st.integers(1, 120))
def test_write_equals_the_reference(form, indent, width):
    assert write(form, indent, width) == writer_oracle.write(form, indent, width)


@SETTINGS
@given(FORMS)
def test_write_flat_equals_the_reference(form):
    assert write_flat(form) == writer_oracle._write_flat(form)
