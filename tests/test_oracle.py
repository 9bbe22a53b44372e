"""The parser's chart equals the grammar's closure (see ``oracle.py``)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_sentences
from oracle import closure
from vorfeld.lexicon import load_fragment
from vorfeld.parser import TRACE, ParseOptions, parse

# one-adjunct insertions from perfbench/adjunct_pins.json: a fronted partial
# cluster, a Mittelfeld sentence and a verb-final clause
ADJUNCT_INSERTIONS = (
    "Erzählen müssen wird er seiner Tochter morgen ein Märchen",
    "Er wird seiner Tochter ein Märchen mit diesem Messer erzählen müssen",
    "weil er ihr ein Märchen morgen erzählen müssen wird",
)


def _row(edges, e):
    """What the chart holds under ``e``'s derivation key, its licenser by key."""
    licenser = None if e.licenser_id is None else edges[e.licenser_id].key()
    return e.coverage, e.sign.fs.nodes, e.sign.dom, licenser


def _by_key(edges):
    """Each edge's derivation key, mapped to what the chart holds under it."""
    chart = {e.key(): _row(edges, e) for e in edges}
    assert len(chart) == len(edges), "two edges share a derivation"
    return chart


@pytest.mark.parametrize("sentence", [" ".join(s) for s in corpus_sentences()]
                         + list(ADJUNCT_INSERTIONS))
def test_chart_is_the_closure(fragment, sentence):
    tokens = sentence.split()
    assert _by_key(parse(tokens, fragment).edges) == _by_key(closure(tokens, fragment))


def test_trace_chart_is_the_closure_up_to_the_limit(fragment):
    """With traces the closure is finite but large (10,608 edges).  The
    parser meets the edges in the closure's order, so up to an edge limit
    both hold the same edges under the same ids."""
    tokens = "Erzählen wird er seiner Tochter ein Märchen".split()
    limit = 800
    chart = parse(tokens, fragment, ParseOptions(mode=TRACE, edge_limit=limit)).edges
    reference = closure(tokens, fragment, mode=TRACE, edge_limit=limit)
    assert len(chart) == len(reference) == limit
    assert ([(e.key(), _row(chart, e)) for e in chart]
            == [(e.key(), _row(reference, e)) for e in reference])


LEXICON = load_fragment()


def _phonologies(tokens):
    """``tokens`` cut into the phonologies of lexical entries, longest first."""
    units, pos = [], 0
    while pos < len(tokens):
        span = max(span for span, _sign in LEXICON.lookup(tokens, pos))
        units.append(tuple(tokens[pos:pos + span]))
        pos += span
    return units


BAGS = [_phonologies(tokens) for tokens in corpus_sentences()]
BAGS += [_phonologies(sentence.split()) for sentence in ADJUNCT_INSERTIONS]

# The entries of a corpus line or an adjunct insertion in any order, which
# keeps the readings within reach (criterion 2's bag has 28 accepted orders
# of 5,040), or 2-6 entries of the lexicon, which mostly give dead charts.
SENTENCES = st.one_of(
    st.sampled_from(BAGS).flatmap(st.permutations),
    st.lists(st.sampled_from(sorted({entry.phon for entry in LEXICON.words()})),
             min_size=2, max_size=6),
).map(lambda units: [token for unit in units for token in unit])


def _generated(examples: int):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def _check_chart(fragment, tokens):
    assert _by_key(parse(tokens, fragment).edges) == _by_key(closure(tokens, fragment))


def _check_trace_chart(fragment, tokens):
    limit = 200
    chart = parse(tokens, fragment, ParseOptions(mode=TRACE, edge_limit=limit)).edges
    reference = closure(tokens, fragment, mode=TRACE, edge_limit=limit)
    assert ([(e.key(), _row(chart, e)) for e in chart]
            == [(e.key(), _row(reference, e)) for e in reference])


@_generated(40)
@given(tokens=SENTENCES)
def test_generated_chart_is_the_closure(fragment, tokens):
    _check_chart(fragment, tokens)


@_generated(40)
@given(tokens=SENTENCES)
def test_generated_trace_chart_is_the_closure_up_to_the_limit(fragment, tokens):
    _check_trace_chart(fragment, tokens)


@pytest.mark.slow
@_generated(400)
@given(tokens=SENTENCES)
def test_generated_chart_is_the_closure_slow(fragment, tokens):
    _check_chart(fragment, tokens)


@pytest.mark.slow
@_generated(400)
@given(tokens=SENTENCES)
def test_generated_trace_chart_is_the_closure_up_to_the_limit_slow(fragment, tokens):
    _check_trace_chart(fragment, tokens)
