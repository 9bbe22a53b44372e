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


LINES = [_phonologies(tokens) for tokens in corpus_sentences()]
BAGS = LINES + [_phonologies(sentence.split()) for sentence in ADJUNCT_INSERTIONS]


@st.composite
def _moved(draw, units):
    """``units`` with one or two of them moved elsewhere (perhaps back)."""
    units = list(units)
    for _ in range(draw(st.integers(1, 2))):
        unit = units.pop(draw(st.integers(0, len(units) - 1)))
        units.insert(draw(st.integers(0, len(units))), unit)
    return units


# The entries of a corpus line or an adjunct insertion in any order, which
# keeps the readings within reach (criterion 2's bag has 28 accepted orders
# of 5,040); a corpus line's entries in their own order with one or two
# moved, which keeps many inputs readable and their charts small (an
# adjunct insertion's closure takes ten times as long); or 2-6 entries of
# the lexicon, which mostly give dead charts.
SENTENCES = st.one_of(
    st.sampled_from(BAGS).flatmap(st.permutations),
    st.sampled_from(LINES).flatmap(_moved),
    st.lists(st.sampled_from(sorted({entry.phon for entry in LEXICON.words()})),
             min_size=2, max_size=6),
).map(lambda units: [token for unit in units for token in unit])


def _draw(examples: int, check) -> list:
    """``check(tokens)`` for each input of the derandomised draw of
    ``examples`` from ``SENTENCES``, in order."""
    results = []

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(tokens=SENTENCES)
    def run(tokens):
        results.append(check(tokens))

    run()
    return results


def _check_chart(fragment, tokens) -> bool:
    """The chart is the closure; whether it holds a reading."""
    result = parse(tokens, fragment)
    assert _by_key(result.edges) == _by_key(closure(tokens, fragment))
    return result.readings > 0


def _check_trace_chart(fragment, tokens):
    limit = 200
    chart = parse(tokens, fragment, ParseOptions(mode=TRACE, edge_limit=limit)).edges
    reference = closure(tokens, fragment, mode=TRACE, edge_limit=limit)
    assert ([(e.key(), _row(chart, e)) for e in chart]
            == [(e.key(), _row(reference, e)) for e in reference])


def test_generated_chart_is_the_closure(fragment):
    """The draw gives 9 of its 40 inputs a reading, more than 1 in 8 (5 of
    40 before the pool of moved entries)."""
    with_reading = _draw(40, lambda tokens: _check_chart(fragment, tokens))
    assert (sum(with_reading), len(with_reading)) == (9, 40)


def test_generated_trace_chart_is_the_closure_up_to_the_limit(fragment):
    _draw(40, lambda tokens: _check_trace_chart(fragment, tokens))


@pytest.mark.slow
def test_generated_chart_is_the_closure_slow(fragment):
    with_reading = _draw(400, lambda tokens: _check_chart(fragment, tokens))
    assert sum(with_reading) * 8 > len(with_reading) == 400


@pytest.mark.slow
def test_generated_trace_chart_is_the_closure_up_to_the_limit_slow(fragment):
    _draw(400, lambda tokens: _check_trace_chart(fragment, tokens))
