"""The parser's chart equals the grammar's closure (see ``oracle.py``)."""
import pytest

from conftest import corpus_sentences
from oracle import closure
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
