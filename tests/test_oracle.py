"""The parser's chart equals the grammar's closure (see ``oracle.py``)."""
import pytest

from conftest import corpus_sentences
from oracle import closure
from vorfeld.parser import parse

# one-adjunct insertions from perfbench/adjunct_pins.json: a fronted partial
# cluster, a Mittelfeld sentence and a verb-final clause
ADJUNCT_INSERTIONS = (
    "Erzählen müssen wird er seiner Tochter morgen ein Märchen",
    "Er wird seiner Tochter ein Märchen mit diesem Messer erzählen müssen",
    "weil er ihr ein Märchen morgen erzählen müssen wird",
)


def _by_key(edges):
    """Each edge's derivation key, mapped to what the chart holds under it."""
    chart = {e.key(): (e.coverage, e.sign.fs.nodes, e.sign.dom) for e in edges}
    assert len(chart) == len(edges), "two edges share a derivation"
    return chart


@pytest.mark.parametrize("sentence", [" ".join(s) for s in corpus_sentences()]
                         + list(ADJUNCT_INSERTIONS))
def test_chart_is_the_closure(fragment, sentence):
    tokens = sentence.split()
    assert _by_key(parse(tokens, fragment).edges) == _by_key(closure(tokens, fragment))
