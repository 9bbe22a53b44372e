"""``grammar._facts`` against its path-by-path reference (facts_oracle).

The one-descent reading must give every structure the facts the reference
gives it: each chart sign of the corpus run and of the criterion-2 trace
chart, each rebuilt root read from its SYNSEM node, and synsems whose
geometry is broken where a descent might take a wrong turn.
"""
from __future__ import annotations

import json
import os

import pytest

import facts_oracle
from vorfeld import cli, grammar
from vorfeld.avm import read_fs
from vorfeld.grammar import P_SYNSEM
from vorfeld.lexicon import corpus_text
from vorfeld.parser import TRACE, ParseOptions, parse, replay

PINS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "adjunct_pins.json")


def _assert_facts_of_chart(hierarchy, edges) -> int:
    """Check each chart sign once; the number of signs checked."""
    signs = {id(e.sign): e.sign for e in edges}.values()
    for sign in signs:
        assert sign.facts == facts_oracle.facts(hierarchy, sign.fs)
        assert grammar._facts(hierarchy, sign.fs) == sign.facts
    return len(signs)


@pytest.fixture(scope="module")
def corpus_results(fragment):
    """The parse result of each line of one ``run_corpus`` call."""
    results = []

    def recorded(*args, **kwargs):
        results.append(parse(*args, **kwargs))
        return results[-1]

    original, cli.parse = cli.parse, recorded
    try:
        cli.run_corpus(fragment, corpus_text())
    finally:
        cli.parse = original
    return results


def test_every_chart_sign_of_the_corpus_run(fragment, corpus_results):
    assert len(corpus_results) == 12
    assert sum(_assert_facts_of_chart(fragment.hierarchy, r.edges) for r in corpus_results) > 400


def test_every_chart_sign_of_the_trace_chart(fragment):
    tokens = "Erzählen wird er seiner Tochter ein Märchen".split()
    result = parse(tokens, fragment, ParseOptions(mode=TRACE, edge_limit=10000))
    assert len(result.edges) == 10000
    assert _assert_facts_of_chart(fragment.hierarchy, result.edges) > 100


def test_every_rebuilt_corpus_root_from_its_synsem(fragment, corpus_results):
    hierarchy = fragment.hierarchy
    roots = [replay(d) for r in corpus_results for d in r.derivations]
    assert len(roots) == sum(r.readings for r in corpus_results) > 0
    for root in roots:
        synsem = root.fs.resolve(P_SYNSEM)
        assert synsem != 0
        assert root.facts == facts_oracle.facts(hierarchy, root.fs, synsem)


NONLOC = "(NONLOC (nonlocal (INHER (inherited (SLASH (set))))))"
CAT = "(CAT (cat (COMPS (list)) (HEAD (verb (SUBJ (list)) (VFORM fin))) (VCOMP none)))"
# a complement whose COMPS is open and whose SLASH is a list, not a set
ODD_COMPLEMENT = ("(synsem (LOC (local (CAT (cat (COMPS (openlist))))))"
                  " (NONLOC (nonlocal (INHER (inherited (SLASH (list)))))))")

# broken geometry, each read unchecked: (synsem text, a fact it must give)
MALFORMED = {
    "no LOC": (f"(synsem (LEX -) {NONLOC})", ("comps_kind", None)),
    "CAT an atom": (f"(synsem (LOC (local (CAT cat))) {NONLOC})", ("head_ext", -1)),
    "COMPS an AVM": (f"(synsem (LOC (local {CAT.replace('(COMPS (list))', '(COMPS none)')})) {NONLOC})",
                     ("comps_kind", "avm")),
    "SLASH a closed list": (f"(synsem (LOC (local {CAT})) {NONLOC.replace('(set)', '(list (local) (local))')})",
                            ("slash", 2)),
    "HEAD a list": (f"(synsem (LOC (local {CAT.replace('(verb (SUBJ (list)) (VFORM fin))', '(list)')})) "
                    f"{NONLOC})", ("order", None)),
    "MOD a set": (f"(synsem (LOC (local (CAT (cat (HEAD (adv (MOD (set)))))))) {NONLOC})",
                  ("has_mod", True)),
    "no NONLOC": (f"(synsem (LOC (local {CAT})))", ("slash", None)),
    "a complement without LOC": (f"(synsem (LOC (local {CAT.replace('(COMPS (list))', '(COMPS (list synsem))')})) "
                                 f"{NONLOC})", ("comps_last_head_ext", -1)),
    "a complement with open COMPS and SLASH a list": (
        f"(synsem (LOC (local {CAT.replace('(COMPS (list))', '(COMPS (list ' + ODD_COMPLEMENT + '))')})) "
        f"{NONLOC})", ("comps_last_slash_ext", -1)),
    "COMPS an open list": (f"(synsem (LOC (local {CAT.replace('(COMPS (list))', '(COMPS (openlist synsem))')})) "
                           f"{NONLOC})", ("comps_ext", -1)),
    "a selected VCOMP without LOC": (
        f"(synsem (LEX +) (LOC (local {CAT.replace('(VCOMP none)', '(VCOMP (synsem (LEX -)))')})) "
        f"{NONLOC})", ("vcomp_vform_ext", -1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_synsems(fragment, case):
    text, (name, value) = MALFORMED[case]
    fs = read_fs(text, fragment.hierarchy, check=False)
    facts = grammar._facts(fragment.hierarchy, fs)
    assert facts == facts_oracle.facts(fragment.hierarchy, fs)
    assert getattr(facts, name) == value


@pytest.mark.slow
def test_every_chart_sign_of_the_adjunct_pins(fragment):
    with open(PINS, encoding="utf-8") as f:
        pins = {sentence: n for sentence, n in json.load(f).items() if n}
    assert len(pins) == 48
    for sentence, readings in pins.items():
        result = parse(sentence.split(), fragment)
        assert result.readings == readings
        _assert_facts_of_chart(fragment.hierarchy, result.edges)
