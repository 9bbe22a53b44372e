"""Acceptance gate: every criterion as one test with a printed verdict.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""
from __future__ import annotations

import time

from conftest import sign_at
from fsgen import structure_pairs, structure_triples
from vorfeld.avm import print_fs, read_fs
from vorfeld.cli import run_corpus, tokenize_sentence
from vorfeld.grammar import (
    P_SYNSEM,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    apply_head_complement,
    apply_pvp_slash_introduction,
    apply_verb_cluster,
    check_comps_closed,
)
from vorfeld.lexicon import corpus_text
from vorfeld.parser import Derivation, ParseOptions, demonstrate_trace_mode, parse, replay
from vorfeld.tfs import fs_equal, path_get, subsumes, unify

SENTENCES = [line.split("\t", 1)[1] for line in corpus_text().splitlines()
             if line and not line.startswith("#")]


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{title}]: {status}{suffix}")


def test_criterion_1_corpus_verdicts(fragment):
    start = time.perf_counter()
    report = run_corpus(fragment, corpus_text())
    total = time.perf_counter() - start
    slowest = max(o.millis for o in report.outcomes)
    ok = report.passed and slowest < 1000.0 and total < 30.0
    _verdict(1, "corpus verdicts", ok,
             f"{report.totals[0]}/{report.totals[1]} lines, "
             f"slowest {slowest:.0f} ms, total {total:.1f} s")
    assert report.passed, [o.line.sentence for o in report.outcomes if not o.passed]
    assert slowest < 1000.0
    assert total < 30.0


def test_criterion_2_underspecified_comps_reproduction(fragment):
    tokens = tokenize_sentence("Erzählen wird er seiner Tochter ein Märchen.")
    start = time.perf_counter()
    trace_report = demonstrate_trace_mode(tokens, fragment, edge_limit=10000)
    elapsed = time.perf_counter() - start
    licensing = parse(tokens, fragment, ParseOptions(edge_limit=10000))
    licensing_offenders = [e for e in licensing.edges
                           if not check_comps_closed(e.sign)]
    ok = (trace_report.limit_hit and trace_report.open_comps_edges >= 1
          and not licensing.limit_hit and not licensing_offenders
          and licensing.open_comps_rejected == 0 and elapsed < 10.0)
    _verdict(2, "underspecified COMPS reproduction", ok,
             f"trace: limit hit with {trace_report.open_comps_edges} open-valence edges "
             f"in {elapsed:.1f} s; licensing: {len(licensing.edges)} edges, 0 open")
    assert trace_report.limit_hit
    assert trace_report.open_comps_edges >= 1
    assert trace_report.sample_open_comps_avm
    assert not licensing.limit_hit
    assert licensing_offenders == []
    assert licensing.open_comps_rejected == 0
    assert elapsed < 10.0


def test_criterion_3_unification_property_suite(diamond):
    cases = 0
    failures: list[str] = []

    for a, b in structure_pairs(diamond, seed=11, count=220):
        cases += 1
        ab, ba = unify(a, b, diamond), unify(b, a, diamond)
        if (ab is None) != (ba is None) or (ab is not None and not fs_equal(ab, ba)):
            failures.append("commutativity")
    for a, _ in structure_pairs(diamond, seed=22, count=220):
        cases += 1
        aa = unify(a, a, diamond)
        if aa is None or not fs_equal(aa, a):
            failures.append("idempotence")
    for a, b in structure_pairs(diamond, seed=33, count=220):
        cases += 1
        r = unify(a, b, diamond)
        if r is not None and not (subsumes(a, r, diamond) and subsumes(b, r, diamond)):
            failures.append("monotonicity")
    for a, b, c in structure_triples(diamond, seed=44, count=220):
        cases += 1
        ab = unify(a, b, diamond)
        left = unify(ab, c, diamond) if ab is not None else None
        bc = unify(b, c, diamond)
        right = unify(a, bc, diamond) if bc is not None else None
        if (left is None) != (right is None) or (
                left is not None and not fs_equal(left, right)):
            failures.append("associativity")
    for a, b in structure_pairs(diamond, seed=55, count=110):
        for fs in (a, b):
            cases += 1
            if not fs_equal(read_fs(print_fs(fs), diamond), fs):
                failures.append("round-trip")

    ok = not failures and cases >= 1000
    _verdict(3, "unification property suite", ok, f"{cases} randomized cases")
    assert cases >= 1000
    assert failures == []


def test_criterion_4_schema_contracts(fragment):
    violations: list[str] = []
    for sentence in SENTENCES:
        tokens = tokenize_sentence(sentence)
        result = parse(tokens, fragment)
        for e in result.edges:
            f = e.sign.facts
            if e.schema == SCHEMA_VERB_CLUSTER:
                if f.lex != "+":
                    violations.append(f"cluster LEX {f.lex!r} in {sentence!r}")
                if f.vcomp != "none":
                    violations.append(f"cluster VCOMP {f.vcomp!r} in {sentence!r}")
                if f.comps_kind != "closed":
                    violations.append(f"cluster COMPS {f.comps_kind!r} in {sentence!r}")
                full = Derivation(e).sign  # chart signs carry no DTRS; rebuild them
                comp_dtrs = full.fs.nodes[full.fs.resolve(("DTRS", "COMP-DTRS"))]
                if comp_dtrs.elems != ():
                    violations.append(f"cluster with complement daughters in {sentence!r}")
            elif e.schema == SCHEMA_SLASH_INTRO:
                if e.sign.dom != e.daughters[0].sign.dom:
                    violations.append(f"licenser material leaked in {sentence!r}")

    # the LEX asymmetry: clustering rejects what licensing accepts
    tokens = "Ein Märchen erzählen wird er seiner Tochter müssen".split()
    erz3 = sign_at(fragment, "Ein Märchen", tokens, 0)
    verb = sign_at(fragment, "erzählen", tokens, 2, arity=2)
    vp = apply_head_complement(verb, erz3)
    muessen = sign_at(fragment, "müssen", tokens, 7)
    if vp.facts.lex != "-":
        violations.append("partial VP should be LEX -")
    if apply_verb_cluster(muessen, vp) is not None:
        violations.append("cluster schema accepted a LEX - daughter")
    if apply_pvp_slash_introduction(muessen, vp) is None:
        violations.append("licensing schema rejected a LEX - projection")

    _verdict(4, "schema contracts", not violations,
             "all cluster/licensing edges over the corpus")
    assert violations == []


def test_criterion_5_linearization_invariants(fragment):
    violations: list[str] = []
    for sentence in SENTENCES:
        tokens = tuple(tokenize_sentence(sentence))
        result = parse(list(tokens), fragment)
        for d in result.derivations:
            if d.sign.dom.phon() != tokens:
                violations.append(f"surface mismatch in {sentence!r}")
        for e in result.edges:
            if not e.daughters:
                continue
            union = 0
            overlap = False
            for dtr in e.daughters:
                overlap = overlap or bool(union & dtr.coverage)
                union |= dtr.coverage
            if overlap:
                violations.append(f"overlapping daughters in {sentence!r}")
            if e.schema == SCHEMA_SLASH_INTRO:
                if e.coverage != e.daughters[0].coverage or e.coverage == union:
                    violations.append(f"slash-intro coverage wrong in {sentence!r}")
            elif e.coverage != union:
                violations.append(f"coverage not conserved in {sentence!r}")
    _verdict(5, "linearization and coverage", not violations,
             "every accepted parse reproduces its input")
    assert violations == []


def test_criterion_6_derivation_replay(fragment):
    divergences = 0
    derivations = 0
    for sentence in SENTENCES:
        tokens = tokenize_sentence(sentence)
        result = parse(tokens, fragment)
        for d in result.derivations:
            derivations += 1
            again, chart = replay(d), d.root.sign
            if (again is None or not again.fs.has_path(("DTRS",))
                    or not fs_equal(path_get(again.fs, P_SYNSEM), chart.fs)
                    or again.dom != chart.dom or not check_comps_closed(again)):
                divergences += 1
    ok = divergences == 0 and derivations > 0
    _verdict(6, "derivation replay", ok,
             f"{derivations} derivations replayed, {divergences} divergences")
    assert derivations > 0
    assert divergences == 0
