"""The benchmark's three workloads: their inputs, one timed pass, and its checks.

``make_inputs`` runs in the benchmark's parent process and turns a seed
into plain data.  ``run_pass`` runs in a fresh worker interpreter; the
parser there receives only tokens.  Every check runs after the timed
region and never inside it.

* ``corpus``: ``cli.run_corpus`` over the bundled corpus, which is what
  ``vorfeld corpus`` does: licensing mode, verdicts only.  Small charts,
  extraction-bound.  The seed does not change the input.
* ``adjunct``: each adjunct-free ``OK`` corpus line of at least eight
  tokens (the five clauses with a two-verb cluster) with exactly one
  adjunct, *morgen* or *mit diesem Messer*, inserted at a seeded
  lexical-entry boundary.  Every reading's derivation and AVM are printed,
  as ``vorfeld parse --print-avm --print-derivation`` does, and every
  derivation is replayed.  Charts of about 720-870 edges and 4-18
  readings.  One insertion per sentence, never two: *Erzählen müssen wird
  er morgen seiner Tochter mit diesem Messer ein Märchen* builds 12,645
  edges in 52 s (2-core x86 VM), longer than a whole run.
* ``trace``: ``demonstrate_trace_mode`` on the acceptance-criterion-2
  sentence, run to the 10,000-edge limit.  Pairing-bound.  The seed does
  not change the input.

Some lexical-entry boundaries are places German word order does not
allow an adjunct (before the clause, inside the clause-final verb
cluster, after the last verb), and a sentence with no reading would skip
the printing and replay this workload exists to measure.  So the
generator draws only from the insertions that parse.  ``adjunct_pins.json`` lists
every insertion with its reading count at the commit that defined the
benchmark; rebuild it with ``python3 perfbench/workloads.py`` (run from
the repository root, about two minutes) when the grammar changes on
purpose.
"""
from __future__ import annotations

import io
import json
import os
import random
import sys
import time

import reference

ADJUNCTS = (("morgen",), ("mit", "diesem", "Messer"))
ADJUNCT_MIN_TOKENS = 8  # the corpus clauses with a two-verb cluster; 7-token ones stay corpus-sized
TRACE_SENTENCE = "Erzählen wird er seiner Tochter ein Märchen."
TRACE_EDGE_LIMIT = 10000
PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "adjunct_pins.json")


# ---------------------------------------------------------------------------
# inputs (parent process)


def entry_boundaries(tokens: list[str], lexicon) -> list[int]:
    """Positions 0..n that no multiword lexical entry spans across."""
    inside: set[int] = set()
    for pos in range(len(tokens)):
        for span, _sign in lexicon.lookup(tokens, pos):
            inside.update(range(pos + 1, pos + span))
    return [b for b in range(len(tokens) + 1) if b not in inside]


def _has_adjunct(tokens: list[str], lexicon) -> bool:
    return any(sign.facts.has_mod
               for pos in range(len(tokens))
               for _span, sign in lexicon.lookup(tokens, pos))


def adjunct_insertions(lexicon) -> list[list[dict]]:
    """Per base corpus line, every one-adjunct insertion at an entry boundary."""
    from vorfeld.cli import parse_corpus_line, tokenize_sentence
    from vorfeld.lexicon import corpus_text

    out = []
    for number, raw in enumerate(corpus_text().splitlines(), 1):
        line = parse_corpus_line(number, raw)
        if line is None or line.verdict == "BAD":
            continue
        base = tokenize_sentence(line.sentence)
        if len(base) < ADJUNCT_MIN_TOKENS or _has_adjunct(base, lexicon):
            continue
        out.append([{"tokens": base[:at] + list(adjunct) + base[at:], "line": number,
                     "adjunct": " ".join(adjunct), "boundary": at}
                    for adjunct in ADJUNCTS for at in entry_boundaries(base, lexicon)])
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's input as plain data, plus what the checks need."""
    from vorfeld.cli import tokenize_sentence
    from vorfeld.lexicon import corpus_text, load_fragment

    if workload == "corpus":
        return {"corpus": corpus_text()}
    if workload == "trace":
        return {"sentences": [{"tokens": tokenize_sentence(TRACE_SENTENCE)}]}
    if workload == "adjunct":
        with open(PINS_FILE, encoding="utf-8") as handle:
            pins = json.load(handle)
        rng = random.Random(seed)
        sentences = []
        for insertions in adjunct_insertions(load_fragment()):
            for insertion in insertions:
                text = " ".join(insertion["tokens"])
                if text not in pins:
                    raise ValueError(f"{PINS_FILE} has no reading count for {text!r}")
                insertion["pinned_readings"] = pins[text]
            parsing = [i for i in insertions if i["pinned_readings"] > 0]
            sentences.append(rng.choice(parsing))
        return {"sentences": sentences}
    raise ValueError(f"unknown workload {workload!r}")


def write_pins() -> None:
    """Parse every insertion the generator may use and store its reading count."""
    from vorfeld.lexicon import load_fragment
    from vorfeld.parser import parse

    lexicon = load_fragment()
    pins = {}
    for insertions in adjunct_insertions(lexicon):
        for insertion in insertions:
            pins[" ".join(insertion["tokens"])] = parse(insertion["tokens"], lexicon).readings
    with open(PINS_FILE, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, ensure_ascii=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# one pass (worker process)


def run_pass(workload: str, inputs: dict, lexicon, host: dict, tracer=None) -> dict:
    """Run the input set once; return timings, failed checks and the traced phase.

    Chunks of the reference workload are timed into ``host`` before each
    sentence (before the corpus run) and after the last one.  Sentences of
    ``adjunct`` and ``trace`` take seconds, so untraced passes also sample
    the host inside each one (``reference.During``) and leave the chunks'
    time out of the sentence's; traced passes do not, so that no span
    carries a chunk.  ``run_corpus`` times its sentences itself and runs
    under one second, so ``corpus`` is sampled only around it.
    """
    from vorfeld import cli, parser

    def tracing(on: bool) -> None:
        if tracer is not None:
            tracer.active = on

    wall_ms: list[float] = []
    problems: list[str] = []
    failed = 0
    readings = []
    if workload == "corpus":
        reference.sample(host)
        cpu = time.process_time()
        tracing(True)
        report = cli.run_corpus(lexicon, inputs["corpus"])
        tracing(False)
        cpu_ms = (time.process_time() - cpu) * 1000.0
        reference.sample(host)
        for outcome in report.outcomes:
            wall_ms.append(outcome.millis)
            readings.append(outcome.readings)
            if not outcome.passed:
                failed += 1
                problems.append(f"line {outcome.line.number}: verdict {outcome.line.verdict}, "
                                f"got {outcome.error or outcome.readings}")
    else:
        cpu_ms = 0.0
        sink = io.StringIO()
        for sentence in inputs["sentences"]:
            tokens = sentence["tokens"]
            reference.sample(host)
            during = reference.During(host if tracer is None else None)
            tracing(True)
            cpu = time.process_time()
            start = time.perf_counter()
            with during:
                if workload == "adjunct":
                    result = parser.parse(tokens, lexicon)
                    rendered = _render_readings(result, sink)
                else:
                    result = parser.demonstrate_trace_mode(tokens, lexicon,
                                                           edge_limit=TRACE_EDGE_LIMIT)
            wall_ms.append((time.perf_counter() - start) * 1000.0 - during.spent_wall_ms)
            cpu_ms += (time.process_time() - cpu) * 1000.0 - during.spent_cpu_ms
            tracing(False)
            if workload == "adjunct":
                readings.append(result.readings)
                found = _check_adjunct(sentence, result, rendered, lexicon)
            else:
                found = _check_trace(tokens, result, lexicon)
            problems.extend(found)
            failed += bool(found)
            sink.seek(0)
            sink.truncate()
        reference.sample(host)
    return {"wall_ms": wall_ms, "cpu_ms": cpu_ms, "failed": failed, "problems": problems,
            "readings": readings, "work": tracer.take() if tracer is not None else None}


def _render_readings(result, sink: io.StringIO) -> list:
    """What ``vorfeld parse --print-avm --print-derivation`` prints, plus replay."""
    from vorfeld import cli, parser

    out = []
    for i, (derivation, avm) in enumerate(parser.enumerate_readings(result.derivations), 1):
        print(f"-- derivation {i}", file=sink)
        cli._print_derivation(derivation, result.clause_type, sink)
        print(f"-- avm {i}", file=sink)
        print(avm, file=sink)
        out.append((derivation, avm, parser.replay(derivation)))
    return out


# ---------------------------------------------------------------------------
# checks (worker process, outside the timed region)


def _check_adjunct(sentence: dict, result, readings: list, lexicon) -> list[str]:
    from vorfeld.avm import read_fs
    from vorfeld.tfs import fs_equal

    text = " ".join(sentence["tokens"])
    problems = []
    if result.limit_hit:
        problems.append(f"{text!r}: edge limit hit in licensing mode")
    if result.readings != sentence["pinned_readings"]:
        problems.append(f"{text!r}: {result.readings} readings, "
                        f"pinned {sentence['pinned_readings']}")
    for i, (derivation, avm, replayed) in enumerate(readings, 1):
        root = derivation.sign
        if replayed is None or not fs_equal(replayed.fs, root.fs):
            problems.append(f"{text!r} reading {i}: replay diverges from the root")
        if not fs_equal(read_fs(avm, lexicon.hierarchy), root.fs):
            problems.append(f"{text!r} reading {i}: printed AVM does not round-trip")
        if list(root.dom.phon()) != sentence["tokens"]:
            problems.append(f"{text!r} reading {i}: root phonology differs from the tokens")
    return problems


def _check_trace(tokens: list[str], report, lexicon) -> list[str]:
    """Acceptance criterion 2: trace mode explodes, licensing mode stays closed."""
    from vorfeld.grammar import check_comps_closed
    from vorfeld.parser import ParseOptions, parse

    problems = []
    if not report.limit_hit:
        problems.append("trace mode did not reach its edge limit")
    if report.open_comps_edges < 1 or not report.sample_open_comps_avm:
        problems.append("trace mode built no open-valence edge")
    licensing = parse(tokens, lexicon, ParseOptions(edge_limit=TRACE_EDGE_LIMIT))
    if licensing.limit_hit:
        problems.append("licensing mode hit the edge limit")
    if licensing.open_comps_rejected or any(not check_comps_closed(e.sign)
                                            for e in licensing.edges):
        problems.append("licensing mode built an open-valence edge")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(PINS_FILE)), "src"))
    write_pins()
