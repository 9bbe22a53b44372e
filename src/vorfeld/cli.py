"""Command-line front end: parse single sentences, run the regression corpus.

Exit codes for ``parse``: 0 with at least one reading, 1 with none, 2 on
errors (bad flags, lexicon trouble, unknown words).  ``corpus`` exits 0
only when every line meets its verdict.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .grammar import SchemaMemo
from .lexicon import Lexicon, LexiconError, corpus_text, fragment_text, load_lexicon
from .orderdomain import fields, mask_positions
from .parser import (
    Derivation,
    LexicalGapError,
    ParseOptions,
    ParseResult,
    enumerate_readings,
    parse,
)


@dataclass(frozen=True)
class CorpusLine:
    number: int
    verdict: str  # 'OK' | 'OK=n' | 'BAD'
    expected: Optional[int]  # exact count for OK=n, else None
    sentence: str


@dataclass
class LineOutcome:
    """How one corpus line fared; a line whose parse hit the edge limit
    (``limit_hit``) never passes, since its reading count is a lower bound."""

    line: CorpusLine
    readings: int
    passed: bool
    error: Optional[str]
    millis: float
    limit_hit: bool = False


@dataclass
class Report:
    outcomes: list[LineOutcome]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def totals(self) -> tuple[int, int]:
        good = sum(1 for o in self.outcomes if o.passed)
        return good, len(self.outcomes)


def tokenize_sentence(text: str) -> list[str]:
    """Whitespace tokenization after normalizing sentence punctuation.

    Strips one final '.', '!' or '?' and a leading comma (as written
    before subordinate clauses); German capitalization is preserved.
    """
    text = text.strip()
    if text.startswith(","):
        text = text[1:]
    text = text.strip()
    if text and text[-1] in ".!?":
        text = text[:-1]
    return text.split()


def parse_corpus_line(number: int, raw: str) -> Optional[CorpusLine]:
    """One ``VERDICT<TAB>sentence`` record; None for blanks and comments."""
    stripped = raw.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "\t" not in raw:
        raise ValueError(f"corpus line {number}: expected VERDICT<TAB>sentence")
    verdict, sentence = raw.split("\t", 1)
    verdict = verdict.strip()
    sentence = sentence.strip()
    expected: Optional[int] = None
    if verdict.startswith("OK="):
        try:
            expected = int(verdict[3:])
        except ValueError:
            raise ValueError(f"corpus line {number}: bad verdict {verdict!r}")
        if expected < 1:
            raise ValueError(f"corpus line {number}: OK=n requires n >= 1")
    elif verdict not in ("OK", "BAD"):
        raise ValueError(f"corpus line {number}: bad verdict {verdict!r}")
    if not tokenize_sentence(sentence):
        raise ValueError(f"corpus line {number}: empty sentence")
    return CorpusLine(number, verdict, expected, sentence)


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; undecodable bytes raise ValueError naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_lexicon_arg(path: Optional[str]) -> Lexicon:
    return load_lexicon(fragment_text() if path is None else _read_text(path))


def _print_derivation(derivation: Derivation, clause_type: str, out: TextIO) -> None:
    for line in derivation.tree_lines():
        print(line, file=out)
    print("fields:", file=out)
    dom = derivation.root.sign.dom
    for element, fld in zip(dom.elements, fields(dom, clause_type)):
        cov = ",".join(str(p) for p in mask_positions(element.coverage))
        print(f"  {fld:2s} [{cov}] {' '.join(element.phon)}", file=out)


def cmd_parse(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        lexicon = _load_lexicon_arg(args.lexicon)
        options = ParseOptions(mode=args.mode, edge_limit=args.edge_limit,
                               clause_type=args.clause_type)
    except (OSError, ValueError, LexiconError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    tokens = tokenize_sentence(args.sentence)
    if not tokens:
        print("error: empty sentence", file=err)
        return 2
    try:
        result = parse(tokens, lexicon, options)
    except LexicalGapError as exc:
        print(f"error: {exc}", file=err)
        return 2
    print(f"readings: {result.readings}", file=out)
    if result.limit_hit:
        print(f"edge limit {result.edge_limit} exceeded in {result.mode} mode "
              f"({len(result.edges)} edges built)", file=out)
    # AVMs are rendered, and derivations rebuilt, only when they are printed
    readings = (enumerate_readings(result.derivations) if args.print_avm
                else [(d, None) for d in result.derivations])
    for i, (derivation, avm) in enumerate(readings, 1):
        if args.print_derivation:
            print(f"-- derivation {i}", file=out)
            _print_derivation(derivation, result.clause_type, out)
        if avm is not None:
            print(f"-- avm {i}", file=out)
            print(avm, file=out)
    return 0 if result.readings > 0 else 1


def run_corpus(lexicon: Lexicon, text: str,
               edge_limit: int = ParseOptions.edge_limit) -> Report:
    """Parse every corpus line and judge it against its verdict.

    Lines are processed in order (outcomes keep corpus order); a lexical
    gap counts as a failing line, not a crash, and so does a line whose
    parse hit ``edge_limit``.  The lines share one schema
    memo, which lives for this call: a line unifies only the (schema,
    daughter synsems) triples no earlier line did, so its ``millis`` leave
    out the unifications an earlier line already did, while its chart and
    readings are those of a parse on its own.  Each line's parse keeps its
    own pair table (see :func:`vorfeld.parser.parse`): its mothers carry the
    line's domains, so it is never shared.
    """
    options = ParseOptions(edge_limit=edge_limit)
    memo = SchemaMemo()
    outcomes: list[LineOutcome] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = parse_corpus_line(number, raw)
        if line is None:
            continue
        tokens = tokenize_sentence(line.sentence)
        start = time.perf_counter()
        error = None
        readings = 0
        limit_hit = False
        try:
            result = parse(tokens, lexicon, options, memo=memo)
            readings, limit_hit = result.readings, result.limit_hit
        except LexicalGapError as exc:
            error = str(exc)
        millis = (time.perf_counter() - start) * 1000.0
        if error is not None or limit_hit:
            passed = False
        elif line.verdict == "BAD":
            passed = readings == 0
        elif line.expected is not None:
            passed = readings == line.expected
        else:
            passed = readings >= 1
        outcomes.append(LineOutcome(line, readings, passed, error, millis, limit_hit))
    return Report(outcomes)


def _expected_text(line: CorpusLine) -> str:
    if line.verdict == "BAD":
        return "0"
    if line.expected is not None:
        return str(line.expected)
    return ">=1"


def _got_text(outcome: LineOutcome) -> str:
    """The reading count, or what stopped the parse from giving one."""
    if outcome.error:
        return "gap"
    return "limit" if outcome.limit_hit else str(outcome.readings)


def format_report(report: Report) -> str:
    rows = []
    rows.append(f"{'line':>4}  {'status':6}  {'verdict':7}  {'want':>4}  {'got':>5}  "
                f"{'ms':>8}  sentence")
    for o in report.outcomes:
        status = "pass" if o.passed else "FAIL"
        rows.append(
            f"{o.line.number:>4}  {status:6}  {o.line.verdict:7}  "
            f"{_expected_text(o.line):>4}  {_got_text(o):>5}  {o.millis:8.1f}  {o.line.sentence}"
        )
    good, total = report.totals
    rows.append(f"{good}/{total} lines pass")
    return "\n".join(rows)


def machine_report(report: Report) -> str:
    """Line-oriented key=value records (tab-separated; sentence last).

    All fields except time_ms are deterministic for identical inputs;
    time_ms leaves out the unifications an earlier line of the run did.
    ``got`` is the number of readings found, which the edge limit may have
    cut short: ``limit_hit`` says whether it did.
    """
    rows = []
    for o in report.outcomes:
        fields = [
            f"line={o.line.number}",
            f"status={'pass' if o.passed else 'fail'}",
            f"verdict={o.line.verdict}",
            f"expected={_expected_text(o.line)}",
            f"got={'gap' if o.error else o.readings}",
            f"limit_hit={int(o.limit_hit)}",
            f"time_ms={o.millis:.1f}",
            f"sentence={o.line.sentence}",
        ]
        rows.append("\t".join(fields))
    good, total = report.totals
    rows.append(f"total=passed {good} of {total}")
    return "\n".join(rows) + "\n"


def cmd_corpus(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        lexicon = _load_lexicon_arg(args.lexicon)
        text = corpus_text() if args.corpus is None else _read_text(args.corpus)
        report = run_corpus(lexicon, text, edge_limit=args.edge_limit)
    except (OSError, ValueError, LexiconError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    print(format_report(report), file=out)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(machine_report(report))
        except OSError as exc:
            print(f"error: {exc}", file=err)
            return 2
    return 0 if report.passed else 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vorfeld",
        description="HPSG parser for German verb clusters and partial VP fronting",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse one sentence")
    p.add_argument("--lexicon", help="fragment file (default: bundled German fragment)")
    p.add_argument("--sentence", required=True, help="sentence text")
    p.add_argument("--print-avm", action="store_true", help="print each reading's AVM")
    p.add_argument("--print-derivation", action="store_true",
                   help="print each reading's schema tree and field assignment")
    p.add_argument("--mode", choices=["licensing", "trace"], default="licensing")
    p.add_argument("--edge-limit", type=int, default=ParseOptions.edge_limit)
    p.add_argument("--clause-type", choices=["auto", "v2", "vfinal"], default="auto")

    c = sub.add_parser("corpus", help="run a regression corpus")
    c.add_argument("--lexicon", help="fragment file (default: bundled German fragment)")
    c.add_argument("--corpus", help="corpus file (default: bundled corpus)")
    c.add_argument("--out", help="write a machine-readable report here")
    c.add_argument("--edge-limit", type=int, default=ParseOptions.edge_limit)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    top = build_arg_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "parse":
        return cmd_parse(args, sys.stdout, sys.stderr)
    return cmd_corpus(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
