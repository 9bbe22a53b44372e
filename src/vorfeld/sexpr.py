"""Minimal s-expression reader with source positions.

The grammar files, lexicon entries and the textual AVM syntax are all
s-expressions.  Atoms are either bare symbols (anything up to whitespace,
parentheses or a quote) or double-quoted strings; ``;`` starts a comment
running to end of line.  There is no writer: AVMs are printed straight
from their nodes (:func:`vorfeld.avm.print_fs`).
"""
from __future__ import annotations

from dataclasses import dataclass


class SexprError(Exception):
    """Malformed s-expression input."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Symbol:
    """A bare atom. Quoted strings come back as plain ``str``."""

    name: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int = 0
    col: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, None, line, col)
            col += 1
            i += 1
        elif ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise SexprError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise SexprError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            yield ("str", "".join(buf), start_line, start_col)
        else:
            start_line, start_col = line, col
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            yield ("sym", text[i:j], start_line, start_col)
            col += j - i
            i = j


def parse_all(text: str) -> list:
    """Parse every top-level form in ``text``."""
    stack: list[list] = []
    positions: list[tuple[int, int]] = []
    top: list = []
    for kind, value, line, col in _tokenize(text):
        if kind == "(":
            stack.append([])
            positions.append((line, col))
        elif kind == ")":
            if not stack:
                raise SexprError("unbalanced ')'", line, col)
            items = stack.pop()
            pline, pcol = positions.pop()
            form = SList(tuple(items), pline, pcol)
            (stack[-1] if stack else top).append(form)
        elif kind == "str":
            (stack[-1] if stack else top).append(value)
        else:
            (stack[-1] if stack else top).append(Symbol(value, line, col))
    if stack:
        line, col = positions[-1]
        raise SexprError("unclosed '('", line, col)
    return top

