"""Minimal s-expression reader with source positions.

The grammar files, lexicon entries and the textual AVM syntax are all
s-expressions.  Atoms are either bare symbols (anything up to whitespace,
parentheses or a quote) or double-quoted strings; ``;`` starts a comment
running to end of line.
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


def write(form, indent: int = 0, width: int = 78) -> str:
    """Render a form (Symbol / str / SList) back to text, breaking long lists.

    A list whose flat text fits in ``width`` columns after ``indent`` is
    written on one line.  Otherwise its head symbol stays on the opening
    line and every further item goes on a line of its own, indented two
    more columns.  Two passes, neither recursive: the flat length of every
    list bottom-up, then the text top-down, writing each flat subform once
    at the level where it fits; so the work is linear in the output.
    """
    if not isinstance(form, SList):
        return _atom(form)
    lengths = _flat_lengths(form)
    out: list[str] = []
    stack: list = [(form, indent)]  # text to emit, or a list and its indent
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        lst, at = item
        if lengths[id(lst)] + at <= width:
            _write_flat_into(lst, out)
            continue
        items = lst.items
        head = ""
        if items and isinstance(items[0], Symbol):
            head = items[0].name.rstrip()
            items = items[1:]
        out.append("(" + head)
        stack.append(")")
        pad = "\n" + " " * (at + 2)
        for x in reversed(items):
            stack.append((x, at + 2) if isinstance(x, SList) else _atom(x))
            stack.append(pad)
    return "".join(out)


def write_flat(form) -> str:
    """Render a form (Symbol / str / SList) on one line."""
    if not isinstance(form, SList):
        return _atom(form)
    out: list[str] = []
    _write_flat_into(form, out)
    return "".join(out)


def _atom(form) -> str:
    return form.name if isinstance(form, Symbol) else '"' + form + '"'


def _flat_lengths(form: SList) -> dict[int, int]:
    """The length of the flat text of every list in ``form``, keyed by ``id``."""
    lengths: dict[int, int] = {}
    stack = [form]
    while stack:
        top = stack[-1]
        if id(top) in lengths:
            stack.pop()
            continue
        pending = [x for x in top.items if isinstance(x, SList) and id(x) not in lengths]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        # parentheses, one space between items, the items
        lengths[id(top)] = 1 + max(len(top.items), 1) + sum(
            lengths[id(x)] if isinstance(x, SList) else len(_atom(x)) for x in top.items)
    return lengths


def _write_flat_into(form: SList, out: list[str]) -> None:
    stack: list = [form]  # text to emit, or a list
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(")
        stack.append(")")
        items = item.items
        for k in range(len(items) - 1, -1, -1):
            x = items[k]
            stack.append(x if isinstance(x, SList) else _atom(x))
            if k:
                stack.append(" ")
