"""The s-expression writer as it was before it became linear: the reference
for ``sexpr.write`` and ``sexpr.write_flat``.

:func:`write` renders each subform flat at every level of nesting to decide
whether it fits, so it is quadratic in depth and recursive; it is kept
verbatim so that the property tests can hold the linear writer to exactly
its output.
"""
from __future__ import annotations

from vorfeld.sexpr import SList, Symbol


def write(form, indent: int = 0, width: int = 78) -> str:
    """Render a form (Symbol / str / SList) back to text, breaking long lists."""
    flat = _write_flat(form)
    if len(flat) + indent <= width or not isinstance(form, SList):
        return flat
    head = ""
    items = list(form.items)
    parts = []
    if items and isinstance(items[0], Symbol):
        head = str(items[0]) + (" " if len(items) > 1 else "")
        items = items[1:]
    pad = " " * (indent + 2)
    for item in items:
        parts.append(pad + write(item, indent + 2, width))
    inner = "\n".join(parts)
    return "(" + head.rstrip() + ("\n" + inner if parts else "") + ")"


def _write_flat(form) -> str:
    if isinstance(form, Symbol):
        return form.name
    if isinstance(form, str):
        return '"' + form + '"'
    return "(" + " ".join(_write_flat(x) for x in form.items) + ")"
