"""Loadable lexicon: type declarations, templates, entries, stem expansion.

A fragment file is a sequence of s-expression forms:

* ``(type NAME (PARENT ...) (FEAT VALUE-TYPE) ...)`` — one hierarchy type
  with its appropriateness declarations (``*list*`` and ``*set*`` are the
  pseudo value types for list- and set-valued features);
* ``(def NAME expr)`` — a reusable template; a bare NAME in a later
  expression expands to a fresh copy;
* ``(word "PHON" expr)`` — a lexical entry; multiword entries separate
  tokens with spaces, and PHON, like a stem's FINITE-FORM, needs at least one;
* ``(stem "PHON" "FINITE-FORM" expr)`` — a stem entry, expanded into its
  finite form at load time (see :func:`finitivize`).

Entries are type-checked against the hierarchy at load time; appropriateness
violations, unknown types and malformed forms raise :class:`LexiconError`
with the source line.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from . import sexpr
from .avm import AvmSyntaxError, build_fs
from .grammar import (
    BUILT_TYPES,
    P_CAT,
    P_COMPS,
    P_HEAD,
    P_SUBJ,
    P_SYNSEM,
    P_VCOMP,
    P_VFORM,
    TYPE_LEXICAL,
    Sign,
    check_comps_closed,
    lexical_sign,
)
from .orderdomain import FINITE, VERBAL
from .tfs import (
    ConfigurationError,
    FeatureStructure,
    HierarchyError,
    PathError,
    TypeHierarchy,
    Workspace,
    validate,
)


# the types the grammar builds, and those the entry checks and the finite
# form rule name; a lexicon with entries must declare them all, since
# without them a parse would fail mid-way, or an entry check would fail
# with a misleading message (a file without entries parses nothing).
# ``comp`` is named too but is optional: a hierarchy without it
# loads, ``auto`` then reads every clause as verb-second, and no verb-final
# clause can parse (vorfeld.parser.detect_clause_type)
REQUIRED_TYPES = ("fin", "bse") + BUILT_TYPES


class LexiconError(Exception):
    """Load-time fault in a fragment file (syntax, types, appropriateness)."""


class InapplicableError(Exception):
    """A lexical rule was applied to an entry outside its domain."""


@dataclass(frozen=True)
class LexEntry:
    phon: tuple[str, ...]
    fs: FeatureStructure
    stem: bool = False
    finite_form: Optional[tuple[str, ...]] = None
    line: int = 0


class Lexicon:
    """Immutable after load; lookups are safe from concurrent parses."""

    def __init__(self, hierarchy: TypeHierarchy, entries: Sequence[LexEntry],
                 templates: Optional[dict[str, FeatureStructure]] = None):
        self.hierarchy = hierarchy
        self.entries = tuple(entries)
        self.templates = dict(templates or {})
        self._by_first: dict[str, list[LexEntry]] = {}
        for entry in self.entries:
            if not entry.stem:
                self._by_first.setdefault(entry.phon[0], []).append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> tuple[LexEntry, ...]:
        return tuple(e for e in self.entries if not e.stem)

    def stems(self) -> tuple[LexEntry, ...]:
        return tuple(e for e in self.entries if e.stem)

    def find(self, phon: str) -> tuple[LexEntry, ...]:
        tokens = tuple(phon.split())
        return tuple(e for e in self.entries if e.phon == tokens)

    def lookup(self, tokens: Sequence[str], position: int) -> list[tuple[int, Sign]]:
        """All entries matching the token sequence starting at ``position``.

        Returns (span length, instantiated sign) pairs; multiword entries
        yield multi-token spans.  Unknown tokens simply yield no matches.
        """
        if not 0 <= position < len(tokens):
            raise IndexError(f"position {position} outside the token sequence")
        out: list[tuple[int, Sign]] = []
        for entry in self._by_first.get(tokens[position], ()):
            span = len(entry.phon)
            if tuple(tokens[position:position + span]) == entry.phon:
                out.append((span, lexical_sign(self.hierarchy, entry.fs, entry.phon, position)))
        return out


def finitivize(stem: LexEntry, hierarchy: TypeHierarchy) -> LexEntry:
    """Expand a verb stem into its finite form.

    The finite form realizes the subject as the first complement: SUBJ is
    emptied and COMPS becomes SUBJ ⊕ COMPS of the stem.  Both operands stay
    shared with whatever tagged them (in auxiliary stems, the VCOMP value's
    own valence lists), so argument attraction keeps flowing from the
    embedded verb after the rule applies.
    """
    if not stem.stem or stem.finite_form is None:
        raise InapplicableError(f"{' '.join(stem.phon)!r} is not a stem entry")
    ws = Workspace(hierarchy)
    root = ws.graft(stem.fs)
    try:
        synsem = ws.resolve(root, P_SYNSEM)
        head = ws.resolve(synsem, P_HEAD)
        cat = ws.resolve(synsem, P_CAT)
        subj = ws.resolve(synsem, P_SUBJ)
        comps = ws.resolve(synsem, P_COMPS)
    except PathError as exc:
        raise InapplicableError(f"{' '.join(stem.phon)!r} is not a verb stem: {exc}") from exc
    if not hierarchy.subsumes_type("verb", ws.type_of(head)):
        raise InapplicableError(f"{' '.join(stem.phon)!r} is not a verb stem")
    ws.set_feat(cat, "COMPS", ws.append_list([subj, comps]))
    ws.set_feat(head, "SUBJ", ws.closed_list([]))
    try:
        vform = ws.resolve(synsem, P_VFORM)
    except PathError:
        ws.set_feat(head, "VFORM", ws.atom("fin"))
    else:
        if not ws.unify_nodes(vform, ws.atom("fin")):
            raise InapplicableError(f"stem {' '.join(stem.phon)!r} cannot be finite")
    fs = ws.extract(root)
    if fs is None:
        raise InapplicableError(f"stem {' '.join(stem.phon)!r} does not finitivize")
    return LexEntry(stem.finite_form, fs, stem=False, line=stem.line)


def load_lexicon(text: str) -> Lexicon:
    """Parse and type-check a fragment file.

    A file without any forms yields an empty lexicon over a bare one-type
    hierarchy; a file with type declarations but no entries yields an empty
    lexicon over that hierarchy.
    """
    try:
        forms = sexpr.parse_all(text)
    except sexpr.SexprError as exc:
        raise LexiconError(str(exc)) from exc
    if not forms:
        return Lexicon(TypeHierarchy([("top", (), ())]), ())

    decls = []
    decl_lines: dict[str, list[int]] = {}
    others = []
    for form in forms:
        if not isinstance(form, sexpr.SList) or len(form) == 0 or not isinstance(form[0], sexpr.Symbol):
            line = getattr(form, "line", 0)
            raise LexiconError(f"line {line}: expected a (type|def|word|stem ...) form")
        if form[0].name == "type":
            decls.append(_parse_type(form))
            decl_lines.setdefault(decls[-1][0], []).append(form.line)
        else:
            others.append(form)
    if not decls:
        raise LexiconError("fragment file declares no types")
    try:
        hierarchy = TypeHierarchy(decls)
    except HierarchyError as exc:
        # the declaration at fault: a type's only one, or its second
        lines = decl_lines.get(exc.type)
        raise LexiconError(f"line {lines[:2][-1]}: {exc}" if lines else str(exc)) from exc
    entry_lines = [form.line for form in others if form[0].name in ("word", "stem")]
    missing = [t for t in REQUIRED_TYPES if t not in hierarchy]
    if entry_lines and missing:
        raise LexiconError(f"line {entry_lines[0]}: entries need types the hierarchy "
                           f"does not declare: {', '.join(missing)}")

    templates: dict[str, FeatureStructure] = {}
    entries: list[LexEntry] = []
    loaded: set[tuple[tuple[str, ...], tuple]] = set()

    def add_entry(entry: LexEntry) -> None:
        key = (entry.phon, entry.fs.nodes)
        if key in loaded:
            raise LexiconError(
                f"line {entry.line}: duplicate entry for {' '.join(entry.phon)!r}")
        loaded.add(key)
        entries.append(entry)

    for form in others:
        name = form[0].name
        line = form.line
        if name == "def":
            if len(form) != 3 or not isinstance(form[1], sexpr.Symbol):
                raise LexiconError(f"line {line}: def takes a name and one expression")
            tname = form[1].name
            if tname in hierarchy:
                raise LexiconError(f"line {line}: template {tname!r} shadows a type")
            if tname in templates:
                raise LexiconError(f"line {line}: template {tname!r} defined twice")
            templates[tname] = _build(form[2], hierarchy, templates, line)
        elif name == "word":
            if len(form) != 3 or not isinstance(form[1], str):
                raise LexiconError(f'line {line}: word takes "PHON" and one expression')
            phon = _tokens(form[1], "PHON", line)
            entry = LexEntry(phon, _build(form[2], hierarchy, templates, line), line=line)
            _check_entry(entry, hierarchy)
            add_entry(entry)
        elif name == "stem":
            if len(form) != 4 or not isinstance(form[1], str) or not isinstance(form[2], str):
                raise LexiconError(f'line {line}: stem takes "PHON" "FINITE" and one expression')
            phon, finite_form = _tokens(form[1], "PHON", line), _tokens(form[2], "FINITE-FORM", line)
            stem_entry = LexEntry(phon, _build(form[3], hierarchy, templates, line), stem=True,
                                  finite_form=finite_form, line=line)
            add_entry(stem_entry)
            try:
                finite = finitivize(stem_entry, hierarchy)
            except InapplicableError as exc:
                raise LexiconError(f"line {line}: {exc}") from exc
            _check_entry(finite, hierarchy)
            add_entry(finite)
        else:
            raise LexiconError(f"line {line}: unknown form {name!r}")
    return Lexicon(hierarchy, entries, templates)


def _tokens(text: str, what: str, line: int) -> tuple[str, ...]:
    """The tokens of an entry's PHON or FINITE-FORM string: at least one."""
    tokens = tuple(text.split())
    if not tokens:
        raise LexiconError(f"line {line}: {what} needs at least one token")
    return tokens


def _parse_type(form: sexpr.SList):
    line = form.line
    if len(form) < 3 or not isinstance(form[1], sexpr.Symbol) or not isinstance(form[2], sexpr.SList):
        raise LexiconError(f"line {line}: type takes a name, a parent list and features")
    name = form[1].name
    parents = []
    for p in form[2]:
        if not isinstance(p, sexpr.Symbol):
            raise LexiconError(f"line {line}: parents of {name!r} must be symbols")
        parents.append(p.name)
    feats = []
    for item in form.items[3:]:
        if (not isinstance(item, sexpr.SList) or len(item) != 2
                or not isinstance(item[0], sexpr.Symbol) or not isinstance(item[1], sexpr.Symbol)):
            raise LexiconError(f"line {line}: features of {name!r} must be (FEAT VALUE-TYPE) pairs")
        feats.append((item[0].name, item[1].name))
    return (name, tuple(parents), tuple(feats))


def _build(form, hierarchy: TypeHierarchy, templates, line: int) -> FeatureStructure:
    try:
        return build_fs(form, hierarchy, templates)
    except (AvmSyntaxError, ConfigurationError) as exc:
        # most AVM errors name the line of the value at fault; the rest get the form's
        raise LexiconError(str(exc) if str(exc).startswith("line ") else f"line {line}: {exc}") from exc


def _check_entry(entry: LexEntry, hierarchy: TypeHierarchy) -> None:
    try:
        validate(entry.fs, hierarchy)
    except ConfigurationError as exc:
        raise LexiconError(f"line {entry.line}: {exc}") from exc
    # the chart keeps only an entry's SYNSEM, and a rebuild wraps it back as
    # lexical-sign[SYNSEM]: anything else would vanish from the printed AVMs
    root = entry.fs.nodes[entry.fs.root]
    feats = tuple(f for f, _ in root.feats)
    if root.type != TYPE_LEXICAL or feats != P_SYNSEM:
        raise LexiconError(f"line {entry.line}: entry must be {TYPE_LEXICAL}[SYNSEM], "
                           f"got {root.type or root.kind}[{', '.join(feats)}]")
    sign = lexical_sign(hierarchy, entry.fs, entry.phon, 0)
    # the schema bodies read a head daughter's HEAD, COMPS and VCOMP unguarded
    for path in (P_HEAD, P_COMPS, P_VCOMP):
        if not sign.fs.has_path(path):
            raise LexiconError(f"line {entry.line}: entry {' '.join(entry.phon)!r} "
                               f"has no SYNSEM {' '.join(path)}")
    if not entry.stem and not check_comps_closed(sign):
        raise LexiconError(
            f"line {entry.line}: entry {' '.join(entry.phon)!r} has an underspecified valence list")
    vform = sign.fs.type_at(P_VCOMP + P_VFORM)
    if (sign.facts.order in (FINITE, VERBAL) and sign.facts.vcomp == "sel"
            and (vform is None or not hierarchy.subsumes_type("bse", vform))):
        raise LexiconError(
            f"line {entry.line}: verbal complement of {' '.join(entry.phon)!r} must be "
            + ("restricted to bse form" if vform is None else f"bse, got {vform!r}"))


def fragment_text() -> str:
    """The bundled German fragment file."""
    return resources.files("vorfeld.data").joinpath("german_fragment.lex").read_text("utf-8")


def corpus_text() -> str:
    """The bundled regression corpus."""
    return resources.files("vorfeld.data").joinpath("corpus.tsv").read_text("utf-8")


def load_fragment() -> Lexicon:
    """Load the bundled German fragment."""
    return load_lexicon(fragment_text())
