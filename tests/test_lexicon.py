import ast
import gc
import inspect
import re

import pytest

from conftest import corpus_sentences
from vorfeld import grammar, lexicon
from vorfeld.avm import print_fs, read_fs
from vorfeld.grammar import BUILT_TYPES, P_CASE, P_SYNSEM, check_comps_closed, make_sign
from vorfeld.lexicon import (
    REQUIRED_TYPES,
    InapplicableError,
    LexiconError,
    finitivize,
    fragment_text,
    load_fragment,
    load_lexicon,
)
from vorfeld.orderdomain import FINITE
from vorfeld.parser import enumerate_readings, parse
from vorfeld.tfs import Workspace, path_get

P_COMPS = ("SYNSEM", "LOC", "CAT", "COMPS")
P_SUBJ = ("SYNSEM", "LOC", "CAT", "HEAD", "SUBJ")
P_VFORM = ("SYNSEM", "LOC", "CAT", "HEAD", "VFORM")
P_VC_SUBJ = ("SYNSEM", "LOC", "CAT", "VCOMP", "LOC", "CAT", "HEAD", "SUBJ")
P_VC_COMPS = ("SYNSEM", "LOC", "CAT", "VCOMP", "LOC", "CAT", "COMPS")

MINI_TYPES = """
(type top ())
(type sign (top) (SYNSEM synsem))
(type lexical-sign (sign))
(type phrasal-sign (sign) (DTRS con-struc))
(type vcomp-val (top))
(type none (vcomp-val))
(type synsem (vcomp-val) (LOC local) (NONLOC nonlocal) (LEX bool))
(type local (top) (CAT cat))
(type cat (top) (HEAD head) (COMPS *list*) (VCOMP vcomp-val))
(type head (top))
(type verb (head) (VFORM vform) (SUBJ *list*))
(type noun (head) (CASE case))
(type nonlocal (top) (INHER inherited))
(type inherited (top) (SLASH *set*))
(type bool (top)) (type + (bool)) (type - (bool))
(type vform (top)) (type fin (vform)) (type bse (vform))
(type case (top)) (type nom (case)) (type dat (case)) (type acc (case))
(type con-struc (top) (HEAD-DTR sign) (COMP-DTRS *list*))
(type head-complement-structure (con-struc))
(type head-adjunct-structure (con-struc) (ADJUNCT-DTR sign))
(type head-cluster-structure (con-struc) (CLUSTER-DTR sign))
(type complement-slash-licencing-structure (con-struc) (VCOMP-DTR sign))
(type filler-head-structure (con-struc) (FILLER-DTR sign))
"""

_NOUN_SYNSEM = """(SYNSEM (synsem
  (LOC (local (CAT (cat (HEAD (noun (CASE nom))) (COMPS (list)) (VCOMP none)))))))"""

# entries the chart cannot represent: it keeps only an entry's SYNSEM, and a
# rebuild wraps that back as lexical-sign[SYNSEM]
ENTRY_OF_A_SUBTYPE = MINI_TYPES + f"""
(type word (lexical-sign))
(word "er" (word {_NOUN_SYNSEM}))
"""
ENTRY_WITH_ANOTHER_FEATURE = MINI_TYPES.replace(
    "(type lexical-sign (sign))", "(type lexical-sign (sign) (ARG-ST *list*))") + f"""
(word "er" (lexical-sign (ARG-ST (list)) {_NOUN_SYNSEM}))
"""
UNREPRESENTABLE_ENTRIES = {
    "subtype-root": (ENTRY_OF_A_SUBTYPE, "got word[SYNSEM]"),
    "extra-feature": (ENTRY_WITH_ANOTHER_FEATURE, "got lexical-sign[ARG-ST, SYNSEM]"),
}

_BUNDLED_TYPES = "\n".join(line for line in fragment_text().splitlines()
                           if line.startswith(("(type ", "(def no-slash ")))


def _lacking(words: str, sentence: str, word: str, path: str) -> tuple[str, str, str]:
    """A fragment of the bundled hierarchy and ``words``, whose entry
    ``word`` lacks ``path``; a sentence that would reach a schema body
    reading that path; and the load error."""
    text = _BUNDLED_TYPES + words
    line = text.count("\n", 0, text.index(f'(word "{word}"')) + 1
    return text, sentence, f"line {line}: entry {word!r} has no SYNSEM {path}"


# entries whose cat lacks a path the schema bodies read: each is
# appropriate, so each passes the type check.  Without VCOMP, an entry's
# open COMPS list would also pass the valence check and reach the chart.
ENTRIES_LACKING_HEAD_OR_COMPS = {
    "headless": _lacking("""
(word "np" (lexical-sign (SYNSEM (synsem (LEX -) (LOC (local (CAT (cat (HEAD (noun (CASE acc)))
  (COMPS (list)) (VCOMP none))))) (NONLOC no-slash)))))
(word "headless" (lexical-sign (SYNSEM (synsem (LEX -) (LOC (local (CAT (cat (COMPS (list (synsem)))
  (VCOMP none))))) (NONLOC no-slash)))))
""", "headless np", "headless", "LOC CAT HEAD"),
    "auxiliary-without-comps": _lacking("""
(word "gehen" (lexical-sign (SYNSEM (synsem (LEX +) (LOC (local (CAT (cat (HEAD (verb (VFORM bse)
  (SUBJ (list)))) (COMPS (list)) (VCOMP none))))) (NONLOC no-slash)))))
(word "wird" (lexical-sign (SYNSEM (synsem (LEX +) (LOC (local (CAT (cat (HEAD (verb (VFORM fin)
  (SUBJ (list)))) (VCOMP (synsem (LOC (local (CAT (cat (HEAD (verb (VFORM bse)))))))))))))
  (NONLOC no-slash)))))
""", "gehen wird", "wird", "LOC CAT COMPS"),
    "vcompless-open-comps": _lacking("""
(word "np" (lexical-sign (SYNSEM (synsem (LEX -) (LOC (local (CAT (cat (HEAD (noun (CASE acc)))
  (COMPS (list)) (VCOMP none))))) (NONLOC no-slash)))))
(word "offen" (lexical-sign (SYNSEM (synsem (LEX -) (LOC (local (CAT (cat (HEAD (verb (VFORM fin)
  (SUBJ (list)))) (COMPS (openlist)))))) (NONLOC no-slash)))))
""", "offen np", "offen", "LOC CAT VCOMP"),
}


def _schlafen(form: str, vform: str, subj: str, comps: str) -> str:
    """The bundled fragment with an intransitive entry of *schlafen*
    appended: ``form`` opens it, ``(stem "schlafen" "schläft"`` or
    ``(word "schläft"``, and the other arguments are its values."""
    return fragment_text().rstrip("\n") + f"""
{form} (lexical-sign (SYNSEM (synsem (LEX +)
  (LOC (local (CAT (cat (HEAD (verb (VFORM {vform}) (SUBJ {subj})))
    (COMPS {comps}) (VCOMP none)))))
  (NONLOC no-slash)))))
"""


def _appended(entry: str, message: str) -> tuple[str, str]:
    """The bundled fragment with ``entry`` appended, and its load error,
    ``message`` at the entry's last line."""
    text = fragment_text().rstrip("\n") + "\n" + entry + "\n"
    return text, f"line {text.count(chr(10))}: {message}"


# entries with an empty PHON or FINITE-FORM string
EMPTY_FORMS = {
    "word-phon": _appended('(word "" np-nom-sign)', "PHON needs at least one token"),
    "stem-phon": _appended('(stem "" "wird" v-aux-stem)', "PHON needs at least one token"),
    "stem-finite-form": _appended('(stem "werden" " " v-aux-stem)',
                                  "FINITE-FORM needs at least one token"),
}

# entries with an ill-formed AVM: the error names the line of the value at
# fault, once (the empty value sits on the entry's second line)
AVM_ERRORS = {
    "empty-value": _appended('(word "x"\n  ())', "empty value"),
    "tag-arity": _appended('(word "x" (#1= top top))', "#1= must tag exactly one value"),
    "forward-reference": _appended('(word "x" #1#)', "reference #1# precedes its definition"),
    "duplicate-feature": _appended('(word "x" (lexical-sign (SYNSEM top) (SYNSEM top)))',
                                   "duplicate feature 'SYNSEM'"),
    "append-arity": _appended('(word "x" (append (list)))', "append needs at least two parts"),
    "template-with-features": _appended('(word "x" (np-nom-sign (SYNSEM top)))',
                                        "template 'np-nom-sign' takes no features"),
}


class TestLoad:
    def test_fragment_inventory(self, fragment):
        for phon in ["wird", "müssen", "erzählen", "lassen", "hat", "wollte",
                     "vortragen", "ermorden", "er", "es", "ihr", "ihm",
                     "seiner Tochter", "ein Märchen", "das Märchen", "die Frau",
                     "mit diesem Messer", "morgen", "weil"]:
            assert fragment.find(phon), f"missing entry {phon!r}"
        stems = {" ".join(e.phon) for e in fragment.stems()}
        assert stems == {"werden", "wollen", "haben"}

    def test_empty_file_gives_empty_lexicon(self):
        lex = load_lexicon("")
        assert len(lex.words()) == 0

    def test_types_only_file_gives_empty_lexicon(self):
        lex = load_lexicon(MINI_TYPES)
        assert len(lex.words()) == 0
        assert "verb" in lex.hierarchy.types

    def test_unknown_case_value_is_load_error(self):
        bad = MINI_TYPES + """
(word "Hund" (lexical-sign (SYNSEM (synsem
  (LOC (local (CAT (cat (HEAD (noun (CASE ergative))) (COMPS (list)) (VCOMP none)))))))))
"""
        with pytest.raises(LexiconError, match="ergative"):
            load_lexicon(bad)

    def test_duplicate_entry_rejected(self):
        dup = MINI_TYPES + """
(def n (lexical-sign (SYNSEM (synsem (LOC (local (CAT (cat (HEAD (noun (CASE nom))) (COMPS (list)) (VCOMP none)))))))))
(word "er" n)
(word "er" n)
"""
        with pytest.raises(LexiconError, match="duplicate"):
            load_lexicon(dup)

    def test_underspecified_word_rejected(self):
        bad = MINI_TYPES + """
(word "kaputt" (lexical-sign (SYNSEM (synsem
  (LOC (local (CAT (cat (HEAD (verb (VFORM bse))) (COMPS (openlist)) (VCOMP none)))))))))
"""
        with pytest.raises(LexiconError, match="underspecified"):
            load_lexicon(bad)

    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_ENTRIES))
    def test_entry_must_be_a_lexical_sign_with_only_synsem(self, name):
        text, got = UNREPRESENTABLE_ENTRIES[name]
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert "entry must be lexical-sign[SYNSEM]" in str(exc.value)
        assert got in str(exc.value)

    @pytest.mark.parametrize("name", sorted(ENTRIES_LACKING_HEAD_OR_COMPS))
    def test_entry_must_have_head_and_comps(self, name):
        """The schema bodies resolve a head daughter's HEAD, COMPS and
        VCOMP without a guard, so an entry without one fails to load rather
        than in the middle of a parse."""
        text, _sentence, message = ENTRIES_LACKING_HEAD_OR_COMPS[name]
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", sorted(EMPTY_FORMS))
    def test_empty_phon_or_finite_form_rejected(self, name):
        """A domain element covers at least one position, so an entry, or
        the finite form of a stem, needs at least one token."""
        text, message = EMPTY_FORMS[name]
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", sorted(AVM_ERRORS))
    def test_an_avm_error_names_its_line_once(self, name):
        text, message = AVM_ERRORS[name]
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert str(exc.value) == message

    def test_error_reports_line_number(self):
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon("(type top ())\n(word)")

    def test_a_word_may_write_its_valence_as_an_append_of_closed_lists(self):
        """An append resolves once its parts close, in an entry's text as
        in the finite form rule: *schläft* with COMPS ``np-nom`` ⊕ ``()``
        loads and parses *er schläft* as the entry with ``(list np-nom)``."""
        avms = []
        for comps in ("(append (list np-nom) (list))", "(list np-nom)"):
            lex = load_lexicon(_schlafen('(word "schläft"', "fin", "(list)", comps))
            avms.append([avm for _, avm in enumerate_readings(parse(["er", "schläft"], lex).derivations)])
        assert len(avms[0]) == 1
        assert avms[0] == avms[1]

    def test_loading_leaves_no_reference_cycles(self):
        """What a load builds and drops is freed by reference counting:
        after a warm-up load, a second leaves the collector nothing."""
        load_fragment()
        gc.collect()
        gc.disable()
        try:
            load_fragment()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_features_may_be_named_self_and_type_(self):
        """A feature name is data, whatever parameter names the builder has."""
        lex = load_lexicon(MINI_TYPES + """
(type pair (top) (self case) (type_ case))
(def both-nom (pair (self #1=nom) (type_ #1#)))
""")
        text = "(pair (self #1=acc) (type_ #1#))"
        assert print_fs(read_fs(text, lex.hierarchy), indent=False) == text
        assert print_fs(lex.templates["both-nom"], indent=False) == text.replace("acc", "nom")

    def test_all_words_pass_the_valence_check(self, fragment):
        for entry in fragment.words():
            sign = make_sign(fragment.hierarchy, path_get(entry.fs, P_SYNSEM))
            assert check_comps_closed(sign), entry.phon


class TestFinitivize:
    def test_werden_stem_becomes_wird(self, fragment):
        """Finite auxiliary shape: VFORM fin, SUBJ emptied, COMPS the
        append of the two lists that stay shared with the VCOMP value."""
        (stem,) = [e for e in fragment.stems() if e.phon == ("werden",)]
        wird = finitivize(stem, fragment.hierarchy)
        assert wird.phon == ("wird",)
        fs = wird.fs
        assert fs.nodes[fs.resolve(P_VFORM)].type == "fin"
        subj = fs.nodes[fs.resolve(P_SUBJ)]
        assert subj.kind == "closed" and subj.elems == ()
        comps = fs.nodes[fs.resolve(P_COMPS)]
        assert comps.kind == "append" and len(comps.elems) == 2
        assert comps.elems[0] == fs.resolve(P_VC_SUBJ)
        assert comps.elems[1] == fs.resolve(P_VC_COMPS)

    def test_wollen_stem_same_rule(self, fragment):
        (stem,) = [e for e in fragment.stems() if e.phon == ("wollen",)]
        wollte = finitivize(stem, fragment.hierarchy)
        assert wollte.phon == ("wollte",)
        fs = wollte.fs
        comps = fs.nodes[fs.resolve(P_COMPS)]
        assert comps.elems[0] == fs.resolve(P_VC_SUBJ)
        assert comps.elems[1] == fs.resolve(P_VC_COMPS)

    def test_attraction_still_flows_after_the_rule(self, fragment):
        """Instantiating the VCOMP's lists makes the finite COMPS co-vary."""
        (wird,) = fragment.find("wird")
        np = fragment.templates["np-dat"]
        ws = Workspace(fragment.hierarchy)
        root = ws.graft(wird.fs)
        ws.unify_nodes(ws.resolve(root, P_VC_SUBJ), ws.graft(_closed_list_of(ws, [])))
        ws.unify_nodes(ws.resolve(root, P_VC_COMPS),
                       ws.closed_list([ws.graft(np)]))
        fs = ws.extract(root)
        assert fs is not None
        comps = fs.nodes[fs.resolve(P_COMPS)]
        assert comps.kind == "closed" and len(comps.elems) == 1

    def test_a_stem_may_declare_a_finite_vform(self):
        lex = load_lexicon(_schlafen('(stem "schlafen" "schläft"', "fin", "(list np-nom)", "(list)"))
        assert parse(["er", "schläft"], lex).readings == 1

    def test_a_stem_that_declares_another_vform_cannot_be_finite(self):
        text = _schlafen('(stem "schlafen" "schläft"', "bse", "(list np-nom)", "(list)")
        with pytest.raises(LexiconError, match="stem 'schlafen' cannot be finite$"):
            load_lexicon(text)

    def test_non_stem_is_inapplicable(self, fragment):
        (wird,) = fragment.find("wird")
        with pytest.raises(InapplicableError):
            finitivize(wird, fragment.hierarchy)

    def test_noun_stem_is_inapplicable(self):
        text = MINI_TYPES + """
(stem "hund" "hunde" (lexical-sign (SYNSEM (synsem
  (LOC (local (CAT (cat (HEAD (noun (CASE nom))) (COMPS (list)) (VCOMP none)))))))))
"""
        with pytest.raises(LexiconError, match="not a verb stem"):
            load_lexicon(text)


def _closed_list_of(ws, elems):
    from vorfeld.tfs import FeatureStructure, Node
    return FeatureStructure((Node("closed", "", (), tuple(elems)),))


class TestLookup:
    def test_multiword_span(self, fragment):
        tokens = "Seiner Tochter ein Märchen erzählen wird er".split()
        matches = fragment.lookup(tokens, 0)
        assert [(span, ) for span, _ in matches] == [(2,)]
        span, sign = matches[0]
        assert sign.fs.type_at(P_CASE) == "dat"
        assert sign.dom.elements[0].phon == ("Seiner", "Tochter")

    def test_finite_auxiliary(self, fragment):
        tokens = "wird er".split()
        matches = fragment.lookup(tokens, 0)
        assert len(matches) == 1
        _, sign = matches[0]
        assert sign.fs.type_at(P_VFORM[1:]) == "fin" and sign.facts.vcomp == "sel"
        assert sign.facts.order == FINITE

    def test_unknown_token_is_empty(self, fragment):
        assert fragment.lookup(["Quark"], 0) == []

    def test_position_bounds_checked(self, fragment):
        with pytest.raises(IndexError):
            fragment.lookup(["er"], 3)

    def test_ambiguous_verb_has_two_entries(self, fragment):
        matches = fragment.lookup(["erzählen"], 0)
        lengths = sorted(
            s.facts.comps_len for _, s in matches
        )
        assert lengths == [1, 2]


class TestVerbEntryInvariant:
    def test_vcomp_must_restrict_bse(self):
        bad = MINI_TYPES + """
(word "wirdlich" (lexical-sign (SYNSEM (synsem (LEX +)
  (LOC (local (CAT (cat (HEAD (verb (VFORM fin) (SUBJ (list))))
    (COMPS (list))
    (VCOMP (synsem (LOC (local (CAT (cat (HEAD (verb (VFORM fin))) (COMPS (list)) (VCOMP none)))))))))))
  (NONLOC (nonlocal (INHER (inherited (SLASH (set))))))))))
"""
        with pytest.raises(LexiconError, match="bse"):
            load_lexicon(bad)

    def test_vcomp_without_vform_rejected(self):
        bad = MINI_TYPES + """
(word "wirdlich" (lexical-sign (SYNSEM (synsem (LEX +)
  (LOC (local (CAT (cat (HEAD (verb (VFORM fin) (SUBJ (list))))
    (COMPS (list))
    (VCOMP (synsem (LOC (local (CAT (cat (HEAD verb) (COMPS (list)) (VCOMP none)))))))))))
  (NONLOC (nonlocal (INHER (inherited (SLASH (set))))))))))
"""
        with pytest.raises(LexiconError, match="restricted to bse"):
            load_lexicon(bad)

    def test_renamed_bse_is_a_missing_type(self):
        """The entry check reads ``bse`` by name, so a fragment that calls
        it otherwise fails to load for want of the type, not on its first
        verbal complement."""
        renamed = re.sub(r"(?<![\w-])bse(?![\w-])", "base", fragment_text())
        assert "(type base (vform))" in renamed
        with pytest.raises(LexiconError, match=r"does not declare: bse$"):
            load_lexicon(renamed)


class TestLookupMidSentence:
    def test_lowercase_multiword_in_the_mittelfeld(self, fragment):
        tokens = "Erzählen wird er seiner Tochter ein Märchen".split()
        matches = fragment.lookup(tokens, 3)
        assert [(span, s.fs.type_at(P_CASE)) for span, s in matches] == [(2, "dat")]


# the types the code reads by name; ``comp`` is optional
NAMED_TYPES = ("verb", "fin", "bse", "comp", "synsem", "none")


def _named_in(module) -> tuple[set, set]:
    """The type names ``module``'s source builds (``Workspace.avm`` and
    ``atom``, and the DTRS type a schema body returns, which the rebuild
    builds from ``parts[3]``) and those it tests by subsumption."""
    def name_of(arg):
        if isinstance(arg, ast.Constant):
            return arg.value
        return getattr(module, arg.id) if isinstance(arg, ast.Name) else ast.unparse(arg)

    built, tested = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.FunctionDef) and node.name == "body":
            # a body returns LOC, LEX, SLASH, the DTRS type and its features
            built.update(name_of(ret.value.elts[3]) for ret in ast.walk(node)
                         if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple))
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in ("avm", "atom"):
                built.add(name_of(node.args[0]))
            elif called == "subsumes_type":
                tested.add(name_of(node.args[0]))
            elif called == "_subsumed":
                tested.add(name_of(node.args[2]))
    return built - {None, "parts[3]"}, tested


class TestNamedTypes:
    @pytest.mark.parametrize("name", NAMED_TYPES)
    def test_a_subtype_acts_as_its_named_type(self, fragment, name):
        """The code tests the types it names by subsumption, so the bundled
        fragment with every use of ``name`` in its templates and entries
        retyped to a new subtype of it reads the corpus as the bundled one."""
        text = fragment_text()
        cut = text.index("\n(def ")
        uses = rf"(?<=[\s(]){re.escape(name)}(?=[\s)])"
        retyped = (text[:cut] + f"\n(type {name}-sub ({name}))"
                   + re.sub(uses, f"{name}-sub", text[cut:]))
        assert re.search(uses, text[cut:])
        sentences = corpus_sentences()
        retyped_lexicon = load_lexicon(retyped)
        assert ([parse(s, retyped_lexicon).readings for s in sentences]
                == [parse(s, fragment).readings for s in sentences])

    def test_every_type_the_code_names_is_required(self):
        """A scan of ``grammar`` and ``lexicon``: the types they build or
        test by subsumption are ``REQUIRED_TYPES``, but for the optional
        ``comp``, and ``BUILT_TYPES`` is what ``grammar`` builds."""
        grammar_built, grammar_tested = _named_in(grammar)
        lexicon_built, lexicon_tested = _named_in(lexicon)
        assert grammar_built == set(BUILT_TYPES)
        named = grammar_built | grammar_tested | lexicon_built | lexicon_tested
        assert set(NAMED_TYPES) <= named
        assert named - {"comp"} == set(REQUIRED_TYPES)
        assert "comp" not in REQUIRED_TYPES

    def test_the_sign_supertype_may_have_any_name(self):
        """No code builds or tests ``sign``, so the bundled fragment with it
        renamed everywhere loads and reads the corpus as the bundled one."""
        renamed = re.sub(r"(?<![\w-])sign(?![\w-])", "zeichen", fragment_text())
        assert "(type zeichen (top) (SYNSEM synsem))" in renamed
        renamed_lexicon = load_lexicon(renamed)
        assert ([parse(s, renamed_lexicon).readings for s in corpus_sentences()]
                == [3, 3, 1, 1, 2, 2, 1, 5, 0, 1, 1, 10])
