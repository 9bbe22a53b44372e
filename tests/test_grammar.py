from conftest import corpus_sentences, sign_at
from vorfeld import grammar
from vorfeld.avm import read_fs
from vorfeld.grammar import (
    P_COMPS,
    P_HEAD,
    P_LEX,
    P_LOC,
    P_SLASH,
    P_SYNSEM,
    P_VCOMP,
    SCHEMA_BIT,
    SCHEMA_HEAD_ADJUNCT,
    SCHEMA_HEAD_COMPLEMENT,
    SCHEMA_SLASH_INTRO,
    SCHEMA_VERB_CLUSTER,
    Sign,
    apply_filler_head,
    apply_head_adjunct,
    apply_head_complement,
    apply_pvp_slash_introduction,
    apply_schema,
    apply_verb_cluster,
    check_comps_closed,
    lexical_sign,
    make_vcomp_trace,
)
from vorfeld.orderdomain import mask_positions
from vorfeld.parser import TRACE, Derivation, Edge, ParseOptions, demonstrate_trace_mode, parse
from vorfeld.tfs import fs_equal, path_get


def _comps_cases(sign):
    fs = sign.fs
    comps = fs.nodes[fs.resolve(P_COMPS)]
    out = []
    for elem in comps.elems:
        cur = elem
        for feat in ("LOC", "CAT", "HEAD", "CASE"):
            cur = dict(fs.nodes[cur].feats)[feat]
        out.append(fs.nodes[cur].type)
    return out


def _hfp_holds(mother):
    return (mother.fs.resolve(P_SYNSEM + P_HEAD)
            == mother.fs.resolve(("DTRS", "HEAD-DTR") + P_SYNSEM + P_HEAD))


def _rebuilt(tree):
    """The full sign, DTRS included, that a derivation rebuilds.

    ``tree`` is a lexical Sign or a ``(schema, first, second)`` triple of
    subtrees; its chart edges are built as the parser builds them, and the
    rebuilt root's SYNSEM and domain must equal the chart root's.
    """
    def edge(node):
        if isinstance(node, Sign):
            return Edge(0, node, node.dom.coverage, "lex", ())
        schema, first, second = node
        a, b = edge(first), edge(second)
        mother = apply_schema(schema, a.sign, b.sign)
        assert mother is not None
        return Edge(0, mother, mother.dom.coverage, schema, (a, b))

    root = edge(tree)
    full = Derivation(root).sign
    assert fs_equal(path_get(full.fs, P_SYNSEM), root.sign.fs) and full.dom == root.sign.dom
    return full


TOKENS_1A = "Erzählen wird er seiner Tochter ein Märchen".split()
TOKENS_1B = "Erzählen müssen wird er seiner Tochter ein Märchen".split()
TOKENS_6 = "weil er ihm ein Märchen erzählen lassen hat".split()
TOKENS_4 = "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer".split()
TOKENS_7B = "Vortragen wird er es morgen".split()


class TestHeadComplement:
    def test_saturates_the_most_oblique_slot(self, fragment):
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1A, 0, arity=2)
        projection = apply_pvp_slash_introduction(wird, erz3)
        assert projection is not None
        assert _comps_cases(projection) == ["nom", "dat", "acc"]
        em = sign_at(fragment, "ein Märchen", TOKENS_1A, 5)
        mother = apply_head_complement(projection, em)
        assert mother is not None
        assert _comps_cases(mother) == ["nom", "dat"]
        assert mother.fs.nodes[mother.fs.resolve(P_LEX)].type == "-"
        assert _hfp_holds(_rebuilt((SCHEMA_HEAD_COMPLEMENT,
                                    (SCHEMA_SLASH_INTRO, wird, erz3), em)))

    def test_saturated_head_takes_nothing(self, fragment):
        er = sign_at(fragment, "er", TOKENS_1A, 2)
        em = sign_at(fragment, "ein Märchen", TOKENS_1A, 5)
        assert apply_head_complement(er, em) is None

    def test_case_clash_fails(self, fragment):
        """Offering the dative for the accusative slot has no GLB to meet."""
        assert fragment.hierarchy.glb("dat", "acc") is None
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1A, 0, arity=2)
        projection = apply_pvp_slash_introduction(wird, erz3)
        st = sign_at(fragment, "seiner Tochter", TOKENS_1A, 3)
        assert apply_head_complement(projection, st) is None

    def test_cluster_forms_before_complements(self, fragment):
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        er = sign_at(fragment, "er", TOKENS_1A, 2)
        assert apply_head_complement(wird, er) is None


class TestHeadAdjunct:
    def test_discontinuous_pp_over_vp(self, fragment):
        ermorden = sign_at(fragment, "ermorden", TOKENS_4, 2)
        dk = sign_at(fragment, "Den Kanzlerkandidaten", TOKENS_4, 0)
        pp = sign_at(fragment, "mit diesem Messer", TOKENS_4, 6)
        vp = apply_head_complement(ermorden, dk)
        mother = apply_head_adjunct(vp, pp)
        assert mother is not None
        assert len(mother.dom.elements) == 3
        assert mask_positions(mother.dom.coverage) == (0, 1, 2, 6, 7, 8)
        assert _hfp_holds(_rebuilt((SCHEMA_HEAD_ADJUNCT,
                                    (SCHEMA_HEAD_COMPLEMENT, ermorden, dk), pp)))

    def test_adverb_preserves_lex(self, fragment):
        vortragen = sign_at(fragment, "Vortragen", TOKENS_7B, 0)
        morgen = sign_at(fragment, "morgen", TOKENS_7B, 4)
        mother = apply_head_adjunct(vortragen, morgen)
        assert mother is not None
        assert mother.fs.nodes[mother.fs.resolve(P_LEX)].type == "+"
        # the LEX value is the head's own node, not a copy
        full = _rebuilt((SCHEMA_HEAD_ADJUNCT, vortragen, morgen))
        assert (full.fs.resolve(P_SYNSEM + P_LEX)
                == full.fs.resolve(("DTRS", "HEAD-DTR") + P_SYNSEM + P_LEX))

    def test_mod_clash_fails(self, fragment):
        pp = sign_at(fragment, "mit diesem Messer", TOKENS_4, 6)
        np = sign_at(fragment, "die Frau", TOKENS_4, 4)
        assert apply_head_adjunct(np, pp) is None


class TestVerbCluster:
    def test_nested_cluster(self, fragment):
        """erzählen + lassen, then + hat: the whole argument set climbs."""
        erz2 = sign_at(fragment, "erzählen", TOKENS_6, 5, arity=1)
        lassen = sign_at(fragment, "lassen", TOKENS_6, 6)
        hat = sign_at(fragment, "hat", TOKENS_6, 7)
        inner = apply_verb_cluster(lassen, erz2)
        assert inner is not None
        assert _comps_cases(inner) == ["dat", "acc"]
        outer = apply_verb_cluster(hat, inner)
        assert outer is not None
        assert _comps_cases(outer) == ["nom", "dat", "acc"]
        assert outer.fs.nodes[outer.fs.resolve(P_LEX)].type == "+"
        assert outer.fs.nodes[outer.fs.resolve(P_VCOMP)].type == "none"
        assert len(outer.dom.elements) == 3
        assert _hfp_holds(_rebuilt((SCHEMA_VERB_CLUSTER, hat,
                                    (SCHEMA_VERB_CLUSTER, lassen, erz2))))

    def test_modal_cluster_keeps_subject_apart(self, fragment):
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1B, 0, arity=2)
        muessen = sign_at(fragment, "müssen", TOKENS_1B, 1)
        cluster = apply_verb_cluster(muessen, erz3)
        assert cluster is not None
        assert _comps_cases(cluster) == ["dat", "acc"]
        fs = cluster.fs
        subj = fs.nodes[fs.resolve(P_HEAD + ("SUBJ",))]
        assert subj.kind == "closed" and len(subj.elems) == 1
        assert cluster.fs.nodes[fs.resolve(P_LEX)].type == "+"

    def test_auxiliary_rejects_unsaturated_modal(self, fragment):
        """wird demands a bse complement whose own VCOMP is none."""
        wird = sign_at(fragment, "wird", TOKENS_1B, 2)
        muessen = sign_at(fragment, "müssen", TOKENS_1B, 1)
        assert apply_verb_cluster(wird, muessen) is None

    def test_rejects_phrasal_cluster_daughter(self, fragment):
        """LEX - projections never cluster; fronting needs the slash route."""
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1A, 0, arity=2)
        em = sign_at(fragment, "ein Märchen", TOKENS_1A, 5)
        vp = apply_head_complement(erz3, em)
        assert vp.fs.nodes[vp.fs.resolve(P_LEX)].type == "-"
        muessen = sign_at(fragment, "müssen", TOKENS_1B, 1)
        assert apply_verb_cluster(muessen, vp) is None


class TestSlashIntroduction:
    def test_licenses_partial_vp(self, fragment):
        """The figure-one configuration: a dative-saturated projection
        licenses the dependency, the accusative is attracted upstairs."""
        tokens = "Seiner Tochter erzählen wird er das Märchen".split()
        licenser = _partial_vp_dat_saturated(fragment, tokens)
        wird = sign_at(fragment, "wird", tokens, 3)
        mother = apply_pvp_slash_introduction(wird, licenser)
        assert mother is not None
        assert _comps_cases(mother) == ["nom", "acc"]
        slash = mother.fs.nodes[mother.fs.resolve(P_SLASH)]
        assert len(slash.elems) == 1
        assert mother.fs.nodes[mother.fs.resolve(P_VCOMP)].type == "none"
        assert mother.fs.nodes[mother.fs.resolve(P_LEX)].type == "+"
        assert mother.dom == wird.dom, "the licenser adds no domain material"
        assert check_comps_closed(mother)

    def test_lex_is_invisible_across_the_dependency(self, fragment):
        """A LEX - projection licenses what clustering rejects."""
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1A, 0, arity=2)
        em = sign_at(fragment, "ein Märchen", TOKENS_1A, 5)
        vp = apply_head_complement(erz3, em)
        muessen = sign_at(fragment, "müssen", TOKENS_1B, 1)
        assert apply_verb_cluster(muessen, vp) is None
        licensed = apply_pvp_slash_introduction(muessen, vp)
        assert licensed is not None

    def test_unsaturated_modal_cannot_be_licensed(self, fragment):
        tokens = "Müssen wird er ihr ein Märchen erzählen".split()
        wird = sign_at(fragment, "wird", tokens, 1)
        muessen = sign_at(fragment, "Müssen", tokens, 0)
        assert apply_pvp_slash_introduction(wird, muessen) is None

    def test_slashed_licenser_rejected(self, fragment):
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        erz3 = sign_at(fragment, "Erzählen", TOKENS_1A, 0, arity=2)
        slashed = apply_pvp_slash_introduction(wird, erz3)
        wird_again = lexical_sign(fragment.hierarchy,
                                  fragment.find("wird")[0].fs, ("wird",), 6)
        assert apply_pvp_slash_introduction(wird_again, slashed) is None

    def test_overlapping_coverage_rejected(self, fragment):
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        overlapping = lexical_sign(
            fragment.hierarchy,
            [e for e in fragment.find("erzählen")
             if e.fs.nodes[e.fs.resolve(P_SYNSEM + P_COMPS)].elems][0].fs,
            ("erzählen",), 1)
        assert apply_pvp_slash_introduction(wird, overlapping) is None


def _partial_vp_dat_saturated(fragment, tokens):
    """'Seiner Tochter erzählen' with the accusative left open, built from a
    hand-written structure: the fixed saturation order cannot derive it
    directly, which is exactly why the licensing schema must accept it."""
    from vorfeld.avm import print_fs
    np_nom = print_fs(fragment.templates["np-nom"], indent=False)
    np_acc = print_fs(fragment.templates["np-acc"], indent=False)
    text = f"""
    (lexical-sign (SYNSEM (synsem (LEX -)
      (LOC (local (CAT (cat
        (HEAD (verb (VFORM bse) (SUBJ (list {np_nom}))))
        (COMPS (list {np_acc}))
        (VCOMP none)))))
      (NONLOC (nonlocal (INHER (inherited (SLASH (set)))))))))
    """
    fs = read_fs(text, fragment.hierarchy)
    return lexical_sign(fragment.hierarchy, fs, ("Seiner", "Tochter", "erzählen"), 0)


class TestFillerHead:
    def test_binds_and_inserts(self, fragment):
        tokens = "Seiner Tochter ein Märchen erzählen wird er".split()
        erz = sign_at(fragment, "erzählen", tokens, 4, arity=2)
        vp1 = apply_head_complement(erz, sign_at(fragment, "ein Märchen", tokens, 2))
        vp = apply_head_complement(vp1, sign_at(fragment, "Seiner Tochter", tokens, 0))
        wird = sign_at(fragment, "wird", tokens, 5)
        clause1 = apply_pvp_slash_introduction(wird, vp)
        clause = apply_head_complement(clause1, sign_at(fragment, "er", tokens, 6))
        root = apply_filler_head(vp, clause)
        assert root is not None
        assert root.fs.nodes[root.fs.resolve(P_SLASH)].elems == ()
        assert root.dom.phon() == tuple(tokens)

    def test_clause_without_slash_is_inapplicable(self, fragment):
        tokens = "Seiner Tochter ein Märchen erzählen wird er".split()
        erz = sign_at(fragment, "erzählen", tokens, 4, arity=2)
        vp1 = apply_head_complement(erz, sign_at(fragment, "ein Märchen", tokens, 2))
        vp = apply_head_complement(vp1, sign_at(fragment, "Seiner Tochter", tokens, 0))
        assert apply_filler_head(vp, vp) is None

    def test_valence_mismatch_in_the_slash_fails(self, fragment):
        """A fully saturated filler cannot bind a dependency that demands
        an open accusative slot (closed lists of different lengths)."""
        tokens = TOKENS_1A
        wird = sign_at(fragment, "wird", tokens, 1)
        erz3 = sign_at(fragment, "Erzählen", tokens, 0, arity=2)
        clause1 = apply_pvp_slash_introduction(wird, erz3)
        clause2 = apply_head_complement(clause1, sign_at(fragment, "ein Märchen", tokens, 5))
        clause3 = apply_head_complement(clause2, sign_at(fragment, "seiner Tochter", tokens, 3))
        clause = apply_head_complement(clause3, sign_at(fragment, "er", tokens, 2))
        assert clause is not None and clause.facts.slash == 1
        saturated_filler = _partial_vp_fully_saturated(fragment)
        assert apply_filler_head(saturated_filler, clause) is None


def _partial_vp_fully_saturated(fragment):
    np_nom = fragment.templates["np-nom"]
    from vorfeld.avm import print_fs
    text = f"""
    (lexical-sign (SYNSEM (synsem (LEX -)
      (LOC (local (CAT (cat
        (HEAD (verb (VFORM bse) (SUBJ (list {print_fs(np_nom, indent=False)}))))
        (COMPS (list))
        (VCOMP none)))))
      (NONLOC (nonlocal (INHER (inherited (SLASH (set)))))))))
    """
    fs = read_fs(text, fragment.hierarchy)
    return lexical_sign(fragment.hierarchy, fs, ("Erzählen",), 0)


class TestCompsClosed:
    def test_every_entry_passes(self, fragment):
        for entry in fragment.words():
            sign = lexical_sign(fragment.hierarchy, entry.fs, entry.phon, 0)
            assert check_comps_closed(sign), entry.phon

    def test_slash_introduction_output_passes(self, fragment):
        tokens = "Seiner Tochter erzählen wird er das Märchen".split()
        licenser = _partial_vp_dat_saturated(fragment, tokens)
        wird = sign_at(fragment, "wird", tokens, 3)
        mother = apply_pvp_slash_introduction(wird, licenser)
        assert check_comps_closed(mother)

    def test_trace_combination_fails_the_check(self, fragment):
        wird = sign_at(fragment, "wird", TOKENS_1A, 1)
        trace = make_vcomp_trace(fragment.hierarchy)
        mother = apply_verb_cluster(wird, trace)
        assert mother is not None
        assert not check_comps_closed(mother)


class TestTrace:
    def test_slash_holds_its_own_loc(self, fragment):
        trace = make_vcomp_trace(fragment.hierarchy)
        fs = trace.fs
        slash = fs.nodes[fs.resolve(P_SLASH)]
        assert slash.elems == (fs.resolve(P_LOC),)

    def test_no_memo_outlives_a_parse(self, fragment, monkeypatch):
        """Each parse starts with an empty memo: a second trace-mode run over
        the same lexicon builds every mother structure again."""
        calls = []
        make_sign = grammar.make_sign
        monkeypatch.setattr(grammar, "make_sign",
                            lambda *args: calls.append(args) or make_sign(*args))
        counts = []
        for _ in range(2):
            calls.clear()
            demonstrate_trace_mode(TOKENS_1A, fragment, edge_limit=2000)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_trace_is_phonologically_empty(self, fragment):
        trace = make_vcomp_trace(fragment.hierarchy)
        assert trace.dom.elements == ()
        assert trace.dom.coverage == 0


def _role_masks_and_overflow(first, second):
    """:func:`vorfeld.grammar.fits` without its type tests."""
    fit = first.heads & second.deps
    if first.slash == 1 and second.slash == 1:
        fit &= ~(SCHEMA_BIT[SCHEMA_HEAD_COMPLEMENT] | SCHEMA_BIT[SCHEMA_HEAD_ADJUNCT]
                 | SCHEMA_BIT[SCHEMA_VERB_CLUSTER])
    return fit


class TestFits:
    def test_a_type_test_drops_only_pairs_whose_body_fails(self, fragment, monkeypatch):
        """Each type test of ``fits`` is an and of extension masks standing
        in for a unification the schema's body would attempt.  Over every
        ordered pair of distinct chart signs with disjoint coverage, in the
        corpus charts and the trace chart, each schema the tests drop is
        applied with the tests off, and must build nothing."""
        charts = [parse(tokens, fragment).edges for tokens in corpus_sentences()]
        charts.append(parse(TOKENS_1A, fragment, ParseOptions(mode=TRACE, edge_limit=10000)).edges)
        fits = grammar.fits
        monkeypatch.setattr(grammar, "fits", _role_masks_and_overflow)
        tried = set()
        for edges in charts:
            signs = list({id(e.sign): e.sign for e in edges}.values())
            for a in signs:
                for b in signs:
                    if a is b or a.dom.coverage & b.dom.coverage:
                        continue
                    dropped = _role_masks_and_overflow(a.facts, b.facts) & ~fits(a.facts, b.facts)
                    for schema, bit in SCHEMA_BIT.items():
                        if dropped & bit:
                            tried.add(schema)
                            assert apply_schema(schema, a, b) is None, (schema, a.facts, b.facts)
        # every type test dropped some pair
        assert tried == {SCHEMA_HEAD_COMPLEMENT, SCHEMA_HEAD_ADJUNCT, SCHEMA_VERB_CLUSTER,
                         SCHEMA_SLASH_INTRO}
