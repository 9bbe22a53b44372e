import ast
import dataclasses
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracle
from conftest import corpus_sentences, sign_at
from oracle import closure
from test_cli import ADJUNCT_PRINTED_DIGESTS
from vorfeld import grammar, orderdomain, parser
from vorfeld.grammar import apply_head_adjunct, apply_head_complement, make_vcomp_trace
from vorfeld.orderdomain import (
    EMPTY_DOMAIN,
    FINITE,
    Domain,
    DomainElement,
    compact,
    domain_union,
    fields,
    finite_verb_position,
    insert_complement_domain,
    insert_filler_domain,
    lexical_domain,
    lp_check,
    mask_from,
    mask_is_contiguous,
    mask_min,
    mask_positions,
    mask_span,
)
from vorfeld.parser import parse


def make_domain(elements: Sequence[DomainElement]) -> Optional[Domain]:
    """Sort by leftmost position; None when coverages overlap."""
    mask = 0
    for e in elements:
        if mask & e.coverage:
            return None
        mask |= e.coverage
    return Domain(tuple(sorted(elements, key=lambda e: mask_min(e.coverage))), mask)


def _element(fragment, word, tokens, pos, arity=None):
    sign = sign_at(fragment, word, tokens, pos, arity=arity)
    return sign.dom.elements[0]


class TestMasks:
    def test_round_trip(self):
        assert mask_positions(mask_from([0, 2, 5])) == (0, 2, 5)

    def test_span(self):
        assert mask_positions(mask_span(2, 3)) == (2, 3, 4)

    def test_contiguity(self):
        assert mask_is_contiguous(mask_span(1, 4))
        assert not mask_is_contiguous(mask_from([1, 3]))
        assert mask_is_contiguous(0)

    def test_contiguity_is_one_span(self):
        for mask in range(1, 1 << 10):
            positions = mask_positions(mask)
            span = mask_span(positions[0], positions[-1] - positions[0] + 1)
            assert mask_is_contiguous(mask) == (mask == span), bin(mask)


class TestDomainUnion:
    def test_orders_by_position(self, fragment):
        tokens = "weil er ihr ein Märchen erzählen müssen wird".split()
        erz = make_domain([_element(fragment, "erzählen", tokens, 5, arity=2)])
        mue = make_domain([_element(fragment, "müssen", tokens, 6)])
        union = domain_union(mue, erz)
        assert union is not None
        assert [e.phon for e in union.elements] == [("erzählen",), ("müssen",)]

    def test_empty_is_identity(self, fragment):
        tokens = ["er"]
        d = make_domain([_element(fragment, "er", tokens, 0)])
        assert domain_union(d, EMPTY_DOMAIN) == d

    def test_overlap_fails(self, fragment):
        tokens = ["er"]
        d = make_domain([_element(fragment, "er", tokens, 0)])
        assert domain_union(d, d) is None


class TestCompact:
    def test_contiguous_block(self, fragment):
        tokens = "Seiner Tochter ein Märchen erzählen wird er".split()
        st = _element(fragment, "Seiner Tochter", tokens, 0)
        em = _element(fragment, "ein Märchen", tokens, 2)
        erz = _element(fragment, "erzählen", tokens, 4, arity=2)
        block = compact([erz, st, em], erz.order, field="VF")
        assert block is not None
        assert block.phon == ("Seiner", "Tochter", "ein", "Märchen", "erzählen")
        assert mask_positions(block.coverage) == (0, 1, 2, 3, 4)
        assert block.field == "VF"

    def test_gap_fails(self, fragment):
        tokens = "Vortragen wird er es morgen".split()
        v = _element(fragment, "Vortragen", tokens, 0)
        m = _element(fragment, "morgen", tokens, 4)
        assert compact([v, m], v.order) is None


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _elements_of(owners, order):
    """One element per owner, covering the positions that owner holds."""
    positions: dict[int, list[int]] = {}
    for p, owner in enumerate(owners):
        if owner is not None:
            positions.setdefault(owner, []).append(p)
    return {owner: DomainElement(tuple(f"w{p}" for p in ps), mask_from(ps), order)
            for owner, ps in positions.items()}


class TestFastPaths:
    """``domain_union`` and ``compact`` against plainer paths on random
    elements: the union of two domains is the domain of all their elements
    sorted by position (``make_domain``), and ``compact`` of one element,
    its short path, gives what the same material split in two does."""

    @PROPERTY
    @given(st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=1, max_size=14),
           st.lists(st.booleans(), min_size=6, max_size=6))
    def test_union_of_disjoint_domains_is_make_domain(self, fragment, owners, sides):
        elements = _elements_of(owners, sign_at(fragment, "er", ["er"], 0).facts.order)
        d1 = make_domain([e for k, e in elements.items() if sides[k]])
        d2 = make_domain([e for k, e in elements.items() if not sides[k]])
        assert domain_union(d1, d2) == make_domain(d1.elements + d2.elements)
        assert domain_union(d2, d1) == make_domain(d2.elements + d1.elements)
        assert (domain_union(d1, d1) is None) == bool(d1.elements)

    @PROPERTY
    @given(st.lists(st.one_of(st.none(), st.booleans()), min_size=2, max_size=14)
           .filter(lambda owners: {True, False} <= set(owners)),
           st.sampled_from([None, "VF"]))
    def test_compact_of_one_element_is_the_general_path(self, fragment, owners, field):
        """One element compacts as the same material split in two does."""
        order = sign_at(fragment, "er", ["er"], 0).facts.order
        halves = list(_elements_of(owners, order).values())
        (one,) = _elements_of([None if o is None else 0 for o in owners], order).values()
        assert len(halves) == 2
        assert compact([one], order, field) == compact(halves, order, field)


class TestLexicalDomain:
    def test_one_element_of_the_words_tokens(self):
        mask = mask_span(3, 2)
        assert lexical_domain(("ein", "Märchen"), 3, None) == Domain(
            (DomainElement(("ein", "Märchen"), mask, None),), mask)

    def test_a_words_sign_has_it(self, fragment):
        tokens = "Er wird seiner Tochter ein Märchen erzählen müssen".split()
        for pos in (1, 2):
            for span, sign in fragment.lookup(tokens, pos):
                assert sign.dom == lexical_domain(tokens[pos:pos + span], pos, sign.facts.order)


class TestInsertComplementDomain:
    TOKENS = "weil er ihr ein Märchen erzählen müssen wird".split()

    def _clause(self, fragment, *words):
        """The first word's sign, its domain holding each word's own element."""
        signs = [sign_at(fragment, w, self.TOKENS, self.TOKENS.index(w.split()[0]))
                 for w in words]
        return dataclasses.replace(
            signs[0], dom=make_domain([s.dom.elements[0] for s in signs]))

    def test_complementizer_head_keeps_the_elements(self, fragment):
        weil = sign_at(fragment, "weil", self.TOKENS, 0)
        clause = self._clause(fragment, "er", "ihr")
        result = insert_complement_domain(weil, clause)
        assert result.elements == weil.dom.elements + clause.dom.elements
        # any other head compacts the same complement into one element
        wird = sign_at(fragment, "wird", self.TOKENS, 7)
        compacted = insert_complement_domain(wird, clause)
        assert [e.phon for e in compacted.elements] == [("er", "ihr"), ("wird",)]
        assert compacted.elements[0].order == clause.facts.order

    def test_empty_trace_domain_leaves_the_heads(self, fragment):
        erz = sign_at(fragment, "erzählen", self.TOKENS, 5, arity=2)
        trace = make_vcomp_trace(fragment.hierarchy)
        assert trace.dom == EMPTY_DOMAIN
        assert insert_complement_domain(erz, trace) == erz.dom

    def test_discontinuous_complement_fails(self, fragment):
        erz = sign_at(fragment, "erzählen", self.TOKENS, 5, arity=2)
        gapped = self._clause(fragment, "er", "ein Märchen")
        assert insert_complement_domain(erz, gapped) is None


def _filler_with_adjunct(fragment):
    """The fronted VP of 'Den Kanzlerkandidaten ermorden ... mit diesem
    Messer': complement attached, then the discontinuous modifier."""
    tokens = "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer".split()
    ermorden = sign_at(fragment, "ermorden", tokens, 2)
    dk = sign_at(fragment, "Den Kanzlerkandidaten", tokens, 0)
    pp = sign_at(fragment, "mit diesem Messer", tokens, 6)
    vp = apply_head_complement(ermorden, dk)
    assert vp is not None
    modified = apply_head_adjunct(vp, pp)
    assert modified is not None
    return modified


class TestInsertFillerDomain:
    def test_discontinuous_filler_splits(self, fragment):
        tokens = "Den Kanzlerkandidaten ermorden wollte die Frau mit diesem Messer".split()
        filler = _filler_with_adjunct(fragment)
        wollte = sign_at(fragment, "wollte", tokens, 3)
        clause = wollte.dom
        result = insert_filler_domain(clause, filler, finite_verb_pos=3)
        assert result is not None
        assert [e.phon for e in result.elements] == [
            ("Den", "Kanzlerkandidaten", "ermorden"),
            ("wollte",),
            ("mit", "diesem", "Messer"),
        ]
        assert result.elements[0].field == "VF"
        assert result.elements[2].field is None

    def test_fully_preverbal_filler_is_one_block(self, fragment):
        tokens = "Seiner Tochter ein Märchen erzählen wird er".split()
        erz = sign_at(fragment, "erzählen", tokens, 4, arity=2)
        vp1 = apply_head_complement(erz, sign_at(fragment, "ein Märchen", tokens, 2))
        vp = apply_head_complement(vp1, sign_at(fragment, "Seiner Tochter", tokens, 0))
        assert vp is not None
        wird = sign_at(fragment, "wird", tokens, 5)
        result = insert_filler_domain(wird.dom, vp, finite_verb_pos=5)
        assert result is not None
        assert len(result.elements) == 2
        assert result.elements[0].phon == ("Seiner", "Tochter", "ein", "Märchen", "erzählen")

    def test_filler_without_preverbal_material_fails(self, fragment):
        tokens = "Er wird seiner Tochter ein Märchen erzählen müssen".split()
        erz = sign_at(fragment, "erzählen", tokens, 6, arity=2)
        wird = sign_at(fragment, "wird", tokens, 1)
        assert insert_filler_domain(wird.dom, erz, finite_verb_pos=1) is None

    def test_overlapping_coverage_fails(self, fragment):
        tokens = "Vortragen wird er es morgen".split()
        v = sign_at(fragment, "Vortragen", tokens, 0)
        assert insert_filler_domain(v.dom, v, finite_verb_pos=3) is None


def _unordered_candidates(fragment, tokens):
    """Full-coverage edges of the closure that keeps verb clusters out of order."""
    full = mask_span(0, len(tokens))
    return [e for e in closure(tokens, fragment, cluster_order=False) if e.coverage == full]


# the starred corpus line: word order alone rules out each of its candidates
STARRED = "Müssen wird er ihr ein Märchen erzählen"


class TestLpCheck:
    """lp_check is exercised end to end through the parser: accepted roots
    satisfy it, and the starred example fails only because of it."""

    def test_v2_clause_accepted(self, fragment):
        tokens = "Er wird seiner Tochter ein Märchen erzählen müssen".split()
        result = parse(tokens, fragment)
        assert result.readings == 1
        root = result.derivations[0].sign
        assert [e.phon[0] for e in root.dom.elements][:2] == ["Er", "wird"]

    def test_starred_split_rejected_by_linearization_alone(self, fragment):
        """Every full-coverage candidate for the starred sentence is killed
        by the order checks, not by unification: the grammar without the
        cluster rule derives candidates, the tree walk rejects each, and
        the parser builds none of them."""
        tokens = STARRED.split()
        result = parse(tokens, fragment)
        assert result.readings == 0
        candidates = _unordered_candidates(fragment, tokens)
        assert candidates, "the combinatorics alone do not rule the string out"
        assert not [e for e in candidates if field_oracle.lp_check(e, "v2")]
        assert not {e.key() for e in candidates} & {e.key() for e in result.edges}

    def test_vfinal_clause_accepted(self, fragment):
        tokens = "weil er ihm ein Märchen erzählen lassen hat".split()
        result = parse(tokens, fragment)
        assert result.readings == 1
        assert result.clause_type == "vfinal"
        phons = [e.phon for e in result.derivations[0].sign.dom.elements]
        assert phons[-3:] == [("erzählen",), ("lassen",), ("hat",)]

    def test_finite_verb_position(self, fragment):
        tokens = "Vortragen wird er es morgen".split()
        wird = sign_at(fragment, "wird", tokens, 1)
        assert finite_verb_position(wird.dom) == 1
        assert finite_verb_position(sign_at(fragment, "er", tokens, 2).dom) is None


class TestFieldModel:
    """``fields`` states once the bracket rules that the root filter and the
    derivation printout each spelled out before (``field_oracle.py``)."""

    @pytest.mark.parametrize("sentence", [" ".join(s) for s in corpus_sentences()]
                             + list(ADJUNCT_PRINTED_DIGESTS))
    def test_same_verdicts_and_tags_as_the_reference(self, fragment, sentence):
        tokens = sentence.split()
        full = mask_span(0, len(tokens))
        roots = [e for e in parse(tokens, fragment).edges if e.coverage == full]
        if sentence == STARRED:
            # the parser builds no candidate; the tree walk rejects every
            # one the grammar derives without the cluster rule
            assert not roots
            roots = _unordered_candidates(fragment, tokens)
            assert roots
            for clause_type in ("v2", "vfinal"):
                assert not [e for e in roots if field_oracle.lp_check(e, clause_type)]
            return
        assert roots
        for clause_type in ("v2", "vfinal"):
            for root in roots:
                verdict = field_oracle.lp_check(root, clause_type)
                assert lp_check(root.sign.dom, clause_type) == verdict, root.key()
                if verdict:
                    expected = field_oracle.assign_fields(root.sign, clause_type)
                    assert fields(root.sign.dom, clause_type) == tuple(
                        tag for _, tag in expected), root.key()

    def test_interleaved_elements_fit_no_field(self):
        """An element whose coverage straddles another's is in no field,
        although the classes alone would read as Vorfeld and left bracket."""
        a = DomainElement(("w0", "w2"), mask_from([0, 2]), None)
        b = DomainElement(("w1",), mask_from([1]), FINITE)
        assert fields(Domain((a, b), 0b111), "v2") is None

    def test_unknown_clause_type_rejected(self, fragment):
        tokens = "Vortragen wird er es morgen".split()
        with pytest.raises(ValueError):
            fields(sign_at(fragment, "wird", tokens, 1).dom, "v1")


class TestElementInvariants:
    def test_phon_matches_coverage(self, fragment):
        e = _element(fragment, "seiner Tochter", "wird er seiner Tochter".split(), 2)
        assert len(e.phon) == len(mask_positions(e.coverage))

    def test_empty_coverage_rejected(self, fragment):
        e = _element(fragment, "er", ["er"], 0)
        with pytest.raises(ValueError):
            DomainElement((), 0, e.order)

    def test_make_domain_rejects_overlap(self, fragment):
        e = _element(fragment, "er", ["er"], 0)
        assert make_domain([e, e]) is None


def test_no_type_of_the_fragment_is_named_here(fragment):
    """Word order reads a sign's word order class, which the grammar reads
    off its types: no string in ``orderdomain`` names a type of the
    bundled hierarchy."""
    tree = ast.parse(Path(orderdomain.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings
    assert not strings & set(fragment.hierarchy.types)


@pytest.mark.parametrize("module", [grammar, parser])
def test_only_orderdomain_makes_domains(module):
    """Every domain and element is made in ``orderdomain``: the grammar
    and the parser call neither constructor."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called
    assert not called & {"Domain", "DomainElement"}
