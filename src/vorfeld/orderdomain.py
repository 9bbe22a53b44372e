"""Word order domains: an ordered level of representation beside the tree.

A domain is a sequence of elements, each covering a set of input positions
(bitmask), carrying its surface tokens and the word order class of the
contributing sign (:data:`FINITE`, :data:`VERBAL`, :data:`COMPLEMENTIZER`
or None), all that word order reads of a sign.  The grammar reads the class
off the sign's types (``SignFacts.order``), so no type name of a fragment
occurs here, and a domain is a value: equal elements mean equal order.
Constituency and linear order are decoupled: a constituent may be
discontinuous, i.e. its domain elements need not cover adjacent positions.

In recognition mode the input string fixes the interleaving, so domain
union is deterministic given the coverages; the shuffle character of the
union operator is realized by the parser admitting any coverage
interleaving the combination schemata allow.

This module is the one place that decides word order, and it makes every
domain: a word's (:func:`lexical_domain`), and a mother's from its
daughters' (:func:`domain_union`, :func:`insert_complement_domain`,
:func:`insert_filler_domain`).  Each domain knows its coverage, so a
chart edge covers exactly what its sign's domain covers: the licensing
daughter of slash introduction, which gets no place in the mother's
domain, is thereby left out of the mother's coverage too.

``fields`` is the topological field model: Vorfeld (exactly one element
before the finite verb in verb-second clauses, and verbal material there
only as the inserted filler block of a bound nonlocal dependency), the
finite verb as left bracket, an unconstrained Mittelfeld, and the verb
cluster as a contiguous right bracket.  Verb-final clauses start with the
complementizer and end in a contiguous verb block.

``cluster_in_order`` is the order of one verb cluster, a condition on that
cluster's own domain.  A cluster's coverage is the union of its daughters',
so the rule is judged on the pair before the schema runs, and no
out-of-order cluster is ever built.  ``lp_check``, the linearization gate
applied to complete clause candidates, is then the field model alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .grammar import Sign

V2 = "v2"
VFINAL = "vfinal"

# the word order classes of an element: a finite verb, any other verb, and a
# complementizer; an element of any other sign has None
FINITE = "finite"
VERBAL = "verbal"
COMPLEMENTIZER = "complementizer"


# ---------------------------------------------------------------------------
# coverage bitmasks


def mask_from(positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def mask_span(start: int, length: int) -> int:
    return ((1 << length) - 1) << start


def mask_positions(mask: int) -> tuple[int, ...]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def mask_min(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def mask_max(mask: int) -> int:
    return mask.bit_length() - 1


def mask_is_contiguous(mask: int) -> bool:
    # adding the lowest set bit carries through a single run of ones
    return (mask + (mask & -mask)) & mask == 0


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainElement:
    """One entry of a word order domain.

    ``phon`` holds the input tokens at the covered positions in ascending
    order; ``order`` is the word order class of the sign that contributed
    the element.  ``field`` is stored only on the Vorfeld block of a
    bound filler ("VF", set at insertion); every other element's field is
    computed, never stored, by :func:`fields`.
    """

    phon: tuple[str, ...]
    coverage: int
    order: Optional[str]
    field: Optional[str] = None

    def __post_init__(self):
        if self.coverage == 0:
            raise ValueError("domain elements must cover at least one position")
        if len(self.phon) != bin(self.coverage).count("1"):
            raise ValueError("phon length must match coverage size")


@dataclass(frozen=True)
class Domain:
    """Elements in position order, and ``coverage``, the union of theirs.

    The coverage is given where the domain is made; :func:`domain_union`
    tests it to rule out overlaps.
    """

    elements: tuple[DomainElement, ...]
    coverage: int

    def phon(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.elements:
            out.extend(e.phon)
        return tuple(out)


EMPTY_DOMAIN = Domain((), 0)


def lexical_domain(tokens: Sequence[str], start: int, order: Optional[str]) -> Domain:
    """The domain of a word: one element of class ``order``, covering ``tokens`` at ``start``."""
    element = DomainElement(tuple(tokens), mask_span(start, len(tokens)), order)
    return Domain((element,), element.coverage)


def domain_union(d1: Domain, d2: Domain) -> Optional[Domain]:
    """Merge two domains, ordered by position; None when their coverages overlap.

    A domain's elements never overlap, so one test of the two coverages
    rules out every overlap between elements.
    """
    if d1.coverage & d2.coverage:
        return None
    # the lowest set bit of a coverage orders as its mask_min does
    elements = sorted(d1.elements + d2.elements, key=lambda e: e.coverage & -e.coverage)
    return Domain(tuple(elements), d1.coverage | d2.coverage)


def compact(elems: Sequence[DomainElement], order: Optional[str],
            field: Optional[str] = None) -> Optional[DomainElement]:
    """Collapse elements covering a contiguous range into one element of ``order``.

    Non-contiguous coverage signals an unlicensed discontinuity and fails.
    """
    if not elems:
        return None
    mask = 0
    for e in elems:
        if mask & e.coverage:
            return None
        mask |= e.coverage
    if not mask_is_contiguous(mask):
        return None
    if len(elems) == 1:  # one element's tokens are in position order already
        return DomainElement(elems[0].phon, mask, order, field)
    pairs = sorted(pair for e in elems for pair in zip(mask_positions(e.coverage), e.phon))
    return DomainElement(tuple(p for _, p in pairs), mask, order, field)


def insert_complement_domain(head: "Sign", comp: "Sign") -> Optional[Domain]:
    """The head's domain with ``comp``'s material (Reape 1994): its elements
    as they are under a complementizer head, nothing of an empty complement,
    else one compacted element of its class; None when that fails."""
    if head.facts.order == COMPLEMENTIZER:
        return domain_union(head.dom, comp.dom)
    if not comp.dom.elements:
        return head.dom
    element = compact(comp.dom.elements, comp.facts.order)
    if element is None:
        return None
    return domain_union(head.dom, Domain((element,), element.coverage))


def insert_filler_domain(clause: Domain, filler: "Sign", finite_verb_pos: int) -> Optional[Domain]:
    """Insert a bound filler's material into the clause domain.

    Elements entirely before the finite verb compact into one Vorfeld
    block; the rest (e.g. a discontinuous adjunct or an argument realized
    in the Mittelfeld) join as separate elements.  Fails when the filler
    has no pre-verbal material, the pre-verbal block is non-contiguous or
    the filler overlaps the clause.
    """
    pre = [e for e in filler.dom.elements if mask_max(e.coverage) < finite_verb_pos]
    post = [e for e in filler.dom.elements if mask_max(e.coverage) >= finite_verb_pos]
    block = compact(pre, filler.facts.order, field="VF")
    if block is None:
        return None
    return domain_union(clause, Domain((block, *post), filler.dom.coverage))


# ---------------------------------------------------------------------------
# linearization checks


def _non_interleaving(elements: Sequence[DomainElement]) -> bool:
    prev_max = -1
    for e in elements:
        if mask_min(e.coverage) <= prev_max:
            return False
        prev_max = mask_max(e.coverage)
    return True


def finite_verb_position(dom: Domain) -> Optional[int]:
    """Position of the unique finite-verb element of ``dom``; None unless there is one."""
    positions = [mask_min(e.coverage) for e in dom.elements if e.order == FINITE]
    return positions[0] if len(positions) == 1 else None


def cluster_in_order(coverage: int, head_dom: Domain, clause_type: str) -> bool:
    """The order of one verb cluster covering ``coverage``, whose head has ``head_dom``.

    The cluster is contiguous, and its embedded material precedes its head.
    In a verb-second clause a head that is one finite-verb element stands in
    the left bracket, so that verb is left out of both conditions.
    """
    head = head_dom.elements
    embedded = coverage & ~head_dom.coverage
    if clause_type == V2 and len(head) == 1 and head[0].order == FINITE:
        return mask_is_contiguous(embedded)
    return mask_is_contiguous(coverage) and (
        not (embedded and head) or mask_max(embedded) < mask_min(head_dom.coverage))


def fields(dom: Domain, clause_type: str) -> Optional[tuple[str, ...]]:
    """The topological field (VF, LB, MF or RB) of each element of ``dom``.

    None when the elements fit no field assignment of ``clause_type``.
    """
    elements = dom.elements
    if not elements or not _non_interleaving(elements):
        return None
    if clause_type == V2:
        if [i for i, e in enumerate(elements) if e.order == FINITE] != [1]:
            return None  # exactly one element precedes the one finite verb
        if elements[0].field != "VF" and elements[0].order == VERBAL:
            return None  # only a bound filler may front verbal material
        brackets = ("VF", "LB")
        rb = [i for i, e in enumerate(elements) if i > 1 and e.order == VERBAL]
    elif clause_type == VFINAL:
        if elements[0].order != COMPLEMENTIZER:
            return None
        if any(e.field == "VF" for e in elements):
            return None  # no Vorfeld in verb-final clauses
        brackets = ("LB",)
        rb = [i for i, e in enumerate(elements) if e.order in (FINITE, VERBAL)]
    else:
        raise ValueError(f"unknown clause type {clause_type!r}")
    rb_start = rb[0] if rb else len(elements)
    if rb != list(range(rb_start, len(elements))):
        return None  # the right bracket must be a contiguous, clause-final suffix
    return brackets + ("MF",) * (rb_start - len(brackets)) + ("RB",) * len(rb)


def lp_check(dom: Domain, clause_type: str) -> bool:
    """Topological-field validation of a complete clause candidate.

    The fields are read off ``dom``, the domain of the candidate's root
    sign.  Every verb cluster below the root was judged before it was
    built, so the chart holds no cluster out of order.
    """
    return fields(dom, clause_type) is not None
