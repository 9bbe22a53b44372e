"""Word order domains: an ordered level of representation beside the tree.

A domain is a sequence of elements, each covering a set of input positions
(bitmask), carrying its surface tokens and the synsem of the contributing
sign.  Constituency and linear order are decoupled: a constituent may be
discontinuous, i.e. its domain elements need not cover adjacent positions.

In recognition mode the input string fixes the interleaving, so domain
union is deterministic given the coverages; the shuffle character of the
union operator is realized by the parser admitting any coverage
interleaving the combination schemata allow.

``lp_check`` is the linearization gate applied to complete clause
candidates.  It implements a topological field model: Vorfeld (exactly one
element before the finite verb in verb-second clauses, and necessarily the
inserted filler block when a nonlocal dependency was bound), the finite
verb as left bracket, an unconstrained Mittelfeld, and the verb cluster as
a contiguous right bracket.  Verb-final clauses start with the
complementizer and end in a contiguous verb block ordered embedded before
embedding.  Cluster coverage must be contiguous at the root, except that
the finite verb of a verb-second clause escapes to the left bracket.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .tfs import FeatureStructure

if TYPE_CHECKING:  # pragma: no cover
    from .grammar import Sign
    from .parser import Edge

# schema labels (shared with grammar/parser; defined here so lp_check can
# walk derivations without importing the grammar module)
SCHEMA_HEAD_COMPLEMENT = "head-complement"
SCHEMA_HEAD_ADJUNCT = "head-adjunct"
SCHEMA_VERB_CLUSTER = "verb-cluster"
SCHEMA_SLASH_INTRO = "pvp-slash-intro"
SCHEMA_FILLER_HEAD = "filler-head"

V2 = "v2"
VFINAL = "vfinal"


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
    if mask == 0:
        return True
    lo, hi = mask_min(mask), mask_max(mask)
    return mask == mask_span(lo, hi - lo + 1)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainElement:
    """One entry of a word order domain.

    ``phon`` holds the input tokens at the covered positions in ascending
    order; ``synsem`` is the synsem of the sign that contributed the
    element; ``field`` is the topological field tag, assigned for the
    filler block at insertion time and for the rest at the root.
    """

    phon: tuple[str, ...]
    coverage: int
    synsem: FeatureStructure
    field: Optional[str] = None

    def __post_init__(self):
        if self.coverage == 0:
            raise ValueError("domain elements must cover at least one position")
        if len(self.phon) != bin(self.coverage).count("1"):
            raise ValueError("phon length must match coverage size")

    def with_field(self, field: str) -> "DomainElement":
        return DomainElement(self.phon, self.coverage, self.synsem, field)


@dataclass(frozen=True)
class Domain:
    elements: tuple[DomainElement, ...]

    @property
    def coverage(self) -> int:
        mask = 0
        for e in self.elements:
            mask |= e.coverage
        return mask

    def phon(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.elements:
            out.extend(e.phon)
        return tuple(out)


EMPTY_DOMAIN = Domain(())


def make_domain(elements: Sequence[DomainElement]) -> Optional[Domain]:
    """Sort by leftmost position; None when coverages overlap."""
    mask = 0
    for e in elements:
        if mask & e.coverage:
            return None
        mask |= e.coverage
    return Domain(tuple(sorted(elements, key=lambda e: mask_min(e.coverage))))


def domain_union(d1: Domain, d2: Domain) -> Optional[Domain]:
    """Merge two domains with disjoint coverages, ordered by position."""
    return make_domain(d1.elements + d2.elements)


def compact(elems: Sequence[DomainElement], synsem: Optional[FeatureStructure] = None,
            field: Optional[str] = None) -> Optional[DomainElement]:
    """Collapse elements covering a contiguous range into a single element.

    Non-contiguous coverage signals an unlicensed discontinuity and fails.
    ``synsem`` must be supplied when collapsing more than one element.
    """
    if not elems:
        return None
    if len(elems) == 1 and synsem is None and field is None:
        return elems[0]
    mask = 0
    for e in elems:
        if mask & e.coverage:
            return None
        mask |= e.coverage
    if not mask_is_contiguous(mask):
        return None
    pairs: list[tuple[int, str]] = []
    for e in elems:
        pairs.extend(zip(mask_positions(e.coverage), e.phon))
    pairs.sort()
    if synsem is None:
        if len(elems) != 1:
            raise ValueError("compacting several elements requires a synsem")
        synsem = elems[0].synsem
    return DomainElement(tuple(p for _, p in pairs), mask, synsem, field)


def insert_filler_domain(clause: Domain, filler: "Sign", finite_verb_pos: int) -> Optional[Domain]:
    """Insert a bound filler's material into the clause domain.

    Elements entirely before the finite verb compact into one Vorfeld
    block; the rest (e.g. a discontinuous adjunct or an argument realized
    in the Mittelfeld) join as separate elements.  Fails when the filler
    has no pre-verbal material or the pre-verbal block is non-contiguous.
    """
    if clause.coverage & filler.dom.coverage:
        return None
    pre = [e for e in filler.dom.elements if mask_max(e.coverage) < finite_verb_pos]
    post = [e for e in filler.dom.elements if mask_max(e.coverage) >= finite_verb_pos]
    if not pre:
        return None
    block = compact(pre, synsem=filler.synsem_fs, field="VF")
    if block is None:
        return None
    return make_domain(clause.elements + (block,) + tuple(post))


# ---------------------------------------------------------------------------
# linearization checks


def _head_type(synsem: FeatureStructure) -> Optional[str]:
    return synsem.type_at(("LOC", "CAT", "HEAD"))


def _vform(synsem: FeatureStructure) -> Optional[str]:
    return synsem.type_at(("LOC", "CAT", "HEAD", "VFORM"))


def _is_finite_verb(e: DomainElement) -> bool:
    return _head_type(e.synsem) == "verb" and _vform(e.synsem) == "fin"


def _is_cluster_verb(e: DomainElement) -> bool:
    return _head_type(e.synsem) == "verb" and _vform(e.synsem) != "fin"


def _non_interleaving(elements: Sequence[DomainElement]) -> bool:
    prev_max = -1
    for e in elements:
        if mask_min(e.coverage) <= prev_max:
            return False
        prev_max = mask_max(e.coverage)
    return True


def _cluster_nodes(root: "Edge"):
    stack = [root]
    while stack:
        edge = stack.pop()
        if edge.schema == SCHEMA_VERB_CLUSTER:
            yield edge
        stack.extend(edge.daughters)


def _cluster_constraints(root: "Edge", clause_type: str, lb_coverage: int) -> bool:
    for node in _cluster_nodes(root):
        coverage = node.coverage
        head_cov = node.daughters[0].coverage
        head_pos = mask_min(head_cov) if head_cov else -1
        effective = coverage & ~lb_coverage if clause_type == V2 else coverage
        if not mask_is_contiguous(effective):
            return False
        if clause_type == V2 and head_cov and head_cov == lb_coverage:
            continue  # the finite verb escaped to the left bracket
        cluster_cov = coverage & ~head_cov
        if cluster_cov and head_pos >= 0 and mask_max(cluster_cov) > head_pos:
            return False  # embedded material must precede its cluster head
    return True


def lp_check(root: "Edge", clause_type: str) -> bool:
    """Topological-field validation of a complete clause candidate.

    The fields are read off the root sign's domain; the verb clusters and
    their heads' coverages come from the edge's derivation tree.
    """
    elements = root.sign.dom.elements
    if not elements or not _non_interleaving(elements):
        return False
    if clause_type == V2:
        finite = [i for i, e in enumerate(elements) if _is_finite_verb(e)]
        if len(finite) != 1:
            return False
        lb = finite[0]
        if lb != 1:
            return False  # exactly one element precedes the finite verb
        first = elements[0]
        if first.field != "VF" and _is_cluster_verb(first):
            return False  # only a bound filler may front verbal material
        cluster_idx = [i for i, e in enumerate(elements) if i > lb and _is_cluster_verb(e)]
        if cluster_idx and cluster_idx != list(range(min(cluster_idx), len(elements))):
            return False  # right bracket must be a contiguous suffix
        return _cluster_constraints(root, V2, elements[lb].coverage)
    if clause_type == VFINAL:
        if _head_type(elements[0].synsem) != "comp":
            return False
        if any(e.field == "VF" for e in elements):
            return False  # no Vorfeld in verb-final clauses
        verb_idx = [i for i, e in enumerate(elements) if _head_type(e.synsem) == "verb"]
        if verb_idx and verb_idx != list(range(min(verb_idx), len(elements))):
            return False  # verb block must be contiguous and clause-final
        return _cluster_constraints(root, VFINAL, 0)
    raise ValueError(f"unknown clause type {clause_type!r}")


def assign_fields(root: "Sign", clause_type: str) -> tuple[tuple[DomainElement, str], ...]:
    """Pair each root domain element with its topological field tag.

    Assumes ``lp_check`` passed; used by derivation printing.
    """
    elements = root.dom.elements
    out: list[tuple[DomainElement, str]] = []
    if clause_type == V2:
        cluster_idx = [i for i, e in enumerate(elements) if i > 1 and _is_cluster_verb(e)]
        rb_start = min(cluster_idx) if cluster_idx else len(elements)
        for i, e in enumerate(elements):
            if i == 0:
                out.append((e, "VF"))
            elif i == 1:
                out.append((e, "LB"))
            elif i >= rb_start:
                out.append((e, "RB"))
            else:
                out.append((e, "MF"))
    else:
        verb_idx = [i for i, e in enumerate(elements) if _head_type(e.synsem) == "verb"]
        rb_start = min(verb_idx) if verb_idx else len(elements)
        for i, e in enumerate(elements):
            if i == 0:
                out.append((e, "LB"))
            elif i >= rb_start:
                out.append((e, "RB"))
            else:
                out.append((e, "MF"))
    return tuple(out)
