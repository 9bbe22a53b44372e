"""The topological field model as it was before ``orderdomain.fields``
stated it once: the reference for ``lp_check`` and ``fields``.

:func:`lp_check` and :func:`assign_fields` each spelled out the verb-second
and verb-final bracket rules; they are kept verbatim so that the tests can
hold the one field model to exactly their verdicts and tags.  So is the
cluster order as the root filter once worked it out, by walking the root's
derivation tree with the left bracket's coverage passed down
(:func:`_cluster_constraints`), before each cluster was judged on its pair
of daughters before it is built (``orderdomain.cluster_in_order``).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from vorfeld.grammar import SCHEMA_VERB_CLUSTER
from vorfeld.orderdomain import (
    V2,
    VFINAL,
    DomainElement,
    _is_cluster_verb,
    _is_finite_verb,
    _non_interleaving,
    mask_is_contiguous,
    mask_max,
    mask_min,
)

if TYPE_CHECKING:  # pragma: no cover
    from vorfeld.grammar import Sign
    from vorfeld.parser import Edge


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
        if elements[0].facts.head != "comp":
            return False
        if any(e.field == "VF" for e in elements):
            return False  # no Vorfeld in verb-final clauses
        verb_idx = [i for i, e in enumerate(elements) if e.facts.head == "verb"]
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
        verb_idx = [i for i, e in enumerate(elements) if e.facts.head == "verb"]
        rb_start = min(verb_idx) if verb_idx else len(elements)
        for i, e in enumerate(elements):
            if i == 0:
                out.append((e, "LB"))
            elif i >= rb_start:
                out.append((e, "RB"))
            else:
                out.append((e, "MF"))
    return tuple(out)
