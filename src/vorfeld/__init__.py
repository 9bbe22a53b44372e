"""vorfeld: a unification-based HPSG parser for German partial VP fronting.

The package couples a typed-feature-structure engine (:mod:`vorfeld.tfs`,
:mod:`vorfeld.avm`) with a German grammar fragment built around verb
clusters, argument attraction, and a slash-introduction schema whose
nonlocal dependency is licensed by an actually present verbal projection
(:mod:`vorfeld.grammar`, :mod:`vorfeld.lexicon`).  Word order lives in a
separate representation level, Reape-style order domains with
discontinuous constituents (:mod:`vorfeld.orderdomain`), recognized by a
chart parser over coverage bitsets (:mod:`vorfeld.parser`).
"""

from .grammar import (
    Sign,
    apply_filler_head,
    apply_head_adjunct,
    apply_head_complement,
    apply_pvp_slash_introduction,
    apply_verb_cluster,
    check_comps_closed,
    make_vcomp_trace,
)
from .lexicon import LexEntry, Lexicon, finitivize, load_fragment, load_lexicon
from .orderdomain import Domain, DomainElement, compact, domain_union, insert_filler_domain, lp_check
from .parser import (
    Derivation,
    Edge,
    LexicalGapError,
    ParseOptions,
    ParseResult,
    demonstrate_trace_mode,
    enumerate_readings,
    parse,
)
from .tfs import (
    FeatureStructure,
    TypeHierarchy,
    Workspace,
    fs_equal,
    path_get,
    subsumes,
    unify,
)

__version__ = "0.1.0"

__all__ = [
    "Sign",
    "apply_filler_head",
    "apply_head_adjunct",
    "apply_head_complement",
    "apply_pvp_slash_introduction",
    "apply_verb_cluster",
    "check_comps_closed",
    "make_vcomp_trace",
    "LexEntry",
    "Lexicon",
    "finitivize",
    "load_fragment",
    "load_lexicon",
    "Domain",
    "DomainElement",
    "compact",
    "domain_union",
    "insert_filler_domain",
    "lp_check",
    "Derivation",
    "Edge",
    "LexicalGapError",
    "ParseOptions",
    "ParseResult",
    "demonstrate_trace_mode",
    "enumerate_readings",
    "parse",
    "FeatureStructure",
    "TypeHierarchy",
    "Workspace",
    "fs_equal",
    "path_get",
    "subsumes",
    "unify",
    "__version__",
]
