"""Subgraph matching engine.

Computes the answer ``q(G)`` of a query instance: the match set of the
designated output node under subgraph matching (a function ``h: V_q → V``
preserving node labels, literals, edges and edge labels — a graph
homomorphism per the paper's Section II definition; an ``injective`` switch
gives subgraph-isomorphism semantics).

Pipeline: per-node candidates from label + literal indexes → arc-consistency
propagation over query edges → backtracking existence checks for the output
node's candidates. Incremental verification (the paper's ``incVerify``)
seeds a child instance's candidates with its verified parent's, valid by
Lemma 2 (refinement shrinks match sets).

Three interchangeable engines implement the pipeline: the original
set-based one (the reference; a bare ``SubgraphMatcher`` still defaults
to it), the bitset engine (:mod:`repro.matching.bitset`), which
represents pools as integer bitmasks and caches literal pools across a
whole run, and the columnar engine
(:mod:`repro.matching.columnar_engine`), which additionally resolves
literals through compiled column masks and runs propagation as vectorized
CSR support sweeps. The columnar engine is the default of
``GenerationConfig.matcher_engine`` and so of every generator, session
and CLI command; select another with ``SubgraphMatcher(..., engine=...)``
or ``GenerationConfig.matcher_engine``.
"""

from repro.matching.candidates import CandidateMap, initial_candidates, propagate
from repro.matching.matcher import MatchResult, SubgraphMatcher
from repro.matching.bitset import BitsetEngine, LiteralPoolCache, MaskMap
from repro.matching.columnar_engine import ColumnarEngine
from repro.matching.incremental import IncrementalVerifier
from repro.matching.reference import naive_match_set, nx_monomorphism_match_set
from repro.matching.delta import GraphDelta, IncrementalMatchMaintainer, apply_delta
from repro.matching.profiling import InstanceProfile, profile_instance

__all__ = [
    "CandidateMap",
    "MaskMap",
    "initial_candidates",
    "propagate",
    "SubgraphMatcher",
    "BitsetEngine",
    "ColumnarEngine",
    "LiteralPoolCache",
    "MatchResult",
    "IncrementalVerifier",
    "naive_match_set",
    "nx_monomorphism_match_set",
    "GraphDelta",
    "apply_delta",
    "IncrementalMatchMaintainer",
    "InstanceProfile",
    "profile_instance",
]
