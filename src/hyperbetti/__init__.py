"""Exact graded Betti numbers and regularity of powers of hypergraph edge ideals."""

from .betti import BettiTable, bound_applicability, graded_betti, survivor_face_sets
from .complexes import DEFAULT_MAX_FACES, LabelledComplex, faridi_complex, taylor_complex
from .errors import (DimensionError, DomainError, InvariantError, ResourceCapError,
                     ValidationError)
from .hypergraph import Hypergraph, edge_ideal
from .matchings import (FamilyClassification, InvariantReport, classify, count_families,
                        families, invariants)
from .monomials import (Monomial, MonomialIdeal, enumerate_tuples, minimal_generators,
                        power_generators, tuple_product)
from .verify import (CheckReport, ComputeCache, builtin_corpus, random_hypergraph,
                     run_checks, run_corpus)

__version__ = "0.1.0"
