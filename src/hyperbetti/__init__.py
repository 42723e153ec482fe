"""Exact graded Betti numbers and regularity of powers of hypergraph edge ideals.

The top level keeps the names of the README example, those the benchmark
reads (with the modules) and the error types; import the rest from its module.
"""

from . import verify
from .betti import graded_betti
from .complexes import faridi_complex
from .errors import (DimensionError, DomainError, InvariantError, ResourceCapError,
                     ValidationError)
from .hypergraph import Hypergraph, edge_ideal
from .matchings import invariants
from .monomials import power_generators

__version__ = "0.1.0"
