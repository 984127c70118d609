"""Isospectral reduction of weighted digraphs.

Reduce a graph over a structural vertex set while preserving eigenvalues and
eigenvectors, interpret the reduction probabilistically through stopped
Markov chains, and keep the dominant eigenvector of a large sparse network
current under vertex/edge modifications at a fraction of the cost of full
re-iteration.
"""

from .exceptions import (AmbiguousStationaryError, DegenerateRestrictionError,
                         DeltaError, GenerationError, GraphFormatError,
                         IsoreduceError, NonStochasticError, NotPrimitiveError,
                         SimulationError, SingularWeightError, StructuralSetError)
from .generate import (ExperimentConfig, check_assumptions, random_delta,
                       random_stochastic_graph)
from .graph import (DEFAULT_TOL, StructuralSet, ValidationResult, WeightedDigraph,
                    compute_depths, find_structural_set, nilpotency_index,
                    validate_structural)
from .markov import (MarkovChain, StoppedChainSample, is_irreducible,
                     reduced_matrix_of_chain, simulate_stopped_chain,
                     stationary_distribution, taboo_matrix, taboo_probability,
                     total_variation_summary, verify_return_identity,
                     verify_stationary_restriction, within_sigma_fraction)
from .reduction import (Branch, BranchSet, ExtendedReducedMatrix, ReducedMatrix,
                        branch_counts, enumerate_branches,
                        extended_columns, extended_reduced_matrix,
                        reduced_matrices_by_length,
                        reduced_matrix, reduced_matrix_by_length)
from .spectral import (EigenPair, is_primitive, lift_eigenvector, power_iteration,
                       stationary_vector, verify_restriction)
from .update import (CostReport, DeltaOp, GraphDelta, StoredState, UpdateSession,
                     apply_ops, run_update, simplex_bound)
from .bench import (ExperimentSummary, TrialResult, VerificationReport,
                    run_experiment, scratch_equivalent, verify_suite)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousStationaryError", "Branch", "BranchSet", "CostReport", "DEFAULT_TOL",
    "DegenerateRestrictionError", "DeltaError", "DeltaOp", "EigenPair",
    "ExperimentConfig", "ExperimentSummary", "ExtendedReducedMatrix",
    "GenerationError", "GraphDelta", "GraphFormatError", "IsoreduceError",
    "MarkovChain", "NonStochasticError", "NotPrimitiveError",
    "ReducedMatrix", "SimulationError", "SingularWeightError", "StoppedChainSample",
    "StoredState", "StructuralSet", "StructuralSetError", "TrialResult",
    "UpdateSession", "ValidationResult", "VerificationReport", "WeightedDigraph",
    "apply_ops", "branch_counts", "check_assumptions", "compute_depths",
    "enumerate_branches", "extended_columns", "extended_reduced_matrix",
    "find_structural_set",
    "is_irreducible", "is_primitive", "lift_eigenvector", "nilpotency_index",
    "power_iteration", "random_delta",
    "random_stochastic_graph", "reduced_matrices_by_length",
    "reduced_matrix", "reduced_matrix_by_length", "reduced_matrix_of_chain", "run_experiment",
    "run_update", "scratch_equivalent", "simplex_bound", "simulate_stopped_chain",
    "stationary_distribution", "stationary_vector", "taboo_matrix", "taboo_probability",
    "total_variation_summary",
    "validate_structural", "verify_return_identity", "verify_stationary_restriction",
    "verify_suite", "verify_restriction", "within_sigma_fraction",
]
