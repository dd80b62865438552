"""Restricted linear systems over finite abelian groups, made finite.

Exact integer normal forms, reduction of restricted systems to standard
circular homogeneous form, the colored-hypergraph encoding whose copies
biject with solutions, and exact minimum removal sets.
"""

from .abelian import (
    AbelianGroup,
    Element,
    scalar_inverse,
    scaling_preimage,
)
from .errors import (
    BudgetExceededError,
    InfeasibleRemovalError,
    InvariantError,
    PreconditionError,
    SchemaError,
)
from .hypergraph import (
    HostHypergraph,
    copy_class_structure,
    enumerate_copies,
    kernel_order,
    verify_copy_classes,
    verify_copy_labels,
)
from .intmat import (
    IntMatrix,
    SnfResult,
    complete_to_square,
    determinantal_divisor,
    determinantal_divisors,
    is_n_good,
    n_good_padding,
    smith_invariants_mod,
    smith_normal_form,
)
from .pipeline import (
    CircularSystem,
    PipelineResult,
    build_kernel_matrix,
    circularize,
    full_extension,
    is_circular,
)
from .removal import (
    RemovalSolution,
    greedy_removal,
    min_removal_exact,
)
from .system import (
    DEFAULT_BUDGET,
    Extension,
    ExtensionReport,
    RestrictedSystem,
    ThinWitness,
    compose_extensions,
    count_solutions,
    enumerate_solutions,
    identity_extension,
    pull_back_removal,
    remove_elements,
    verify_extension,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BudgetExceededError",
    "CircularSystem",
    "DEFAULT_BUDGET",
    "Element",
    "Extension",
    "ExtensionReport",
    "HostHypergraph",
    "InfeasibleRemovalError",
    "IntMatrix",
    "InvariantError",
    "PipelineResult",
    "PreconditionError",
    "RemovalSolution",
    "RestrictedSystem",
    "SchemaError",
    "SnfResult",
    "ThinWitness",
    "build_kernel_matrix",
    "circularize",
    "complete_to_square",
    "compose_extensions",
    "copy_class_structure",
    "count_solutions",
    "determinantal_divisor",
    "determinantal_divisors",
    "enumerate_copies",
    "enumerate_solutions",
    "full_extension",
    "greedy_removal",
    "identity_extension",
    "is_circular",
    "is_n_good",
    "kernel_order",
    "min_removal_exact",
    "n_good_padding",
    "pull_back_removal",
    "remove_elements",
    "scalar_inverse",
    "scaling_preimage",
    "smith_invariants_mod",
    "smith_normal_form",
    "verify_copy_classes",
    "verify_copy_labels",
    "verify_extension",
]
