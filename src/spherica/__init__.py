"""spherica: exact twist-functor calculus over finite-dimensional quiver algebras.

Kernels (bounded complexes of biprojective bimodules) model functors
between derived categories; the package computes their adjoints, units
and counits, twist and cotwist cones, and decides sphericalness by
exact homology over F_p or Q.
"""

__version__ = "0.1.0"

from .algebras import (
    Algebra,
    AlgebraError,
    Arrow,
    QuiverPresentation,
    algebra_from_quiver,
    opposite,
    trivial_algebra,
)
from .bimodules import (
    Bimodule,
    BimoduleError,
    check_map,
    flip,
    hom_space,
    is_projective,
    left_dual,
    projective_bimodule,
    regular_bimodule,
    right_dual,
    tensor_over_middle,
)
from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    ConeData,
    chain_map_space,
    cone,
    find_quasi_iso,
    homology_dims,
    is_quasi_iso,
    shift,
    tensor_cx,
)
from .kernels import (
    Kernel,
    KernelError,
    compose,
    compose_list,
    condition3_map,
    condition4_map,
    kernel_ops,
)
from .linalg import Field, Matrix
from .session import (
    Report,
    Session,
    SessionError,
    builtin_example,
    builtin_names,
    parse_session,
    run_session,
)
from .spherical import (
    ConditionReport,
    SphericalVerdict,
    Verdict,
    check_adjoint_spherical,
    check_appendix,
    check_conditions,
    check_fully_faithful,
    check_splitting,
    check_theorem,
    is_equivalence_kernel,
    is_spherical,
    random_kernel,
    verify_two_out_of_four,
)

__all__ = [name for name in dir() if not name.startswith("_")]
