"""Exact SU(N) character algebra with Sato-Tate statistics for Satake parameters."""

from .weights import (
    CoefficientIndex,
    DominantWeight,
    SpectralParameter,
    aleph,
    langlands,
    laplace_eigenvalue,
)
from .characters import (
    CharacterTable,
    TensorSpec,
    TermBudgetExceeded,
    dim,
    eval_char,
    product,
    tensor_decompose,
    trivial_multiplicity,
    weight_table,
)
from .satake import (
    SatakeParameter,
    canonicalize,
    coefficient,
    varrho,
)
from .sampling import (
    McEstimate,
    RngSeed,
    char_monomial,
    mc_integrate,
    plancherel_density_gl2,
    st_density_gl2,
)
from .families import (
    Family,
    FamilyMember,
    FamilyValidationError,
    TestFunctionH,
    equidist_report,
    l_functional,
    load_family,
    save_family,
    synth_family,
    weight,
)
from .bounds import (
    Gl3BoundParams,
    convergence_error,
    p_total,
    rate_report,
    specialization_bound_n3,
    verify_multiplicity_bound,
)

__version__ = "0.1.0"
