"""High-precision evaluation of Hurwitz-type nested zeta series and
numerical verification of the identities relating them.

The package splits into combinatorics of composition indices
(:mod:`hzeta.compositions`), exact finite nested sums
(:mod:`hzeta.finite_sums`), infinite series evaluation with error
bounds (:mod:`hzeta.series_engine`), anchored asymptotic expansions for
its tails (:mod:`hzeta.asymptotics`), Li_k(x) and A(k; x) by the direct
series and the endpoint expansions near x = 1 (:mod:`hzeta.endpoint`),
an independent tanh-sinh quadrature oracle (:mod:`hzeta.quadrature`),
real special functions (:mod:`hzeta.specfun`), and a registry of
identities checked by dual evaluation (:mod:`hzeta.identity_registry`).
Underneath, :mod:`hzeta.precision` manages the working precision and
:mod:`hzeta.fixed` the integer fixed point of the exact kernels.
"""

from .compositions import (
    Composition,
    dual_index,
    hoffman_dual,
    plus_first,
    refinements,
    contractions,
    theorem_dual,
    weak_compositions,
)
from .errors import (
    HZetaError,
    DomainError,
    NonAdmissible,
    DimensionMismatch,
    PoleError,
    ToleranceNotReached,
    NoConvergence,
    UnknownIdentity,
)
from .finite_sums import ShiftVector, mhs, mhss, t_mhs, t_mhss
from .identity_registry import (
    IdentityCheck,
    SuiteReport,
    identity_ids,
    run_check,
    run_suite,
)
from .precision import PrecisionConfig, working
from .quadrature import WeightedIntegrand, de_quad, int_kta_weighted, int_mpl_weighted
from .series_engine import (
    TermSpec,
    ValueWithBound,
    apery_I,
    apery_II,
    apery_III,
    arakawa_kaneko,
    htmtv,
    htmzsv,
    htmzv,
    htmzv_pbc,
    kta,
    mpl,
    mpl_landen,
    param_euler_pow,
    param_euler_sum,
    weighted_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Composition", "dual_index", "hoffman_dual", "plus_first",
    "refinements", "contractions", "theorem_dual", "weak_compositions",
    "HZetaError", "DomainError", "NonAdmissible", "DimensionMismatch",
    "PoleError", "ToleranceNotReached", "NoConvergence", "UnknownIdentity",
    "ShiftVector", "mhs", "mhss", "t_mhs", "t_mhss",
    "IdentityCheck", "SuiteReport", "identity_ids", "run_check", "run_suite",
    "PrecisionConfig", "working",
    "WeightedIntegrand", "de_quad", "int_kta_weighted", "int_mpl_weighted",
    "TermSpec", "ValueWithBound", "apery_I", "apery_II", "apery_III",
    "arakawa_kaneko", "htmtv", "htmzsv", "htmzv", "htmzv_pbc", "kta", "mpl",
    "mpl_landen", "param_euler_pow", "param_euler_sum", "weighted_sum",
]
