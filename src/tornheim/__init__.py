"""Signed Tornheim double series and their q-analogs.

Two independent evaluation routes for T(r,s,t) = sum_{u,v>=1}
sigma^u tau^v / (u^r v^s (u+v)^t) and its q-deformation: exact closed forms
in Q[pi, log 2, zeta(3), zeta(5), ...] and high-precision numeric summation.
The reduction identities connecting them are verified by cross-checking the
two routes.
"""
from __future__ import annotations

from .closedform import (
    ALT_ZETA_AT_ZERO,
    KNOWN_VALUES,
    EvaluationResult,
    ProvenanceStep,
    closed_form_table,
    double_euler_closed,
    result_to_json,
    tornheim_closed,
)
from .errors import (
    DivergenceError,
    DomainError,
    PrecisionError,
    TornheimError,
)
from .exact import (
    SignedIndex,
    ZetaExpression,
    ZetaMonomial,
    bernoulli,
    expr_numeric,
    expression_from_json,
    expression_to_json,
    zeta_const,
    zeta_even_as_pi,
)
from .numeric import (
    PrecisionConfig,
    QParam,
    SumInfo,
    classical_double_euler,
    classical_zeta,
    evaluate_reduction,
    phi_q,
    phi_q_info,
    q_int,
    q_zeta1,
    q_zeta1_info,
    q_zeta2,
    q_zeta2_info,
    tornheim_classical,
    tornheim_q,
    tornheim_q_info,
)
from .reduction import (
    VARIANT_SIGNS,
    VARIANTS,
    DoubleQZeta,
    PartialFractionTerm,
    PhiTerm,
    QSquaredZeta,
    Reduction,
    corollary1_reduce,
    lemma1_expand,
    reduction_to_json,
    theorem1_reduce,
    trinomial,
    verify_lemma1,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "DomainError",
    "PrecisionError",
    "TornheimError",
    "SignedIndex",
    "ZetaExpression",
    "ZetaMonomial",
    "bernoulli",
    "expr_numeric",
    "expression_from_json",
    "expression_to_json",
    "zeta_const",
    "zeta_even_as_pi",
    "PrecisionConfig",
    "QParam",
    "SumInfo",
    "classical_double_euler",
    "classical_zeta",
    "evaluate_reduction",
    "phi_q",
    "phi_q_info",
    "q_int",
    "q_zeta1",
    "q_zeta1_info",
    "q_zeta2",
    "q_zeta2_info",
    "tornheim_classical",
    "tornheim_q",
    "tornheim_q_info",
    "VARIANTS",
    "VARIANT_SIGNS",
    "DoubleQZeta",
    "PartialFractionTerm",
    "PhiTerm",
    "QSquaredZeta",
    "Reduction",
    "corollary1_reduce",
    "lemma1_expand",
    "reduction_to_json",
    "theorem1_reduce",
    "trinomial",
    "verify_lemma1",
    "verify_theorem1",
    "ALT_ZETA_AT_ZERO",
    "KNOWN_VALUES",
    "EvaluationResult",
    "ProvenanceStep",
    "closed_form_table",
    "double_euler_closed",
    "result_to_json",
    "tornheim_closed",
    "__version__",
]
