"""Every callable of tornheim.__all__ against malformed arguments.

Each call starts from valid arguments and replaces some of them with values
from a pool of malformed ones.  A call may succeed (some pool values are
valid for some arguments) or raise a TornheimError whose message names a
replaced argument; any other exception is a leak.
"""
from __future__ import annotations

import inspect
import math
import random
import re
from fractions import Fraction as F

from mpmath import mpf

import tornheim
from tornheim import (
    PrecisionConfig,
    SignedIndex,
    TornheimError,
    ZetaExpression,
    ZetaMonomial,
    theorem1_reduce,
    tornheim_closed,
)

POOL = (None, "x", "", math.nan, math.inf, -1, 0, 2.5, True, F(1, 3))

P12 = PrecisionConfig(digits=12)
EXPR = ZetaExpression({ZetaMonomial(odd_zeta_factors=(3,)): F(-5, 8)})

# valid positional arguments of every callable in tornheim.__all__ but the
# exception classes, which take any message
VALID = {
    "SignedIndex": (2, 1),
    "ZetaExpression": ({ZetaMonomial(odd_zeta_factors=(3,)): F(1)},),
    "ZetaMonomial": (1, 1, (3,)),
    "bernoulli": (4,),
    "expr_numeric": (EXPR, P12),
    "expression_from_json": ([{"coeff": "1", "zeta": [3]}],),
    "expression_to_json": (EXPR,),
    "zeta_const": (3, -1),
    "zeta_even_as_pi": (4,),
    "PrecisionConfig": (12, 100000, None),
    "QParam": (2,),
    "SumInfo": (mpf(1), mpf(0), 1),
    "classical_double_euler": (3, 2, P12),
    "classical_zeta": (3, 1, P12),
    "evaluate_reduction": (theorem1_reduce(1, 1, 1, "T"), 2, P12),
    "phi_q": (2, 1, 2, P12),
    "phi_q_info": (2, 1, 2, P12),
    "q_int": (3, 2, P12),
    "q_zeta1": (2, 1, 2, P12),
    "q_zeta1_info": (2, 1, 2, P12),
    "q_zeta2": (2, 1, 1, 1, 2, P12),
    "q_zeta2_info": (2, 1, 1, 1, 2, P12),
    "tornheim_classical": (1, 1, 1, "R", P12),
    "tornheim_q": (1, 1, 1, 1, 1, 2, P12),
    "tornheim_q_info": (1, 1, 1, 1, 1, 2, P12),
    "DoubleQZeta": (SignedIndex(2), SignedIndex(1), 0),
    "PartialFractionTerm": (F(1), 0, 0, 1, 1, 1, 0),
    "PhiTerm": (SignedIndex(2), 0),
    "QSquaredZeta": (2, 0, 0),
    "Reduction": ("T", 1, 1, 1, ()),
    "corollary1_reduce": (1, 1, 1, "R"),
    "lemma1_expand": (1, 1),
    "reduction_to_json": (theorem1_reduce(1, 1, 1, "T"),),
    "theorem1_reduce": (1, 1, 1, "T"),
    "trinomial": (3, 1, 1),
    "verify_lemma1": (1, 2, 1, 3, 2),
    "verify_theorem1": (1, 1, 1, "T", 2, 4),
    "EvaluationResult": (EXPR, ()),
    "ProvenanceStep": ("rule", ()),
    "closed_form_table": (3,),
    "double_euler_closed": (2, 1, 1, 1),
    "result_to_json": (tornheim_closed(1, 1, 1, "R"),),
    "tornheim_closed": (1, 1, 1, "R"),
}

# arguments whose messages may use the name of the docs as well as the
# parameter's: QParam's value is q, classical_double_euler's convergence
# is stated in zeta(s1, s2), and expression_from_json reads expression JSON
ALIASES = {
    ("QParam", "value"): "q",
    ("classical_double_euler", "first"): "s1",
    ("classical_double_euler", "second"): "s2",
    ("expression_from_json", "items"): "expression JSON",
}


def _callables():
    for name in tornheim.__all__:
        obj = getattr(tornheim, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            params = list(inspect.signature(obj).parameters)[:len(VALID[name])]
            yield name, obj, params


def _leak(name, call, params, replaced: dict):
    """None if call with the arguments of VALID[name], those at the
    positions of replaced swapped for its values, succeeds or raises a
    TornheimError naming one of them; else a line describing the leak."""
    args = list(VALID[name])
    for i, value in replaced.items():
        args[i] = value
    try:
        call(*args)
    except TornheimError as exc:
        names = [n for i in replaced for n in (params[i], ALIASES.get((name, params[i])))
                 if n]
        if not any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", str(exc)) for n in names):
            return f"{name}{tuple(args)!r}: {exc} (names none of {names})"
    except Exception as exc:
        return f"{name}{tuple(args)!r}: {type(exc).__name__}: {exc}"
    return None


def test_every_public_callable_refuses_malformed_arguments_by_name():
    """Every argument in turn, with every pool value, and then 300 seeded
    draws that replace two arguments at once."""
    callables = list(_callables())
    assert {name for name, _, _ in callables} == set(VALID)
    leaks, calls = [], 0
    for name, call, params in callables:
        call(*VALID[name])
        for i in range(len(params)):
            for value in POOL:
                calls += 1
                leaks.append(_leak(name, call, params, {i: value}))
    rng = random.Random(31)
    pairs = [(name, call, params) for name, call, params in callables if len(params) >= 2]
    for _ in range(300):
        name, call, params = rng.choice(pairs)
        i, j = rng.sample(range(len(params)), 2)
        calls += 1
        leaks.append(_leak(name, call, params, {i: rng.choice(POOL), j: rng.choice(POOL)}))
    leaks = [leak for leak in leaks if leak]
    assert calls == sum(len(params) for _, _, params in callables) * len(POOL) + 300
    assert not leaks, "\n".join(leaks)
