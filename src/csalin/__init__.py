"""Symbolic/numeric toolkit for systems of two second-order ODEs that
correspond to a scalar complex ODE: correspondence tests, canonical-form
reductions, symmetry-dimension classification and worked-example
verification.  Each exported name is imported from its module on first
access (PEP 562), so ``import csalin`` loads no submodule."""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "expr": ("Expr", "VarContext", "parse", "to_string", "simplify",
             "differentiate", "substitute", "eval_expr", "free_symbols",
             "coefficients_in", "collect", "zero_verdict"),
    "cubic": ("OdeSystem2", "CubicForm", "extract_cubic", "reassemble",
              "check_theorem2"),
    "csa": ("check_cr", "realify"),
    "canon": ("CoefficientFn", "LinearForm", "PointTransformation",
              "attempt_linear_equivalence", "reduce_24_to_25",
              "reduce_25_to_28", "reduce_chain", "reduce_optimal",
              "transform_system"),
    "symmetry": ("Classification", "VectorField", "check_symmetry",
                 "classify_beta", "constant_beta_witnesses",
                 "determining_system_reduced", "free_particle_algebra",
                 "generator_rank", "prolong2_residuals"),
    "verify": ("CaseReport", "Trajectory", "integrate",
               "residual_on_trajectory", "run_example"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
