"""Vertex-splitting random trees.

Growth simulation (planar-tree and urn engines), limiting degree densities
(direct solve of the stationary system, with the from-below iteration
``iterate_from_below`` as its oracle), exact closed forms for the solvable
families, and the two-colour recolour-and-split variant.  Each exported name is imported from
its home module on first access (PEP 562): ``import splitgrow`` loads none.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "errors": ("DegeneracyError", "InvalidDegreeError", "InvalidParameterError",
               "NoConvergenceError", "NonPositiveError", "RankDeficientError",
               "RegimeError", "SingularSystemError", "SplitgrowError", "UnknownTailError"),
    "weights": ("LinearTail", "PartitionWeights", "Regime", "SplittingWeights", "WeightModel",
                "classify_regime", "derive_splitting_weights", "make_alpha_class",
                "make_grafting", "make_preferential", "make_table", "make_uniform"),
    "growth": ("CensusSnapshot", "OrderedTree", "SplitEvent", "UrnState", "TwoColourSnapshot",
               "TwoColourState", "run", "run_batch", "write_census_csv"),
    "solver": ("DensitySolution", "ResidualReport", "fixed_point_densities",
               "iterate_from_below", "residuals", "validate_model"),
    "closed_forms": ("ClosedForm", "bessel_i", "closed_form_for", "constant_weight_density",
                     "grafting_asymptote", "grafting_density", "pref_attachment_asymptote",
                     "pref_attachment_density", "pref_attachment_gamma_form",
                     "uniform_density", "uniform_norm_constant"),
    "twocolour": ("TwoColourModel", "TwoColourSolution", "densities_from_e", "make_rna",
                  "make_two_colour_grafting", "make_two_colour_uniform",
                  "reduce_to_one_colour", "rna_closed_form", "solve_two_colour"),
    "experiment": ("DegreeRow", "ExperimentConfig", "ExperimentReport", "analytic_reference",
                   "build_model", "compare", "run_replicated"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name, imported from its home module and kept, or one of
    those modules.  ``__import__`` imports as an import statement does, so
    ``python -X importtime`` lists the module (``importlib`` bypasses it)."""
    if name in _HOME:
        home = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
        globals()[name] = getattr(home, name)
        return globals()[name]
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")    # which binds the module as a global
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
