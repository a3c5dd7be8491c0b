"""Vertex-splitting random trees.

Growth simulation (planar-tree and urn engines), limiting degree densities
(direct solve of the stationary system, with the fixed-point iteration as
its oracle), exact closed forms for the solvable families, and the
two-colour recolour-and-split variant.
"""

__version__ = "0.1.0"

from .errors import (DegeneracyError, InvalidDegreeError, InvalidParameterError,
                     NoConvergenceError, NonPositiveError, RankDeficientError,
                     ReductionInvalidError, RegimeError, SingularSystemError,
                     SplitgrowError, UnknownTailError)
from .weights import (LinearTail, PartitionWeights, Regime, SplittingWeights,
                      WeightModel, classify_regime, derive_splitting_weights,
                      make_alpha_class, make_grafting, make_preferential,
                      make_table, make_uniform)
from .growth import (CensusSnapshot, OrderedTree, SplitEvent, UrnState, run,
                     run_batch, write_census_csv)
from .solver import (DensitySolution, ResidualReport, fixed_point_densities, residuals,
                     validate_model)
from .closed_forms import (ClosedForm, bessel_i, closed_form_for,
                           constant_weight_density, grafting_asymptote,
                           grafting_density, pref_attachment_asymptote,
                           pref_attachment_density, pref_attachment_gamma_form,
                           uniform_density, uniform_norm_constant)
from .twocolour import (TwoColourModel, TwoColourSnapshot, TwoColourSolution,
                        TwoColourState, densities_from_e, make_rna,
                        make_two_colour_grafting, make_two_colour_uniform,
                        reduce_to_one_colour, rna_closed_form, solve_two_colour)
from .experiment import (DegreeRow, ExperimentConfig, ExperimentReport,
                         analytic_reference, build_model, compare,
                         run_replicated)
