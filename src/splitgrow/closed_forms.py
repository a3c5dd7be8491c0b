"""Exact limiting degree densities for the analytically solvable families.

These evaluators are independent of the iterative solver and serve as its
oracles: attachment-only (preferential) weights, uniform partitioning
weights, and the attachment-and-grafting family, plus the asymptotic
power-law / geometric forms and the modified Bessel function the uniform
normalisation constant needs.

All Gamma ratios are evaluated in log space; direct factorials overflow
doubles near k = 170.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError
from .weights import SplittingWeights, WeightModel

__all__ = [
    "bessel_i",
    "pref_attachment_density",
    "pref_attachment_gamma_form",
    "pref_attachment_asymptote",
    "uniform_norm_constant",
    "uniform_density",
    "grafting_density",
    "grafting_asymptote",
    "constant_weight_density",
    "ClosedForm",
    "closed_form_for",
]


def bessel_i(nu: float, z: float) -> float:
    """Modified Bessel function of the first kind ``I_nu(z)``, the exponential
    of the log-space power series ``_log_bessel_i``; ``nu > -1``, ``0 < z <= 4``."""
    return math.exp(_log_bessel_i(nu, z))


def _log_bessel_i(nu: float, z: float) -> float:
    """``log I_nu(z)`` by the power series, summed in log space so that large
    orders, whose ``I_nu(1)`` underflows, stay representable.

    Terms ``(z/2)^(2m+nu) / (m! * Gamma(m+nu+1))`` are taken relative to the
    first and accumulated until one falls below 1e-18 of the running sum.
    Intended range: ``nu > -1``, where every term is positive, and ``0 < z <= 4``.
    """
    if nu <= -1 or z <= 0:
        raise InvalidParameterError(f"series valid for nu > -1, z > 0; got nu={nu}, z={z}")
    log_half_z = math.log(z / 2.0)

    def log_term(m):
        return (2 * m + nu) * log_half_z - math.lgamma(m + 1) - math.lgamma(m + nu + 1)

    first = log_term(0)
    total = 0.0
    for m in range(200):
        term = math.exp(log_term(m) - first)
        total += term
        if term < 1e-18 * total:
            break
    return first + math.log(total)


# -- attachment-only (preferential) weights -----------------------------------


def pref_attachment_density(sw: SplittingWeights, k: int) -> float:
    """Limiting density ``a_k = (w_2/w_k) * prod_{i<=k} w_i/(w_i + w_2)``."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    w2 = sw(2)
    log_a = math.log(w2) - math.log(sw(k))
    for i in range(1, k + 1):
        wi = sw(i)
        if wi <= 0:
            raise InvalidParameterError(f"w_{i} = {wi:g} must be positive")
        log_a += math.log(wi) - math.log(wi + w2)
    return math.exp(log_a)


def pref_attachment_gamma_form(sw: SplittingWeights, k: int) -> float:
    """Equivalent Gamma-ratio form, defined for ``a != 0`` via ``x = b/a``."""
    x = sw.offset
    lg = (math.lgamma(2 * x + 3) + math.lgamma(k + x + 1)
          - math.lgamma(x + 1) - math.lgamma(k + 2 * x + 3))
    return (2 + x) * math.exp(lg) / (k + x)


def pref_attachment_asymptote(sw: SplittingWeights, k: int) -> float:
    """Leading tail behaviour ``C(x) * k^(-3-x)`` with
    ``C(x) = (2+x)*Gamma(2x+3)/Gamma(x+1)``."""
    x = sw.offset
    c = (2 + x) * math.exp(math.lgamma(2 * x + 3) - math.lgamma(x + 1))
    return c * float(k) ** (-3.0 - x)


# -- uniform partitioning weights ----------------------------------------------


# The log-space terms of the uniform closed form grow like x log x, so their
# rounding costs about x log x ulps of relative accuracy: 6e-10 at x = 1e5.
_UNIFORM_X_MAX = 1e5


def _uniform_log_norm(x: float) -> float:
    """``log C(x)`` with ``C(x) = e*sqrt(pi)*2^(-3/2-x)*I_{1/2+x}(1)/(2+x)``
    for ``-1 < x <= _UNIFORM_X_MAX``; ``C`` itself underflows from about
    x = 150."""
    if not -1 < x <= _UNIFORM_X_MAX:
        raise InvalidParameterError(
            f"uniform closed form needs -1 < x <= {_UNIFORM_X_MAX:g}, got {x}")
    return (1.0 + 0.5 * math.log(math.pi) - (1.5 + x) * math.log(2.0)
            + _log_bessel_i(0.5 + x, 1.0) - math.log(2 + x))


def uniform_norm_constant(x: float) -> float:
    """Normalisation constant ``C(x) = e*sqrt(pi)*2^(-3/2-x)*I_{1/2+x}(1)/(2+x)``."""
    c = math.exp(_uniform_log_norm(x))
    if not c > 0:
        raise InvalidParameterError(
            f"uniform normalisation constant underflows to 0 at x = {x:g}")
    return c


def uniform_density(x: float, k: int) -> float:
    """Limiting density of the uniform-partitioning family,

        a_k = (1/C(x)) * 2^(k-1) * Gamma(k+x) / (Gamma(k) * Gamma(k+3+2x)) * (k+1+2x),

    evaluated as one exponential of a log-space ratio.
    """
    return _uniform_density(x, k, _uniform_log_norm(x))


def _uniform_density(x: float, k: int, log_c: float) -> float:
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    lg = ((k - 1) * math.log(2.0) + math.lgamma(k + x)
          - math.lgamma(k) - math.lgamma(k + 3 + 2 * x))
    return math.exp(lg - log_c) * (k + 1 + 2 * x)


# -- attachment and grafting ----------------------------------------------------


def _check_grafting_params(alpha: float, gamma: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
    if not (0.0 < gamma <= 1.0):
        raise InvalidParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if alpha >= 1.0:
        raise InvalidParameterError("alpha = 1 has no positive density solution")


def grafting_density(alpha: float, gamma: float, k: int) -> float:
    """Limiting density of the attachment-and-grafting family.

    Geometric for ``gamma = 1``; a Gamma-ratio power law for ``0 < gamma < 1``.
    """
    _check_grafting_params(alpha, gamma)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if gamma == 1.0:
        if k == 1:
            return (1.0 - alpha) / (2.0 - alpha)
        r = (1.0 - alpha) / (2.0 - alpha)
        return r ** (k - 2) / (2.0 - alpha) ** 2
    if k == 1:
        return (1.0 - alpha) / (1.0 + gamma - alpha)
    u = (1.0 - alpha) / (1.0 - gamma)
    v = (2.0 - alpha) / (1.0 - gamma)
    lg = (math.lgamma((3.0 - alpha - gamma) / (1.0 - gamma)) + math.lgamma(k - 2 + u)
          - math.lgamma(u) - math.lgamma(k - 1 + v))
    return gamma * math.exp(lg) / ((1.0 + gamma - alpha) * (2.0 - alpha))


def grafting_asymptote(alpha: float, gamma: float, k: int) -> float:
    """Tail form: ``C * k^(-(2-gamma)/(1-gamma))`` for ``gamma < 1``, the
    geometric law with rate ``(1-alpha)/(2-alpha)`` for ``gamma = 1``."""
    _check_grafting_params(alpha, gamma)
    if gamma == 1.0:
        r = (1.0 - alpha) / (2.0 - alpha)
        return r ** (k - 2) / (2.0 - alpha) ** 2
    u = (1.0 - alpha) / (1.0 - gamma)
    c = gamma * math.exp(math.lgamma((3.0 - alpha - gamma) / (1.0 - gamma)) - math.lgamma(u)) \
        / ((1.0 + gamma - alpha) * (2.0 - alpha))
    return c * float(k) ** (-(2.0 - gamma) / (1.0 - gamma))


def constant_weight_density(k: int) -> float:
    """Solution ``a_k = e^{-1} / (k-1)!`` of the stationary system for constant
    splitting weights under uniform partitioning.

    That model has ``inf i*w[1,i+1] = 0``, so no almost-sure census limit is
    guaranteed; use for informational comparison only.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return math.exp(-1.0 - math.lgamma(k))


# -- dispatch -------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Exact density evaluator for a recognised family; its tail laws are
    ``pref_attachment_asymptote`` and ``grafting_asymptote``."""

    _eval: Callable[[int], float]

    def __call__(self, k: int) -> float:
        return self._eval(k)

    def densities(self, k_max: int) -> np.ndarray:
        return np.array([self._eval(k) for k in range(1, k_max + 1)])


def closed_form_for(model: WeightModel) -> Optional[ClosedForm]:
    """Exact solution for the model's family, or None if there is none."""
    fam = model.family
    if fam == "preferential":
        sw = model.splitting
        return ClosedForm(lambda k: pref_attachment_density(sw, k))
    if fam == "uniform":
        x = model.params["x"]
        if x > _UNIFORM_X_MAX:
            return None
        log_c = _uniform_log_norm(x)
        return ClosedForm(lambda k: _uniform_density(x, k, log_c))
    if fam == "grafting":
        al, ga = model.params["alpha"], model.params["gamma"]
        if al >= 1.0 or ga == 0.0:
            return None
        return ClosedForm(lambda k: grafting_density(al, ga, k))
    return None
