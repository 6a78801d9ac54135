"""Occupancy probability f(N, n, m): the chance that at least one of m
disjoint cells of measure 1/n receives none of N i.i.d. points.

Four evaluators with different contracts:

* f_exact: the alternating inclusion-exclusion sum in exact rational
  arithmetic. Reference-grade, small instances only.
* f_dp: production evaluator. The same alternating sum in high-precision
  floating point, with enough digits to absorb its cancellation, so tiny f
  keeps its relative precision; or 1.0 when the expected number of empty
  cells makes the all-occupied probability underflow double precision.
* f_complement_log: log(1 - f) from the same alternating sum, for f too
  close to 1 for double precision.
* f_lower_bound: the closed-form lower bound, evaluated in log space.

Both high-precision sums take their terms C(m, k) (1 - k/n)^N from one
kernel, _terms: the binomial is an exact Python integer and the power
exp(N log1p(-k/n)). They run on mpmath.libmp tuples at each sum's precision,
rounded to nearest, with the calls that mpmath's mpf formulation makes: the
values are bit-identical to it, and no global mpmath state is read or written.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (dps_to_prec, fhalf, fone, fzero, from_float, from_int, mpf_add,
                          mpf_exp, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_pos,
                          mpf_pow_int, mpf_rdiv_int, mpf_sub, to_float)

from .errors import ResourceLimitError


def is_integer(value) -> bool:
    """An integer, not a bool, float or string (True as 1 point, 6.9 as vertex 6)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A positive integer (is_integer)."""
    return is_integer(value) and value >= 1


def real(value, name: str, at_least: float | None = None) -> float:
    """A finite real parameter, positive or at least `at_least`, as a Python float; a
    bool is refused, as it would be taken as 1.0 (or 0.0) and echoed as given."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    x = float(value) if number else math.nan  # an int beyond float range raises OverflowError
    if not (math.isfinite(x) and (x > 0 if at_least is None else x >= at_least)):
        bound = "positive" if at_least is None else f"at least {at_least:g}"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return x


@dataclass(frozen=True)
class OccupancyParams:
    n_points: int  # N: number of thrown points
    cells_inv_measure: float  # n: cells have measure 1/n (real-valued)
    n_cells: int  # m: number of disjoint cells

    def __post_init__(self):
        if not (is_count(self.n_points) and is_count(self.n_cells)):
            raise ValueError("N and m must be positive integers")
        for name in ("n_points", "n_cells"):  # Python ints: NumPy's would wrap the binomials
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (self.n_cells <= self.cells_inv_measure <= self.n_points):
            raise ValueError("need m <= n <= N")


@dataclass(frozen=True)
class RegimeSpec:
    """Joint (n, m) scaling with N under which f tends to 1.

    Variant I: n = N / (log N - alpha log log N),        m = floor(kappa n)
    Variant II: n = N / ((d-1)/d log N - alpha log log N), m = floor(kappa n^((d-1)/d))
    Variant III: n = N / (1/d log N - alpha log log N),    m = floor(kappa n^(1/d))
    """

    variant: str  # "I" | "II" | "III"
    kappa: float = 1.0
    alpha: float = 1.5
    d: int = 2

    def __post_init__(self):
        if self.variant not in ("I", "II", "III"):
            raise ValueError("variant must be 'I', 'II' or 'III'")
        object.__setattr__(self, "kappa", real(self.kappa, "kappa"))
        object.__setattr__(self, "alpha", real(self.alpha, "alpha", at_least=-math.inf))
        if self.variant == "I" and self.kappa > 1.0:
            raise ValueError("variant I requires kappa <= 1")
        if not (is_count(self.d) and (self.variant == "I" or self.d >= 2)):
            raise ValueError(f"d must be an integer, >= 2 in variants II/III, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))


def regime_params(spec: RegimeSpec, n_points: int) -> OccupancyParams:
    log_n = math.log(n_points)
    loglog = math.log(log_n) if log_n > 1.0 else -math.inf
    if spec.variant == "I":
        denom = log_n - spec.alpha * loglog
        exponent = 1.0
    elif spec.variant == "II":
        denom = (spec.d - 1) / spec.d * log_n - spec.alpha * loglog
        exponent = (spec.d - 1) / spec.d
    else:
        denom = log_n / spec.d - spec.alpha * loglog
        exponent = 1.0 / spec.d
    if not (denom > 0.0):
        raise ValueError(f"N={n_points} too small for regime {spec.variant}")
    n = n_points / denom
    m = math.floor(spec.kappa * n**exponent)
    return OccupancyParams(n_points=n_points, cells_inv_measure=n, n_cells=m)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


def f_exact(params: OccupancyParams) -> Fraction:
    """Exact alternating sum in rational arithmetic; n must be rational."""
    n_exact = Fraction(params.cells_inv_measure).limit_denominator(10**12)
    if abs(float(n_exact) - params.cells_inv_measure) > 1e-12:
        raise ValueError("f_exact needs a rational cell measure")
    if params.n_points > 200 or params.n_cells > 30:
        raise ResourceLimitError("instance exceeds the exact-rational budget (N<=200, m<=30)")
    total = Fraction(0)
    for k in range(1, params.n_cells + 1):
        term = math.comb(params.n_cells, k) * (1 - Fraction(k) / n_exact) ** params.n_points
        total += term if k % 2 == 1 else -term
    return total


def _log_empty_one_cell(params: OccupancyParams) -> float:
    """log of q = (1 - 1/n)^N, the probability a fixed cell stays empty;
    -inf at n = 1, where the one cell is the whole space."""
    n = params.cells_inv_measure
    return params.n_points * math.log1p(-1.0 / n) if n != 1 else -math.inf


def _terms(params: OccupancyParams, start: int, prec: int):
    """Yield (k, C(m, k) (1 - k/n)^N) for k = start..m as raw mpf tuples at prec
    bits. The binomial is carried as an exact Python integer, so only the power
    and the product round. Each step is the libmp call that the mpf operators
    make in comb * mpmath.exp(N * mpmath.log1p(-k / n)), log1p's own included."""
    v = params.cells_inv_measure
    n = from_int(int(v), prec, "n") if isinstance(v, numbers.Integral) else from_float(v)
    big_n, m, wp = params.n_points, params.n_cells, prec + 10  # log1p's guard bits
    comb = math.comb(m, start)
    for k in range(start, m + 1):
        x = mpf_rdiv_int(-k, n, prec, "n")
        if x[2] + x[3] < -wp:  # log1p's x - x^2/2, where 1 + x would lose x
            log1p = mpf_sub(x, mpf_mul(mpf_pow_int(x, 2, wp, "n"), fhalf, wp, "n"), wp, "n")
        else:  # log(1 + x), the sum at twice the guarded precision; log(1) is 0
            log1p = mpf_log(mpf_add(fone, x, 2 * wp, "n"), wp, "n")
        power = mpf_exp(mpf_mul_int(mpf_pos(log1p, prec, "n"), big_n, prec, "n"), prec, "n")
        yield k, mpf_mul_int(power, comb, prec, "n")
        comb = comb * (m - k) // (k + 1)


def f_dp(params: OccupancyParams) -> float:
    """Probability that at least one of the m cells is empty, in [0, 1]."""
    log_q = _log_empty_one_cell(params)
    # expected empty cells m*q; all-occupied probability <= (1-q)^m
    log_all_occupied_bound = params.n_cells * math.log1p(-math.exp(log_q)) if log_q < 0 else 0.0
    if log_all_occupied_bound < -45.0:
        return 1.0
    # lam <= 45 here, since m log1p(-q) <= -m q = -lam
    lam = math.exp(math.log(params.n_cells) + log_q)
    digits = 30 + int(0.5 * lam)
    prec = dps_to_prec(digits)
    total, tiny = fzero, mpf_pow_int(from_int(10), -digits - 10, prec, "n")
    for k, term in _terms(params, 1, prec):
        total = (mpf_add if k % 2 == 1 else mpf_sub)(total, term, prec, "n")
        if k > 2.0 * lam + 20 and mpf_lt(term, tiny):
            break
    return min(1.0, max(0.0, to_float(total, rnd="n")))


def f_complement_log(params: OccupancyParams) -> float:
    """log(1 - f) = log P(all m cells occupied), in high-precision arithmetic.

    Resolves strict trends in f when f saturates to 1.0 in double precision
    (the complement can be far below the double-precision epsilon).
    """
    log_q = _log_empty_one_cell(params)
    lam = params.n_cells * math.exp(log_q)  # expected number of empty cells
    digits = 40 + int(lam)
    prec = dps_to_prec(digits)
    total, tiny = fzero, mpf_pow_int(from_int(10), -digits, prec, "n")
    for k, term in _terms(params, 0, prec):  # every term is positive
        total = (mpf_add if k % 2 == 0 else mpf_sub)(total, term, prec, "n")
        if k > 3.0 * lam + 20 and mpf_lt(term, tiny):
            break
    if mpf_le(total, fzero):
        raise ResourceLimitError("complement underflowed the working precision")
    return to_float(mpf_log(total, prec, "n"), rnd="n")


def f_lower_bound(params: OccupancyParams) -> float:
    """Closed-form lower bound on f, evaluated in log space where factors
    underflow. Equals (1 - 1/n)^N at m = 1."""
    n, m, big_n = params.cells_inv_measure, params.n_cells, params.n_points
    log_q = _log_empty_one_cell(params)  # q = (1 - 1/n)^N
    q = math.exp(log_q)
    first = -math.expm1(m * math.log1p(-q)) if q < 1.0 else 1.0  # 1 - (1-q)^m
    if m < 2:
        return first
    log_q1 = (big_n - 1) * math.log1p(-1.0 / n)  # (1 - 1/n)^(N-1)
    log_second = (
        math.log(big_n)
        - 2.0 * math.log(n)
        + math.log(m * (m - 1) / 2.0)
        + 2.0 * log_q1
        + (m - 2) * math.log1p(math.exp(log_q1))
    )
    try:
        return first - math.exp(log_second)
    except OverflowError:  # second term beyond the double range: the bound is vacuous
        return -math.inf
