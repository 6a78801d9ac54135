import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import f_complement_log_mpf, f_dp_mpf, mpf_terms, occupancy_reference

from covrad.auxfn import (
    OccupancyParams,
    RegimeSpec,
    _terms,
    f_complement_log,
    f_dp,
    f_exact,
    f_lower_bound,
    real,
    regime_params,
)
from covrad.errors import ResourceLimitError

# every triple within f_exact's budget (N <= 200, m <= 30) on a coarse grid
EXACT_GRID = [OccupancyParams(big_n, n, m)
              for big_n in (2, 3, 5, 10, 20, 50, 100, 150, 200)
              for n in (2.0, 2.5, 3.0, 5.0, 7.5, 10.0, 20.0, 30.0, 50.0, 100.0, 200.0)
              for m in (1, 2, 3, 5, 8, 13, 20, 30) if m <= n <= big_n]


def _relative_error(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


class TestReal:
    def test_accepts_a_finite_real_as_a_python_float(self):
        for value in (2, 0.5, np.float64(0.5), np.int64(3), Fraction(1, 4)):
            got = real(value, "x")
            assert type(got) is float and got == value
        assert real(1, "p", at_least=1) == 1.0 and real(0, "t", at_least=0) == 0.0

    @pytest.mark.parametrize("value", [True, False, 0, -1.0, math.nan, math.inf, "1", None])
    def test_refuses(self, value):
        with pytest.raises(ValueError, match="x must be finite and positive"):
            real(value, "x")

    def test_at_least(self):
        with pytest.raises(ValueError, match="p must be finite and at least 1, got 0.5"):
            real(0.5, "p", at_least=1)
        with pytest.raises(ValueError, match="at least 0"):
            real(-math.inf, "t", at_least=0)


class TestOccupancyParams:
    def test_valid(self):
        p = OccupancyParams(10, 5.0, 3)
        assert (p.n_points, p.cells_inv_measure, p.n_cells) == (10, 5.0, 3)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            OccupancyParams(10, 20.0, 3)  # n > N
        with pytest.raises(ValueError):
            OccupancyParams(10, 2.0, 3)  # m > n
        with pytest.raises(ValueError):
            OccupancyParams(0, 1.0, 1)

    @pytest.mark.parametrize("n_points, n_cells", [(100.5, 2), (100.0, 2), (100, 2.5),
                                                   (100, 2.0), (True, 1), (100, True)])
    def test_integers_only(self, n_points, n_cells):
        # 100.5 points once gave f_lower_bound 5.04e-5, and m = 2.5 an IndexError in f_dp
        with pytest.raises(ValueError, match="positive integers"):
            OccupancyParams(n_points, 1.0, n_cells)
        p = OccupancyParams(np.int64(100), 10.0, np.int64(2))
        assert type(p.n_points) is int and type(p.n_cells) is int


class TestFExact:
    def test_two_two_two(self):
        assert f_exact(OccupancyParams(2, 2.0, 2)) == Fraction(1, 2)

    def test_three_three_three(self):
        assert f_exact(OccupancyParams(3, 3.0, 3)) == Fraction(7, 9)

    def test_single_cell_closed_form(self):
        # m = 1: single-term sum (1 - 1/n)^N
        assert f_exact(OccupancyParams(7, 4.0, 1)) == Fraction(3, 4) ** 7

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            f_exact(OccupancyParams(1000, 500.0, 10))


class TestFDp:
    def test_matches_exact_small(self):
        assert f_dp(OccupancyParams(2, 2.0, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_relative_error_on_exact_grid(self):
        # to a relative 1e-12, down to f = 2^-199 = 6e-61
        worst = max(_relative_error(f_dp(p), float(f_exact(p))) for p in EXACT_GRID)
        assert worst <= 1e-12

    def test_single_cell(self):
        assert f_dp(OccupancyParams(50, 10.0, 1)) == pytest.approx(0.9**50, abs=1e-15)

    def test_oracle_equality_grid(self):
        worst = 0.0
        for big_n in range(1, 13):
            for n in range(2, 9):
                if n > big_n:
                    continue
                for m in range(1, min(n, 8) + 1):
                    params = OccupancyParams(big_n, float(n), m)
                    worst = max(worst, abs(f_dp(params) - float(f_exact(params))))
        assert worst <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            big_n = int(rng.integers(1, 10**5))
            n = float(rng.uniform(1.0, big_n))
            m = int(rng.integers(1, max(2, int(n))))
            v = f_dp(OccupancyParams(big_n, n, m))
            assert 0.0 <= v <= 1.0

    def test_monotone_in_m(self):
        for big_n in (10, 50, 200):
            values = [f_dp(OccupancyParams(big_n, 8.0, m)) for m in range(1, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_equals_high_digit_reference_on_exact_grid(self):
        assert [f_dp(p) for p in EXACT_GRID] == [occupancy_reference(p) for p in EXACT_GRID]

    @pytest.mark.parametrize("big_n", [1, 5, 200])
    def test_one_cell_of_full_measure(self, big_n):
        # n = 1: the one cell is the whole space, so it is never empty
        params = OccupancyParams(big_n, 1.0, 1)
        assert f_exact(params) == 0
        assert f_dp(params) == 0.0
        assert f_lower_bound(params) == 0.0
        assert f_complement_log(params) == 0.0

    def test_multinomial_monte_carlo_oracle(self):
        big_n, n, m = 10**5, 10**4, 10**3
        value = f_dp(OccupancyParams(big_n, float(n), m))
        rng = np.random.default_rng(14)
        trials = 4000
        hits = 0
        for _ in range(trials):
            counts = rng.multinomial(big_n, [1.0 / n] * m + [1.0 - m / n])
            hits += bool((counts[:m] == 0).any())
        p_hat = hits / trials
        sigma = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / trials) / trials)
        assert abs(value - p_hat) <= 4 * sigma


class TestFLowerBound:
    def test_m1_closed_form(self):
        params = OccupancyParams(100, 10.0, 1)
        assert f_lower_bound(params) == pytest.approx((0.9) ** 100, rel=1e-12)

    def test_two_two_two(self):
        assert f_lower_bound(OccupancyParams(2, 2.0, 2)) == pytest.approx(5.0 / 16.0, abs=1e-15)

    def test_below_f(self):
        params = OccupancyParams(10**4, 10**3, 10**2)
        assert f_lower_bound(params) <= f_dp(params) + 1e-12

    def test_random_grid_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            big_n = int(rng.integers(2, 10**5))
            n = float(rng.uniform(2.0, big_n))
            m = int(rng.integers(1, max(2, min(int(n), 500))))
            params = OccupancyParams(big_n, n, m)
            assert f_dp(params) >= f_lower_bound(params) - 1e-12

    def test_overflowing_second_term_is_vacuous(self):
        # about 770 expected empty cells: exp of the second term's log passes
        # the double range, and the bound says nothing
        params = OccupancyParams(1722510, 993547.59, 4469)
        assert f_lower_bound(params) == -math.inf
        assert f_dp(params) == 1.0


class TestComplementLog:
    def test_matches_dp_complement(self):
        params = OccupancyParams(200, 40.0, 10)
        expected = math.log1p(-f_dp(params))
        assert f_complement_log(params) == pytest.approx(expected, rel=1e-9)

    def test_resolves_saturated_values(self):
        # f rounds to 1.0 in double precision but the complement is finite
        params = OccupancyParams(10**6, 2.0 * 10**5, 10**4)
        assert f_dp(params) == 1.0
        # lambda = m (1 - 1/n)^N ~ 67 empty cells expected; complement ~ e^-lambda
        assert -75.0 < f_complement_log(params) < -60.0


class TestRegimeParams:
    def test_variant_one_formula(self):
        spec = RegimeSpec("I", kappa=1.0, alpha=1.5)
        params = regime_params(spec, 10**6)
        log_n = math.log(10**6)
        n = 10**6 / (log_n - 1.5 * math.log(log_n))
        assert params.cells_inv_measure == pytest.approx(n, rel=1e-12)
        assert params.n_cells == math.floor(n)

    def test_variant_three_formula(self):
        spec = RegimeSpec("III", kappa=0.5, alpha=1.5, d=3)
        params = regime_params(spec, 10**7)
        assert params.n_cells == math.floor(0.5 * params.cells_inv_measure ** (1.0 / 3.0))

    def test_too_small_n(self):
        # N = 4: n = N / (log N - 1.5 log log N) exceeds N, violating m <= n <= N
        with pytest.raises(ValueError):
            regime_params(RegimeSpec("I", kappa=1.0, alpha=1.5), 4)
        with pytest.raises(ValueError):
            regime_params(RegimeSpec("III", kappa=1.0, alpha=1.5, d=3), 10**3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegimeSpec("IV")
        with pytest.raises(ValueError):
            RegimeSpec("I", kappa=1.5)  # variant I needs kappa <= 1
        with pytest.raises(ValueError):
            RegimeSpec("II", d=1)
        with pytest.raises(ValueError):
            RegimeSpec("I", kappa=0.0)


class TestHighPrecisionSums:
    """The two high-precision alternating sums, f_dp and f_complement_log."""

    # repr of each value, recorded before the sums took exact integer binomials
    COMPLEMENT_LOG_REGIME_III = {
        10**8: "-71.51675801783168",
        10**9: "-74.41605307115762",
        10**10: "-78.8649417107155",
        10**11: "-84.34863166594337",
    }
    # (N, n, m) -> repr of f_dp, the correctly rounded value; m from 2 to 3000,
    # f from 1.6e-30 up, lam = m (1 - 1/n)^N up to 20
    HIGH_PRECISION_F_DP = {
        (100, 2.0, 2): "1.5777218104420236e-30",
        (1000, 10.0, 10): "1.7478712517226516e-45",
        (100000, 15000.0, 120): "0.14168531998020703",
        (1000000, 200000.0, 150): "0.6372758149424707",
        (30000, 3947.4, 600): "0.2593015936287421",
        (100000, 14701.2, 900): "0.6324093186645509",
        (300000, 50071.7, 1200): "0.9504258768419284",
        (1000000, 175323.0, 1800): "0.9975475303611414",
        (3000000, 566218.0, 2400): "0.999994042031353",
        (10000000, 1995760.0, 3000): "0.9999999980737777",
    }
    # small m, checked against the 120-digit reference (about a second per triple
    # at m = 3000); a double-precision matrix power of the occupancy chain is off
    # on the last two by 4.9e-14 and 2.7e-11 relative
    SMALL_M = sorted(t for t in HIGH_PRECISION_F_DP if t[2] <= 150) + [
        (1000, 10.0, 2), (766271, 132692.83646344743, 38)]

    @pytest.mark.parametrize("big_n", sorted(COMPLEMENT_LOG_REGIME_III))
    def test_complement_log_pinned(self, big_n):
        params = regime_params(RegimeSpec("III", 1.0, 1.5, 3), big_n)
        assert repr(f_complement_log(params)) == self.COMPLEMENT_LOG_REGIME_III[big_n]

    @pytest.mark.parametrize("triple", sorted(HIGH_PRECISION_F_DP))
    def test_high_precision_f_dp_pinned(self, triple):
        assert repr(f_dp(OccupancyParams(*triple))) == self.HIGH_PRECISION_F_DP[triple]

    @pytest.mark.parametrize("triple", SMALL_M)
    def test_f_dp_equals_high_digit_reference(self, triple):
        params = OccupancyParams(*triple)
        assert f_dp(params) == occupancy_reference(params)

    def test_sums_match_exact(self):
        worst_f = worst_log = 0.0
        for params in EXACT_GRID:
            exact = f_exact(params)
            got = f_dp(params)
            worst_f = max(worst_f, _relative_error(got, float(exact)))
            # log(1 - f) to a relative 1e-12, and to 1e-12 absolute below 1 in size:
            # that is 1 - f to a relative 1e-12 (the sum keeps a fixed number of
            # digits of 1 - f, so log(1 - f) = -1e-60 has no relative precision)
            want = math.log1p(-float(exact)) if exact < 0.5 else math.log(float(1 - exact))
            got_log = f_complement_log(params)
            worst_log = max(worst_log, abs(got_log - want) / max(1.0, abs(want)))
        assert len(EXACT_GRID) == 271
        assert worst_f <= 1e-12 and worst_log <= 1e-12


@st.composite
def _triples(draw, lam_max: float, int_n: bool) -> OccupancyParams:
    """(N, n, m) with n set so that about lam = m (1 - 1/n)^N cells stay empty,
    clamped into [m, N]; n is a float, or an int if int_n."""
    m = draw(st.integers(1, 300))
    big_n = draw(st.integers(m, 10**9))
    lam = draw(st.floats(1e-3, lam_max)) * min(1.0, 0.999 * m / lam_max)
    n = min(max(1.0 / -math.expm1(math.log(lam / m) / big_n), m), big_n)
    return OccupancyParams(big_n, round(n) if int_n else n, m)


class TestLibmpKernel:
    """The sums on raw mpmath.libmp tuples against their mpf formulation
    (oracles.f_dp_mpf, f_complement_log_mpf), bit for bit."""

    PINNED = TestHighPrecisionSums
    # N = 1e40, n = 1e39: k/n is below 2^-(prec + 10), so log1p takes x - x^2/2;
    # n = 10^20 + 1 is an int above 2^53, converted at the working precision
    EDGE = [(10**40, 1e39, 2), (10**21, 10**20 + 1, 2), (10**21, 10**20 + 1, 40)]

    @pytest.mark.parametrize("triple", sorted(PINNED.HIGH_PRECISION_F_DP))
    def test_numpy_counts_f_dp(self, triple):
        big_n, n, m = triple
        params = OccupancyParams(np.int64(big_n), n, np.int64(m))
        assert repr(f_dp(params)) == self.PINNED.HIGH_PRECISION_F_DP[triple]

    @pytest.mark.parametrize("big_n", sorted(PINNED.COMPLEMENT_LOG_REGIME_III))
    def test_numpy_counts_complement_log(self, big_n):
        p = regime_params(RegimeSpec("III", 1.0, 1.5, 3), big_n)
        params = OccupancyParams(np.int64(p.n_points), p.cells_inv_measure, np.int64(p.n_cells))
        assert repr(f_complement_log(params)) == self.PINNED.COMPLEMENT_LOG_REGIME_III[big_n]

    @pytest.mark.parametrize("triple", EDGE)
    def test_edge_cases(self, triple):
        params = OccupancyParams(*triple)
        assert repr(f_dp(params)) == repr(f_dp_mpf(params))
        assert repr(f_complement_log(params)) == repr(f_complement_log_mpf(params))

    def test_numpy_integer_n_is_an_int(self):
        # converted at the working precision, not rounded to a double first
        prec = mpmath.libmp.dps_to_prec(30)
        as_int = list(_terms(OccupancyParams(10**19, 2**62 + 1, 2), 0, prec))
        assert list(_terms(OccupancyParams(10**19, np.int64(2**62 + 1), 2), 0, prec)) == as_int

    def test_small_x_branch_value(self):
        assert repr(f_dp(OccupancyParams(10**40, 1e39, 2))) == "9.079779837134721e-05"

    @settings(max_examples=40, deadline=None)
    @given(params=st.booleans().flatmap(lambda int_n: _triples(45.0, int_n)))
    @example(params=OccupancyParams(1, 1.0, 1))
    def test_f_dp_matches_mpf(self, params):
        assert repr(f_dp(params)) == repr(f_dp_mpf(params))

    @settings(max_examples=25, deadline=None)
    @given(params=st.booleans().flatmap(lambda int_n: _triples(90.0, int_n)))
    @example(params=OccupancyParams(236, 236, 236))  # 1 - f = 236!/236^236 underflows
    def test_f_complement_log_matches_mpf(self, params):
        def outcome(fn):
            try:
                return repr(fn(params))
            except ResourceLimitError as exc:
                return f"ResourceLimitError: {exc}"

        assert outcome(f_complement_log) == outcome(f_complement_log_mpf)

    @settings(max_examples=25, deadline=None)
    @given(params=st.booleans().flatmap(lambda int_n: _triples(90.0, int_n)),
           digits=st.integers(30, 130))
    @example(params=OccupancyParams(*EDGE[0]), digits=30)
    @example(params=OccupancyParams(*EDGE[1]), digits=30)
    @example(params=OccupancyParams(*EDGE[2]), digits=130)
    def test_terms_match_mpf(self, params, digits):
        # every term's tuple, not only the sum rounded to a double
        with mpmath.workdps(digits):
            want = [(k, term._mpf_) for k, term in mpf_terms(params, 0)]
        assert list(_terms(params, 0, mpmath.libmp.dps_to_prec(digits))) == want

    @pytest.mark.parametrize("dps", [5, 500])
    def test_global_precision_neither_read_nor_written(self, dps):
        cases = [OccupancyParams(*t) for t in self.EDGE[:2]] + [
            OccupancyParams(*t) for t in sorted(self.PINNED.HIGH_PRECISION_F_DP)[:6]]
        want = [(repr(f_dp(p)), repr(f_complement_log(p))) for p in cases]
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            got = [(repr(f_dp(p)), repr(f_complement_log(p))) for p in cases]
            assert mpmath.mp.prec == prec
        assert got == want
