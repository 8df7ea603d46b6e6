import math

import numpy as np
import pytest

import kmatch.analytic as an
from kmatch.analytic import AsymptoticParams, PairProfile, RegimeError


def params_nd(n, d, k):
    return AsymptoticParams.from_nd(n, d, k)


class TestParams:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            AsymptoticParams(n=100, d=5.0, p=0.2, k=2)

    def test_constructors_agree(self):
        a = AsymptoticParams.from_nd(1000, 5.0, 3)
        b = AsymptoticParams.from_np(1000, 0.005, 3)
        assert a == b
        assert a.p_d == pytest.approx(25.0 / 1000)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticParams.from_nd(100, 5.0, 1)

    def test_no_vertices_rejected_before_dividing(self):
        for make in (AsymptoticParams.from_nd, AsymptoticParams.from_np):
            with pytest.raises(ValueError, match="n must be >= 1"):
                make(0, 0.5, 2)


class TestBounds:
    def test_reference_point(self):
        b = an.bounds(params_nd(10**6, 100.0, 2))
        assert b.upper == pytest.approx(10**4 * math.log(100.0), rel=1e-12)
        assert b.upper == pytest.approx(46051.7, abs=0.1)
        assert b.a_far == pytest.approx(2.795e5, rel=1e-3)

    def test_pair_target_reference(self):
        s = an.generator_pair_target(params_nd(10**5, 20.0, 2))
        assert math.floor(s) == 775

    def test_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            d = float(rng.uniform(1.5, 50.0))
            n = int(d ** (k - 1) * rng.uniform(10.0, 1e4)) + 10
            try:
                b = an.bounds(params_nd(n, d, k))
            except RegimeError:
                continue
            assert b.lower_maximal < b.generator_size_target < b.upper

    def test_m_star_scales_with_eps(self):
        p = params_nd(10**6, 50.0, 3)
        b1 = an.bounds(p, eps=0.1)
        b2 = an.bounds(p, eps=1.0)
        assert b2.m_star < b1.m_star < b1.lower_maximal

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            an.bounds(params_nd(100, 0.5, 2))  # d <= 1
        with pytest.raises(RegimeError):
            an.bounds(params_nd(10, 5.0, 3))  # p_d = 2.5 >= 1
        with pytest.raises(ValueError):
            an.bounds(params_nd(10**6, 100.0, 2), eps=1.0)  # eps >= k-1


class TestProbMainTerms:
    def test_distance_k2(self):
        assert an.prob_distance_ge_k_main(
            AsymptoticParams.from_np(10, 0.3, 2)
        ) == pytest.approx(0.7, abs=1e-15)

    def test_distance_p_zero(self):
        for k in (2, 3, 4):
            assert an.prob_distance_ge_k_main(AsymptoticParams.from_np(50, 0.0, k)) == 1.0

    def test_distance_k3(self):
        assert an.prob_distance_ge_k_main(params_nd(1000, 5.0, 3)) == pytest.approx(
            0.975, abs=1e-15
        )

    def test_matching_log_single_edge(self):
        p = AsymptoticParams.from_np(50, 0.2, 2)
        assert an.prob_k_matching_main_log(p, 1) == pytest.approx(math.log(0.2))

    def test_matching_log_k2_pair(self):
        p = AsymptoticParams.from_np(100, 0.5, 2)
        assert an.prob_k_matching_main_log(p, 2) == pytest.approx(6 * math.log(0.5))

    def test_matching_log_k3(self):
        p = params_nd(1000, 5.0, 3)
        expected = 3 * math.log(0.005) + 12 * math.log(0.975)
        assert an.prob_k_matching_main_log(p, 3) == pytest.approx(expected, rel=1e-12)


class TestExpectedCount:
    def test_k3_triangle_count(self):
        p = AsymptoticParams.from_np(3, 0.5, 2)
        assert an.expected_num_k_matchings_log(p, 1) == pytest.approx(math.log(1.5))

    def test_m_zero(self):
        assert an.expected_num_k_matchings_log(params_nd(100, 5.0, 2), 0) == 0.0

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            an.expected_num_k_matchings_log(params_nd(100, 5.0, 2), 51)

    def test_no_overflow_at_scale(self):
        p = params_nd(10**9, 100.0, 3)
        val = an.expected_num_k_matchings_log(p, 10**7)
        assert math.isfinite(val)

    def test_sign_flip_exists_below_upper(self):
        # The finite-size first-moment cutoff sits below the asymptotic
        # upper bound: at (n=1e6, d=100, k=2) the per-edge exponent
        # crosses zero near 0.88 * upper.
        p = params_nd(10**6, 100.0, 2)
        upper = an.bounds(p).upper
        assert an.first_moment_exponent(p, 0.80 * upper) > 0
        assert an.first_moment_exponent(p, 1.05 * upper) < 0
        lo, hi = 0.80 * upper, 1.05 * upper
        for _ in range(60):
            mid = (lo + hi) / 2
            if an.first_moment_exponent(p, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.85 * upper < lo < 0.92 * upper


class TestJanson:
    def test_vertex_k2(self):
        j = an.janson_vertex_pair(AsymptoticParams.from_np(10, 0.4, 2))
        assert j.u == pytest.approx(0.6, abs=1e-15)
        assert j.delta_bound == 0.0

    def test_vertex_k3_small(self):
        j = an.janson_vertex_pair(AsymptoticParams.from_np(3, 0.5, 3))
        assert j.u == pytest.approx(0.375, rel=1e-12)
        j5 = an.janson_vertex_pair(AsymptoticParams.from_np(5, 0.3, 3))
        assert j5.u == pytest.approx(0.7 * (1 - 0.09) ** 3, rel=1e-12)

    def test_u_le_upper(self):
        for p in (0.1, 0.5, 0.9):
            for k in (2, 3, 4):
                j = an.janson_vertex_pair(AsymptoticParams.from_np(6, p, k))
                assert j.u <= j.u_exp_delta

    @pytest.mark.parametrize("n, delta", [(5, 4971.78), (6, 8151.74)])
    def test_upper_overflow_is_inf(self, n, delta):
        j = an.janson_matching(AsymptoticParams.from_np(n, 0.9, 4), 2)
        assert j.delta_bound == pytest.approx(delta, abs=0.01)
        assert j.u > 0.0
        assert j.u_exp_delta == math.inf

    def test_upper_edge_values(self):
        assert an.JansonBounds(0.0, 1e4).u_exp_delta == 0.0
        assert an.JansonBounds(0.0, math.inf).u_exp_delta == 0.0
        # exp(740) overflows but the product with u = e^-745 is finite
        assert an.JansonBounds(5e-324, 740.0).u_exp_delta == pytest.approx(
            math.exp(math.log(5e-324) + 740.0), rel=1e-12
        )
        assert an.JansonBounds(0.5, 2.0).u_exp_delta == 0.5 * math.exp(2.0)

    def test_matching_m1(self):
        j = an.janson_matching(AsymptoticParams.from_np(8, 0.3, 3), 1)
        assert j.u == 1.0 and j.delta_bound == 0.0

    def test_matching_k2(self):
        j = an.janson_matching(AsymptoticParams.from_np(10, 0.5, 2), 2)
        assert j.u == pytest.approx(0.0625, rel=1e-12)
        assert j.delta_bound == 0.0


class TestFG:
    def test_monotone_reference_point(self):
        assert an.check_f_monotone(params_nd(10**8, 100.0, 3))

    def test_g_negative_at_k_scale(self):
        p = params_nd(10**8, 100.0, 3)
        x = p.k * p.n * math.log(p.d) / (4 * p.d ** (p.k - 1))
        assert an.g_value(p, x) < 0

    def test_g_decreasing(self):
        p = params_nd(10**8, 100.0, 3)
        xs = np.linspace(1.0, 3e4, 50)
        gs = [an.g_value(p, float(x)) for x in xs]
        assert all(a > b for a, b in zip(gs, gs[1:]))

    def test_g_matches_numeric_derivative_of_log_f(self):
        p = params_nd(10**7, 50.0, 3)
        for x in (5.0, 100.0, 2000.0):
            h = 1e-4 * x
            numeric = (an.log_f_value(p, x + h) - an.log_f_value(p, x - h)) / (2 * h)
            assert an.g_value(p, x) == pytest.approx(numeric, rel=1e-5)

    def test_domain_errors(self):
        p = params_nd(10**8, 100.0, 3)
        with pytest.raises(ValueError):
            an.log_f_value(p, 0.5)
        with pytest.raises(RegimeError):
            an.log_f_value(params_nd(10, 5.0, 3), 2.0)


class TestPairCounts:
    @pytest.mark.parametrize(
        "n,profile,expected",
        [
            (4, (0, 0, 1), 6),
            (4, (1, 0, 0), 6),
            (4, (0, 1, 0), 24),
            (5, (0, 0, 1), 10),
            (5, (0, 1, 0), 60),
            (5, (1, 0, 0), 30),
            (2, (0, 0, 1), 1),
        ],
    )
    def test_reference_counts(self, n, profile, expected):
        r, c_v, c_e = profile
        assert an.pair_count_exact(n, PairProfile(r, c_v, c_e)) == expected

    def test_infeasible_profile(self):
        with pytest.raises(ValueError):
            an.pair_count_exact(3, PairProfile(1, 0, 0))  # needs 4 vertices

    def test_big_integer_exactness(self):
        # value exceeds 2^63; formula must stay exact
        count = an.pair_count_exact(60, PairProfile(10, 3, 2))
        assert count % 1 == 0 and count > 2**63


class TestSecondMoment:
    def test_independent_profile_is_zero(self):
        p = params_nd(10**6, 30.0, 3)
        for m in (1, 3, 10):
            assert an.second_moment_ratio_main_log(
                p, m, PairProfile(m, 0, 0)
            ) == pytest.approx(0.0, abs=1e-9)

    def test_rest_only_profiles(self):
        # c_e = c_v = 0 with r < m leaves only the (m!/r!)^2 factor
        p = params_nd(10**6, 30.0, 3)
        val = an.second_moment_ratio_main_log(p, 5, PairProfile(5, 0, 0))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_shared_edge_profile(self):
        # m=1, profile (0,0,1): the (1-p_d) exponent 4c_e+c_v-(2c_e+c_v)^2
        # vanishes, leaving n^-2 * 2 * p^-1
        p = AsymptoticParams.from_np(5, 0.4, 2)
        val = an.second_moment_ratio_main_log(p, 1, PairProfile(0, 0, 1))
        expected = -2.0 * math.log(5.0) + math.log(2.0) - math.log(0.4)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_profile_mismatch(self):
        with pytest.raises(ValueError):
            an.second_moment_ratio_main_log(params_nd(100, 5.0, 2), 3, PairProfile(1, 0, 0))


class TestAppendixM:
    @pytest.mark.parametrize("n,expected", [(4, 1), (64, 3), (10**6, 15)])
    def test_reference_values(self, n, expected):
        assert an.solve_appendix_m(n) == expected

    def test_definition(self):
        for n in (4, 17, 100, 12345, 10**9):
            m = an.solve_appendix_m(n)
            assert m * 2 ** (m + 1) <= n < (m + 1) * 2 ** (m + 2)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            an.solve_appendix_m(3)


class TestClaimA3:
    def test_zero_at_origin(self):
        p = params_nd(10**6, 10.0, 3)
        assert an.claim_a3_quadratic(p, 15, 0.0) == 0.0

    def test_vertex_beyond_m(self):
        # with m tied to n by m*2^(m+1) = n the parabola peaks past x = m
        n = 10**6
        m = an.solve_appendix_m(n)
        p = params_nd(n, 10.0, 3)
        coeff = 1.0 - 2.0 * n / p.d**2 * math.log(2.0 * m / n)
        vertex = coeff / 8.0
        assert vertex > m

    def test_min_on_integer_grid_at_one(self):
        n = 10**6
        m = an.solve_appendix_m(n)
        p = params_nd(n, 10.0, 3)
        vals = [an.claim_a3_quadratic(p, m, float(x)) for x in range(1, m + 1)]
        assert min(range(m), key=lambda i: vals[i]) == 0  # x = 1
