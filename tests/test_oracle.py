import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.analytic as an
import kmatch.oracle as orc
from kmatch.analytic import AsymptoticParams, PairProfile

import mask_reference as ref
from mask_reference import distance_at_least

P_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


# ---------------------------------------------------------------------------
# References for the vectorized oracle: a Python predicate per mask, and the
# one bitmask pass over all masks in mask_reference.
# ---------------------------------------------------------------------------


def reference_prob_k_matching(n, p, k, matching, *, exact=False):
    """P[the pair set is a k-matching] by a Python predicate on each mask."""
    members = sorted(tuple(sorted(e)) for e in matching)
    pair_bits = [(1 << u) | (1 << v) for u, v in members]

    def pred(g):
        for u, v in members:
            if not g.has_edge(u, v):
                return False
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if not distance_at_least(g.adj, pair_bits[i], pair_bits[j], k):
                    return False
        return True

    return orc.exact_event_probability(n, p, pred, exact=exact)


def probabilities():
    return st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestEventProbability:
    def test_total_measure(self):
        assert orc.exact_event_probability(3, 0.5, lambda g: True) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_single_coordinate(self):
        for p in (0.2, 0.7):
            got = orc.exact_event_probability(4, p, lambda g: g.has_edge(0, 1))
            assert got == pytest.approx(p, abs=1e-13)

    def test_at_least_one_edge(self):
        got = orc.exact_event_probability(3, 0.5, lambda g: g.mask != 0)
        assert got == pytest.approx(0.875, abs=1e-15)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            orc.exact_event_probability(7, 0.5, lambda g: True)

    def test_exact_rational_mode(self):
        got = orc.exact_event_probability(
            3, Fraction(1, 3), lambda g: g.mask != 0, exact=True
        )
        assert got == 1 - Fraction(8, 27)

    def test_float_matches_rational(self):
        f = orc.exact_prob_distance_ge_k(4, 0.3, 3, 0, 1)
        r = orc.exact_prob_distance_ge_k(4, Fraction(3, 10), 3, 0, 1, exact=True)
        assert f == pytest.approx(float(r), abs=1e-14)


class TestDistanceProbability:
    def test_k2_is_one_minus_p(self):
        assert orc.exact_prob_distance_ge_k(3, 0.5, 2, 0, 1) == pytest.approx(0.5)

    def test_k3_reference(self):
        got = orc.exact_prob_distance_ge_k(3, 0.5, 3, 0, 1)
        assert got == pytest.approx(0.375, abs=1e-15)

    def test_k3_factorizes(self):
        # at k=3 the blocking structures (the edge and the length-2 paths)
        # are edge-disjoint, so the probability is exactly the product
        for n in (3, 4, 5):
            for p in (0.2, 0.6, 0.9):
                got = orc.exact_prob_distance_ge_k(n, p, 3, 0, 1)
                want = (1 - p) * (1 - p * p) ** (n - 2)
                assert got == pytest.approx(want, abs=1e-12)

    def test_k2_grid_is_one_minus_p(self):
        for n in range(2, 6):
            for p in P_GRID:
                for u in range(n):
                    for v in range(u + 1, n):
                        got = orc.exact_prob_distance_ge_k(n, p, 2, u, v)
                        assert abs(got - (1 - p)) < 1e-12


class TestKMatchingProbability:
    def test_single_edge(self):
        for p in (0.25, 0.8):
            assert orc.exact_prob_k_matching(5, p, 3, [(0, 1)]) == pytest.approx(
                p, abs=1e-13
            )

    def test_k2_closed_form(self):
        got = orc.exact_prob_k_matching(4, 0.5, 2, [(0, 1), (2, 3)])
        assert got == pytest.approx(0.015625, abs=1e-15)

    def test_k2_closed_form_grid(self):
        for p in P_GRID:
            got = orc.exact_prob_k_matching(4, p, 2, [(0, 1), (2, 3)])
            assert abs(got - p**2 * (1 - p) ** 4) < 1e-12

    def test_overlapping_matching_rejected(self):
        with pytest.raises(ValueError):
            orc.exact_prob_k_matching(5, 0.5, 2, [(0, 1), (1, 2)])

    def test_unnormalized_input_accepted(self):
        a = orc.exact_prob_k_matching(5, 0.4, 2, [(1, 0), (3, 2)])
        b = orc.exact_prob_k_matching(5, 0.4, 2, [(0, 1), (2, 3)])
        assert a == b


class TestJansonSandwich:
    def test_vertex_pairs_full_grid(self):
        tol = 1e-12
        for n in range(2, 6):
            for k in (2, 3):
                for p in P_GRID:
                    params = AsymptoticParams.from_np(n, p, k)
                    j = an.janson_vertex_pair(params)
                    for u in range(n):
                        for v in range(u + 1, n):
                            exact = orc.exact_prob_distance_ge_k(n, p, k, u, v)
                            assert j.u - tol <= exact <= j.u_exp_delta + tol, (
                                n,
                                k,
                                p,
                                u,
                                v,
                            )

    def test_matchings_m2(self):
        tol = 1e-12
        for n in (5, 6):
            for k in (2, 3):
                for p in P_GRID:
                    params = AsymptoticParams.from_np(n, p, k)
                    j = an.janson_matching(params, 2)
                    exact = orc.exact_prob_k_matching(n, p, k, [(0, 1), (2, 3)])
                    conditional = exact / p**2
                    assert j.u - tol <= conditional <= j.u_exp_delta + tol, (n, k, p)


class TestExpectedXm:
    def test_triangle(self):
        assert orc.exact_expected_Xm(3, 0.5, 2, 1) == pytest.approx(1.5, abs=1e-15)

    def test_m0(self):
        assert orc.exact_expected_Xm(4, 0.7, 2, 0) == 1.0

    def test_k4_perfect_matchings(self):
        assert orc.exact_expected_Xm(4, 0.5, 2, 2) == pytest.approx(
            0.046875, abs=1e-15
        )

    def test_linearity_against_per_graph_count(self):
        # E[X_m] equals the graph-average of the per-graph k-matching count
        n, p, k, m = 4, 0.3, 2, 2
        matchings = orc.enumerate_matchings(n, m)

        def count_in_graph(g):
            total = 0
            for mm in matchings:
                if all(g.has_edge(u, v) for u, v in mm) and all(
                    distance_at_least(
                        g.adj, (1 << a[0]) | (1 << a[1]), (1 << b[0]) | (1 << b[1]), k
                    )
                    for a, b in combinations(mm, 2)
                ):
                    total += 1
            return total

        slots = len(orc.pair_slots(n))
        avg = math.fsum(
            count_in_graph(orc.MaskGraph(n, mask))
            * p ** mask.bit_count()
            * (1 - p) ** (slots - mask.bit_count())
            for mask in range(1 << slots)
        )
        assert orc.exact_expected_Xm(n, p, k, m) == pytest.approx(avg, abs=1e-13)

    def test_prefactor_matches_formula_with_exact_probability(self):
        # replace the probability main term by the oracle value; the
        # combinatorial prefactor C(n,2m) (2m)!/(2^m m!) must then match
        # E[X_m] exactly (all size-m matchings are equivalent by symmetry)
        for n, m in ((4, 2), (5, 2), (6, 3)):
            k, p = 2, 0.35
            members = [(2 * i, 2 * i + 1) for i in range(m)]
            prob = orc.exact_prob_k_matching(n, p, k, members)
            prefactor = (
                math.comb(n, 2 * m) * math.factorial(2 * m) // (2**m * math.factorial(m))
            )
            assert orc.exact_expected_Xm(n, p, k, m) == pytest.approx(
                prefactor * prob, rel=1e-12
            )


def profile_table(n, m):
    """The enumerated reference table with its keys as PairProfile."""
    return {PairProfile(*key): c for key, c in ref.pair_profile_table(n, m).items()}


class TestPairProfileTable:
    def test_n4_m1_reference(self):
        table = profile_table(4, 1)
        assert table == {
            PairProfile(0, 0, 1): 6,
            PairProfile(1, 0, 0): 6,
            PairProfile(0, 1, 0): 24,
        }

    def test_n2_m1(self):
        assert profile_table(2, 1) == {PairProfile(0, 0, 1): 1}

    def test_n5_m1_reference(self):
        table = profile_table(5, 1)
        assert table[PairProfile(0, 0, 1)] == 10
        assert table[PairProfile(0, 1, 0)] == 60
        assert table[PairProfile(1, 0, 0)] == 30

    def test_matches_closed_form_everywhere(self):
        for n in range(2, 7):
            for m in (1, 2):
                if 2 * m > n:
                    continue
                table = profile_table(n, m)
                for profile, count in table.items():
                    assert count == an.pair_count_exact(n, profile), (n, m, profile)
                # and the closed form is zero-consistent: feasible profiles
                # absent from the table really have count 0
                for r in range(m + 1):
                    for c_v in range(m - r + 1):
                        profile = PairProfile(r, c_v, m - r - c_v)
                        if 4 * r + 3 * c_v + 2 * profile.c_e <= n:
                            assert table.get(profile, 0) == an.pair_count_exact(
                                n, profile
                            ), (n, m, profile)


class TestUmkDistribution:
    def test_two_vertices(self):
        assert orc.exact_umk_distribution(2, 0.5, 2) == {0: 0.5, 1: 0.5}

    def test_three_vertices(self):
        got = orc.exact_umk_distribution(3, 0.5, 2)
        assert got[0] == pytest.approx(1 / 8)
        assert got[1] == pytest.approx(7 / 8)

    def test_distributions_sum_to_one(self):
        for n in (2, 3, 4):
            for p in (0.2, 0.6):
                got = orc.exact_umk_distribution(n, p, 2)
                assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_shifts_down(self):
        loose = orc.exact_umk_distribution(5, 0.5, 2)
        strict = orc.exact_umk_distribution(5, 0.5, 3)
        mean_loose = sum(s * q for s, q in loose.items())
        mean_strict = sum(s * q for s, q in strict.items())
        assert mean_strict <= mean_loose


class TestMonteCarloConsistency:
    def test_empirical_frequency_matches_oracle(self):
        # sampled graphs agree with enumeration within 3 binomial sigmas
        import kmatch as km

        n, p, k, trials = 5, 0.3, 2, 800
        target = orc.exact_prob_distance_ge_k(n, p, k, 0, 1)
        hits = 0
        for seed in range(trials):
            g = km.sample_gnp(km.GnpParams(n, p, seed))
            hits += km.vertex_distance(g, 0, 1) >= k
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(hits / trials - target) <= 3 * sigma


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_exact_matches_reference(self, n):
        p = Fraction(2, 7)
        for k in range(1, 5):
            assert orc.exact_umk_distribution(
                n, p, k, exact=True
            ) == ref.umk_distribution(n, p, k, exact=True), (n, k)
            for m in range(0, 4):
                assert orc.exact_expected_Xm(n, p, k, m, exact=True) == (
                    ref.expected_Xm(n, p, k, m, exact=True)
                ), (n, k, m)

    @pytest.mark.parametrize("k", (2, 3))
    def test_n6_matches_reference(self, k):
        p = Fraction(1, 2)
        assert orc.exact_umk_distribution(
            6, p, k, exact=True
        ) == ref.umk_distribution(6, p, k, exact=True)
        for m in range(1, 4):
            assert orc.exact_expected_Xm(6, p, k, m, exact=True) == (
                ref.expected_Xm(6, p, k, m, exact=True)
            ), m

    def test_bench_value(self):
        got = orc.exact_expected_Xm(6, Fraction(1, 2), 3, 2, exact=True)
        assert got == Fraction(2205, 16384)

    def test_float_within_1e15_of_exact(self):
        # each float weight float(p)^j (1-float(p))^(N-j) is a few ulps off
        # the exact one at the same p; the sum over them is rounded once
        for n in range(0, 6):
            for k in range(1, 5):
                for p in (0.3, 0.5, 0.85):
                    exact = orc.exact_umk_distribution(n, p, k, exact=True)
                    got = orc.exact_umk_distribution(n, p, k)
                    assert got.keys() == exact.keys()
                    for size, value in got.items():
                        assert type(value) is float
                        assert abs(value - float(exact[size])) <= 1e-15
                    for m in range(0, 4):
                        value = orc.exact_expected_Xm(n, p, k, m)
                        want = orc.exact_expected_Xm(n, p, k, m, exact=True)
                        assert type(value) is float
                        assert abs(value - float(want)) <= 1e-15 * max(1, want), (
                            n, k, p, m,
                        )

    def test_float_matches_reference(self):
        for n in range(2, 6):
            for k in (2, 3):
                got = orc.exact_umk_distribution(n, 0.3, k)
                want = ref.umk_distribution(n, 0.3, k)
                assert got.keys() == want.keys()
                for size in got:
                    assert abs(got[size] - want[size]) <= 1e-15
                value = orc.exact_expected_Xm(n, 0.3, k, 2)
                assert abs(value - ref.expected_Xm(n, 0.3, k, 2)) <= 1e-15

    @given(st.integers(0, 5), st.integers(1, 4), probabilities())
    @settings(max_examples=25, deadline=None)
    def test_umk_hypothesis(self, n, k, p):
        assert orc.exact_umk_distribution(
            n, p, k, exact=True
        ) == ref.umk_distribution(n, p, k, exact=True)

    @given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 3), probabilities())
    @settings(max_examples=40, deadline=None)
    def test_expected_Xm_hypothesis(self, n, k, m, p):
        assert orc.exact_expected_Xm(n, p, k, m, exact=True) == ref.expected_Xm(
            n, p, k, m, exact=True
        )

    @given(st.data(), st.integers(2, 5), st.integers(-1, 5), probabilities())
    @settings(max_examples=60, deadline=None)
    def test_events_against_predicates(self, data, n, k, p):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        got = orc.exact_prob_distance_ge_k(n, p, k, u, v, exact=True)
        want = orc.exact_event_probability(
            n, p, lambda g: distance_at_least(g.adj, 1 << u, 1 << v, k), exact=True
        )
        assert got == want
        order = data.draw(st.permutations(range(n)))
        m = data.draw(st.integers(0, n // 2))
        matching = [(order[2 * i + 1], order[2 * i]) for i in range(m)]
        got = orc.exact_prob_k_matching(n, p, k, matching, exact=True)
        assert got == reference_prob_k_matching(n, p, k, matching, exact=True)


class TestEdgeCases:
    def test_umk_tiny_graphs(self):
        for n in (0, 1):
            assert orc.exact_umk_distribution(n, 0.5, 2) == {0: 1}
            assert orc.exact_umk_distribution(n, Fraction(1, 3), 3, exact=True) == {
                0: 1
            }

    def test_umk_keys_include_zero_weight_sizes(self):
        got = orc.exact_umk_distribution(4, 1.0, 2)
        assert got == {0: 0.0, 1: 1.0, 2: 0.0}
        assert orc.exact_umk_distribution(4, 0.0, 2) == {0: 1.0, 1: 0.0, 2: 0.0}

    def test_umk_rejects_k0(self):
        for n in (0, 4):
            with pytest.raises(ValueError):
                orc.exact_umk_distribution(n, 0.5, 0)

    def test_expected_Xm_bounds(self):
        assert orc.exact_expected_Xm(5, 0.4, 2, 3) == 0.0
        assert orc.exact_expected_Xm(5, Fraction(2, 5), 2, 3, exact=True) == 0
        assert orc.exact_expected_Xm(5, Fraction(2, 5), 2, 0, exact=True) == 1
        assert orc.exact_expected_Xm(0, 0.4, 2, 0) == 1.0
        with pytest.raises(ValueError):
            orc.exact_expected_Xm(5, 0.4, 2, -1)

    def test_return_types(self):
        q = Fraction(1, 3)
        for m in (0, 1, 3):
            assert type(orc.exact_expected_Xm(4, q, 2, m, exact=True)) is Fraction
            assert type(orc.exact_expected_Xm(4, q, 2, m)) is float
        assert type(orc.exact_prob_distance_ge_k(4, q, 2, 0, 1, exact=True)) is Fraction
        assert type(orc.exact_prob_distance_ge_k(4, q, 2, 0, 1)) is float
        assert type(orc.exact_prob_k_matching(4, q, 2, [(0, 1)], exact=True)) is Fraction
        assert type(orc.exact_prob_k_matching(4, q, 2, [(0, 1)])) is float
        assert type(orc.exact_event_probability(3, q, bool, exact=True)) is Fraction
        assert type(orc.exact_event_probability(3, q, bool)) is float
        for size, value in orc.exact_umk_distribution(4, q, 2, exact=True).items():
            assert type(size) is int and type(value) is Fraction
        for size, value in orc.exact_umk_distribution(4, q, 2).items():
            assert type(size) is int and type(value) is float

    @pytest.mark.parametrize("p", [1.5, -0.5, 1 + 1e-12, -1e-300, Fraction(4, 3), math.nan])
    def test_p_outside_unit_interval_rejected(self, p):
        events = [
            lambda: orc.exact_prob_distance_ge_k(3, p, 2, 0, 1),
            lambda: orc.exact_prob_k_matching(4, p, 2, [(0, 1), (2, 3)]),
            lambda: orc.exact_expected_Xm(4, p, 2, 1),
            lambda: orc.exact_expected_Xm(4, p, 2, 0),
            lambda: orc.exact_expected_Xm(4, p, 2, 3),
            lambda: orc.exact_umk_distribution(3, p, 2),
            lambda: orc.exact_event_probability(3, p, bool),
        ]
        for event in events:
            with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
                event()

    def test_p_at_unit_interval_ends_accepted(self):
        for p in (0, 0.0, 1, 1.0, Fraction(0), Fraction(1)):
            assert orc.exact_prob_distance_ge_k(3, p, 2, 0, 1) == 1 - p
            assert sum(orc.exact_umk_distribution(3, p, 2).values()) == 1

    def test_distance_nonpositive_k_and_same_vertex(self):
        q = Fraction(3, 10)
        assert orc.exact_prob_distance_ge_k(4, q, 0, 1, 1, exact=True) == 1
        assert orc.exact_prob_distance_ge_k(4, q, -2, 0, 1, exact=True) == 1
        assert orc.exact_prob_distance_ge_k(4, q, 1, 1, 1, exact=True) == 0
        assert orc.exact_prob_distance_ge_k(4, q, 1, 0, 1, exact=True) == 1


class TestPackedWords:
    """The oracle packs 64 masks to a uint64 word; n <= 3 leaves padding bits
    in its one word, and n = 4 (64 masks) fills it exactly."""

    @pytest.mark.parametrize("n", range(0, 5))
    def test_exact_probabilities_sum_to_one(self, n):
        q = Fraction(2, 7)
        assert orc.exact_event_probability(n, q, lambda g: True, exact=True) == 1
        assert orc.exact_prob_k_matching(n, q, 2, [], exact=True) == 1
        for k in range(1, 5):
            assert sum(orc.exact_umk_distribution(n, q, k, exact=True).values()) == 1
            for m in range(0, 3):
                want = ref.expected_Xm(n, q, k, m, exact=True)
                assert orc.exact_expected_Xm(n, q, k, m, exact=True) == want
        for u in range(n):
            # k <= 0 holds in every mask, and so in every padding bit
            assert orc.exact_prob_distance_ge_k(n, q, 0, u, u, exact=True) == 1
            for v in range(n):
                assert orc.exact_prob_distance_ge_k(n, q, n, u, v, exact=True) + (
                    orc.exact_event_probability(
                        n, q, lambda g: not distance_at_least(g.adj, 1 << u, 1 << v, n),
                        exact=True,
                    )
                ) == 1

    @pytest.mark.parametrize("n", range(0, 5))
    def test_padding_bits_enter_no_histogram(self, n):
        reach, levels = orc._mask_tables(n)
        top = len(orc.pair_slots(n))
        assert levels.shape == (top + 1, 1) and reach.shape == (n, n, 1)
        # an event set in every bit, padding included, counts each mask once
        everything = np.full((1, 1), ~np.uint64(0))
        assert orc._histogram(n, everything).tolist() == [
            [math.comb(top, j) for j in range(top + 1)]
        ]
        padding = ~np.uint64((1 << (1 << top)) - 1) if top < 6 else np.uint64(0)
        assert orc._histogram(n, np.full((1, 1), padding)).sum() == 0
        assert not (np.bitwise_or.reduce(levels, axis=0) & padding).any()


class TestFloatsPinned:
    """The float outputs, repr for repr, as the one-byte-per-mask oracle that
    preceded the packed words returned them: each is the correctly rounded
    sum of c_j w_j, so a change of summation order or weights shows here."""

    @pytest.mark.parametrize(
        "p, k, want",
        [
            (0.3, 2, "{0: 0.004747561509942996, 1: 0.5029519847902466, "
             "2: 0.4866947323834046, 3: 0.005605721316404995}"),
            (0.3, 3, "{0: 0.004747561509942996, 1: 0.7615445235495564, "
             "2: 0.2281021936240948, 3: 0.005605721316404995}"),
            (0.5, 2, "{0: 3.0517578125e-05, 1: 0.587677001953125, "
             "2: 0.411834716796875, 3: 0.000457763671875}"),
            (0.5, 3, "{0: 3.0517578125e-05, 1: 0.943817138671875, "
             "2: 0.055694580078125, 3: 0.000457763671875}"),
        ],
    )
    def test_umk_distribution_n6(self, p, k, want):
        assert repr(orc.exact_umk_distribution(6, p, k)) == want

    @pytest.mark.parametrize("p, want", [(0.3, "0.5323450717840496"), (0.5, "0.13458251953125")])
    def test_expected_Xm_n6(self, p, want):
        assert repr(orc.exact_expected_Xm(6, p, 3, 2)) == want
