"""Acceptance gate: one test per numbered criterion, in order, each printing
a PASS/FAIL line (visible with ``pytest -s``).

Criteria 1-5 are exact (enumeration oracle vs closed forms, tolerance
1e-12); 6-10 are finite-size statistical bands (the asymptotic statements
themselves are not reproducible at desk scale); 11-13 are pure arithmetic
and byte-level reproducibility.

Criterion 12 checks that upper = k n ln d / (2 d^(k-1)) is the first-moment
threshold in the sense the paper states it, as d -> infinity.  With
m = c * upper and L = k ln d the per-edge exponent
ln(e d n / 2m) - 2(m-1) p_d equals 1 + L(1-c) - ln c - ln L + 2 p_d, which
decreases in c.  At c = 1 it is 1 - ln L + 2 p_d, negative once
ln L > 1 + 2 p_d; at c_lo = 1 - (ln L - 1)/L it is ln(1/c_lo) + 2 p_d > 0.
So its zero crossing c* lies in (c_lo, 1), below upper by a finite-size
offset of relative order ln(ln d)/ln d.  At
(n=1e6, d=100, k=2) the crossing sits at 0.88 * upper, so a +-5% probe
around upper brackets it only once (ln L - 1)/L <= 0.05 (ln d >= 31.4 at
k=2).  The test checks the bracket at the stated point and on a grid of d,
and applies the +-5% probes where the closed-form offset allows them.
"""

import math
from contextlib import contextmanager

import pytest

import kmatch as km
import kmatch.analytic as an
import kmatch.oracle as orc
from kmatch.analytic import AsymptoticParams, PairProfile
from kmatch.experiments import TrialConfig, derive_seed, emit, run_trials

from mask_reference import pair_profile_table

P_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
TOL = 1e-12


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_c01_janson_sandwich_exact():
    with criterion(1, "janson-sandwich-exact"):
        for n in range(2, 6):
            for k in (2, 3):
                for p in P_GRID:
                    j = an.janson_vertex_pair(AsymptoticParams.from_np(n, p, k))
                    for u in range(n):
                        for v in range(u + 1, n):
                            exact = orc.exact_prob_distance_ge_k(n, p, k, u, v)
                            assert j.u - TOL <= exact <= j.u_exp_delta + TOL
        for n in (5, 6):
            for k in (2, 3):
                for p in P_GRID:
                    j = an.janson_matching(AsymptoticParams.from_np(n, p, k), 2)
                    cond = orc.exact_prob_k_matching(n, p, k, [(0, 1), (2, 3)]) / p**2
                    assert j.u - TOL <= cond <= j.u_exp_delta + TOL


def test_c02_distance_probability_k2_exact():
    with criterion(2, "distance-prob-k2-exact"):
        for n in range(2, 6):
            for p in P_GRID:
                for u in range(n):
                    for v in range(u + 1, n):
                        got = orc.exact_prob_distance_ge_k(n, p, 2, u, v)
                        assert abs(got - (1.0 - p)) < TOL


def test_c03_matching_probability_k2_exact():
    with criterion(3, "matching-prob-k2-exact"):
        for p in P_GRID:
            got = orc.exact_prob_k_matching(4, p, 2, [(0, 1), (2, 3)])
            assert abs(got - p**2 * (1.0 - p) ** 4) < TOL


def profile_table(n, m):
    """The enumerated reference table with its keys as PairProfile."""
    return {PairProfile(*key): c for key, c in pair_profile_table(n, m).items()}


def test_c04_pair_profile_counts_exact():
    with criterion(4, "pair-profile-counts"):
        reference = profile_table(4, 1)
        assert reference == {
            PairProfile(0, 0, 1): 6,
            PairProfile(1, 0, 0): 6,
            PairProfile(0, 1, 0): 24,
        }
        for n in range(2, 7):
            for m in (1, 2):
                if 2 * m > n:
                    continue
                table = profile_table(n, m)
                for r in range(m + 1):
                    for c_v in range(m - r + 1):
                        profile = PairProfile(r, c_v, m - r - c_v)
                        if 4 * r + 3 * c_v + 2 * profile.c_e > n:
                            assert profile not in table
                            continue
                        assert table.get(profile, 0) == an.pair_count_exact(n, profile)


def test_c05_expected_count_prefactor():
    with criterion(5, "expected-count-prefactor"):
        assert abs(orc.exact_expected_Xm(3, 0.5, 2, 1) - 1.5) < TOL
        assert abs(orc.exact_expected_Xm(4, 0.5, 2, 2) - 0.046875) < TOL


@pytest.mark.slow
def test_c06_greedy_correctness_1000_trials():
    with criterion(6, "greedy-correctness"):
        n, d = 2000, 20.0
        for k in (2, 3):
            for i in range(1000):
                seed = derive_seed(20_260_000 + k, i)
                g = km.sample_gnp(km.GnpParams(n, d / n, derive_seed(seed, 0)))
                m = km.greedy_k_matching(g, k, derive_seed(seed, 1))
                assert km.is_k_matching(g, m)
                assert km.is_maximal_k_matching(g, m)
                assert km.gamma_independence_check(g, m)


@pytest.mark.slow
def test_c07_maximal_size_band_at_desk_scale():
    # band [(k-1)/4, k/2] = [0.25, 1.0] widened 20% for finite n
    with criterion(7, "maximal-size-band"):
        cfg = TrialConfig(
            n=10**6, d=50.0, k=2, trials=20, base_seed=1_000_007, algorithm="greedy"
        )
        records, summary = run_trials(cfg, workers=2)
        assert summary.success_rate == 1.0
        ratio = summary.bound_ratio_mean
        print(f"  mean size {summary.mean_size:.1f}, ratio {ratio:.4f}")
        assert 0.2 <= ratio <= 1.2


@pytest.mark.slow
def test_c08_generator_success_rate():
    with criterion(8, "generator-success"):
        params = AsymptoticParams.from_nd(10**5, 20.0, 2)
        s = math.floor(an.generator_pair_target(params))
        assert s == 775
        cfg = TrialConfig(
            n=10**5,
            d=20.0,
            k=2,
            trials=100,
            base_seed=1_000_008,
            algorithm="generator",
        )
        records, summary = run_trials(cfg, workers=2)
        # succeeded = stall-free, valid k-matching, size exactly s
        assert all(
            r.matching_size == s for r in records if r.succeeded
        )
        print(f"  successes {summary.successes}/100")
        assert summary.successes >= 99


@pytest.mark.slow
def test_c09_far_set_scale_and_induced_edge():
    with criterion(9, "far-set-scale"):
        params = AsymptoticParams.from_nd(10**5, 20.0, 2)
        a_value = an.far_set_size_scale(params)
        assert a_value == pytest.approx(
            10**5 / 20.0 * (2 * math.log(20.0)) ** 1.5, rel=1e-12
        )
        cfg = TrialConfig(
            n=10**5,
            d=20.0,
            k=2,
            trials=50,
            base_seed=1_000_009,
            algorithm="generator",
        )
        records, summary = km.verify_theorem_5_1(cfg, workers=2)
        print(
            f"  A={summary.a_value:.1f} mean ratio {summary.mean_far_ratio:.4f} "
            f"edge freq {summary.induced_edge_frequency:.2f}"
        )
        assert 0.5 <= summary.mean_far_ratio <= 2.0
        assert summary.induced_edge_frequency >= 0.95


@pytest.mark.slow
def test_c10_layer_growth_band():
    with criterion(10, "layer-growth"):
        cfg = TrialConfig(
            n=10**6,
            d=30.0,
            k=3,
            trials=20,
            base_seed=1_000_010,
            algorithm="generator",
        )
        records, summary = km.verify_layer_growth(cfg, workers=2)
        print(f"  layer-1 ratios in [{summary.min_ratio[1]:.4f}, {summary.max_ratio[1]:.4f}]")
        for r in records:
            assert r.auxiliary["layer_ratio_0"] == 1.0
            assert 0.8 <= r.auxiliary["layer_ratio_1"] <= 1.2


def test_c11_log_f_monotone_and_g_negative():
    with criterion(11, "log-f-monotone"):
        params = AsymptoticParams.from_nd(10**8, 100.0, 3)
        assert an.check_f_monotone(params)
        x = params.k * params.n * math.log(params.d) / (4 * params.d ** (params.k - 1))
        assert an.g_value(params, x) < 0.0


def _first_moment_offset(k: int, log_d: float) -> float:
    """(ln L - 1)/L with L = k ln d; c_lo = 1 - offset bounds c* from below."""
    kld = k * log_d
    return (math.log(kld) - 1.0) / kld


def _first_moment_crossing(params: AsymptoticParams, upper: float) -> float:
    """The c at which first_moment_exponent(c * upper) changes sign, by
    bisection on [0.1, 2] (the exponent decreases in m)."""
    lo, hi = 0.1, 2.0
    assert an.first_moment_exponent(params, lo * upper) > 0.0
    assert an.first_moment_exponent(params, hi * upper) < 0.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if an.first_moment_exponent(params, mid * upper) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _grid_point(k: int, log_d: float) -> tuple[AsymptoticParams, float]:
    # n = d^(k-1) * 1e12 keeps p_d = 1e-12 fixed along the grid
    d = math.exp(log_d)
    params = AsymptoticParams.from_nd(round(d ** (k - 1) * 1e12), d, k)
    return params, an.bounds(params).upper


def test_c12_first_moment_sign_flip_at_upper():
    # See the module docstring: the crossing c* lies in (c_lo, 1), and the
    # 0.95 * upper probe is positive only where the offset is <= 0.05.
    with criterion(12, "first-moment-sign-flip"):
        params = AsymptoticParams.from_nd(10**6, 100.0, 2)
        upper = an.bounds(params).upper
        c_lo = 1.0 - _first_moment_offset(2, math.log(100.0))
        c_star = _first_moment_crossing(params, upper)
        hi = an.first_moment_exponent(params, 1.05 * upper)
        print(f"  d=100: c_lo {c_lo:.4f} < c* {c_star:.4f} < 1; "
              f"exponent at 1.05*upper {hi:+.4f}")
        assert c_lo < c_star < 1.0
        assert hi < 0.0
        for c in (0.95, 1.05):
            assert an.expected_num_k_matchings_log(params, round(c * upper)) < 0.0

        log_ds = range(5, 61)
        for k in (2, 3):
            crossings = []
            for log_d in log_ds:
                params, upper = _grid_point(k, log_d)
                c_star = _first_moment_crossing(params, upper)
                assert 1.0 - _first_moment_offset(k, log_d) < c_star < 1.0
                crossings.append(c_star)
            assert all(a < b for a, b in zip(crossings, crossings[1:]))

            log_d = next(x for x in log_ds if _first_moment_offset(k, x) <= 0.05)
            params, upper = _grid_point(k, log_d)
            lo = an.first_moment_exponent(params, 0.95 * upper)
            hi = an.first_moment_exponent(params, 1.05 * upper)
            print(f"  k={k}, ln d={log_d}: exponent at 0.95*upper {lo:+.4f}, "
                  f"at 1.05*upper {hi:+.4f}")
            assert lo > 0.0
            assert hi < 0.0


def test_c13_reproducibility_byte_identical_csv(tmp_path):
    with criterion(13, "reproducibility"):
        configs = [
            TrialConfig(
                n=3000, d=12.0, k=2, trials=8, base_seed=77, algorithm="greedy"
            ),
            TrialConfig(
                n=1500,
                d=8.0,
                k=2,
                trials=6,
                base_seed=78,
                algorithm="generator",
                s_override=12,
            ),
        ]
        for idx, cfg in enumerate(configs):
            paths = [tmp_path / f"run{idx}_{j}.csv" for j in range(2)]
            for j, path in enumerate(paths):
                records, summary = run_trials(cfg, workers=1 + j)
                emit(records, summary, "csv", str(path), cfg)
            assert paths[0].read_bytes() == paths[1].read_bytes()
