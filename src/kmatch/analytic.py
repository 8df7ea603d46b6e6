"""Closed-form size bounds, probability main terms, and counting formulas
for distance-k matchings in G(n,p), evaluated in log-space where magnitudes
demand it.

Conventions, fixed across the module:

* logarithms are natural;
* d = n*p is the expected degree and p_d = d^(k-1)/n the auxiliary
  probability (the main term of P[two vertices are within distance k-1]);
* everything is returned as a real number -- callers floor only at the
  point of use as a count;
* the overlap terms attached to the product bounds (``delta_bound`` below)
  are literal evaluations of the explicit summation upper bounds, not the
  exact dependency sums, so [U, U*exp(delta_bound)] always contains the
  corresponding exact probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AsymptoticParams",
    "BoundSet",
    "JansonBounds",
    "PairProfile",
    "RegimeError",
    "bounds",
    "check_f_monotone",
    "claim_a3_quadratic",
    "default_pair_count",
    "expected_num_k_matchings_log",
    "far_set_size_scale",
    "first_moment_exponent",
    "g_value",
    "generator_pair_target",
    "janson_matching",
    "janson_vertex_pair",
    "log_f_value",
    "pair_count_exact",
    "prob_distance_ge_k_main",
    "prob_k_matching_main_log",
    "second_moment_ratio_main_log",
    "solve_appendix_m",
]


class RegimeError(ValueError):
    """Raised when parameters leave the regime the formulas need
    (p_d >= 1, d <= 1, and the like)."""


@dataclass(frozen=True)
class AsymptoticParams:
    """The (n, d, p, k, p_d) bundle every formula below consumes.

    Construction checks internal consistency (d = n*p to machine
    precision); p_d = d^(k-1)/n is derived from d.  p_d < 1 -- the
    d^(k-1) = o(n) regime -- is enforced by the formulas that use a
    (1-p_d) factor, so the product bounds stay usable at tiny n where p_d
    can exceed 1.
    """

    n: int
    d: float
    p: float
    k: int

    def __post_init__(self) -> None:
        _require_vertices(self.n)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not math.isclose(self.d, self.n * self.p, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"d={self.d} inconsistent with n*p={self.n * self.p}")

    @property
    def p_d(self) -> float:
        return self.d ** (self.k - 1) / self.n

    @classmethod
    def from_nd(cls, n: int, d: float, k: int) -> "AsymptoticParams":
        _require_vertices(n)
        return cls(n=n, d=d, p=d / n, k=k)

    @classmethod
    def from_np(cls, n: int, p: float, k: int) -> "AsymptoticParams":
        _require_vertices(n)
        d = n * p
        return cls(n=n, d=d, p=p, k=k)


def _require_vertices(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def _require_sparse(params: AsymptoticParams) -> None:
    if params.p_d >= 1.0:
        raise RegimeError(
            f"p_d = d^(k-1)/n = {params.p_d} >= 1; need d^(k-1) < n"
        )


@dataclass(frozen=True)
class BoundSet:
    """The matching-size scales at one (n, d, k), all real-valued.

    upper / lower_maximal bracket the size of every maximal k-matching;
    generator_size_target is what the pair-and-repair generator reaches;
    m_star is the first-moment cutoff at slack eps; s is the generator's
    pair count; a_far is the expected far-set size for 2s sources.
    """

    upper: float
    lower_maximal: float
    generator_size_target: float
    m_star: float
    s: float
    a_far: float
    eps: float
    p_d: float


def _scale(params: AsymptoticParams) -> float:
    # n * ln d / d^(k-1), the unit in which all the size bounds live
    return params.n * math.log(params.d) / params.d ** (params.k - 1)


def bounds(params: AsymptoticParams, eps: float = 0.1) -> BoundSet:
    """All six size scales; requires d > 1, p_d < 1, and 0 < eps < k-1."""
    _require_sparse(params)
    if params.d <= 1.0:
        raise RegimeError(f"d must be > 1, got {params.d}")
    if not 0.0 < eps < params.k - 1:
        raise ValueError(f"eps must lie in (0, k-1), got {eps}")
    unit = _scale(params)
    return BoundSet(
        upper=params.k * unit / 2.0,
        lower_maximal=(params.k - 1) * unit / 4.0,
        generator_size_target=params.k * unit / 4.0,
        m_star=(params.k - 1 - eps) * unit / 4.0,
        s=generator_pair_target(params),
        a_far=far_set_size_scale(params),
        eps=eps,
        p_d=params.p_d,
    )


def generator_pair_target(params: AsymptoticParams) -> float:
    """Pair count s = n/(4 d^(k-1)) * [k ln d - 3 ln(k ln d)] used by the
    generator; real-valued, may be < 1 near the regime boundary."""
    if params.d <= 1.0:
        raise RegimeError(f"d must be > 1, got {params.d}")
    kld = params.k * math.log(params.d)
    return params.n / (4.0 * params.d ** (params.k - 1)) * (kld - 3.0 * math.log(kld))


def default_pair_count(params: AsymptoticParams) -> int:
    """The generator's pair count s: floor of ``generator_pair_target``,
    clamped to >= 1.  Callers choose the d: a graph sampled at a configured
    degree takes that d, a given graph its mean degree."""
    return max(1, math.floor(generator_pair_target(params)))


def far_set_size_scale(params: AsymptoticParams) -> float:
    """A = n/d^(k/2) * (k ln d)^(3/2): how many vertices sit at distance
    >= k from a typical set of 2s vertices."""
    if params.d <= 1.0:
        raise RegimeError(f"d must be > 1, got {params.d}")
    kld = params.k * math.log(params.d)
    return params.n / params.d ** (params.k / 2.0) * kld**1.5


def prob_distance_ge_k_main(params: AsymptoticParams) -> float:
    """Main term of P[d_G(u,v) >= k]: exactly 1-p at k=2, 1-p_d at k>=3
    (the exp[O(.)] correction is deliberately omitted; the enumeration
    oracle quantifies the gap at tiny n)."""
    if params.k >= 3:
        _require_sparse(params)
    return 1.0 - params.p if params.k == 2 else 1.0 - params.p_d


def prob_k_matching_main_log(params: AsymptoticParams, m: int) -> float:
    """log of the main term of P[a fixed size-m matching of K_n is a
    k-matching of G]: m ln p + 4*C(m,2) ln(1-q) with q = p at k=2 and
    q = p_d at k>=3."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if params.p <= 0.0:
        raise RegimeError("p must be > 0 for the log main term")
    q = params.p if params.k == 2 else params.p_d
    if q >= 1.0:
        raise RegimeError(f"pair penalty base 1-q <= 0 (q={q})")
    return m * math.log(params.p) + 2.0 * m * (m - 1) * math.log1p(-q)


def expected_num_k_matchings_log(params: AsymptoticParams, m: int) -> float:
    """log of the main term of E[number of size-m k-matchings]:
    ln[ C(n,2m) * (2m)!/(2^m m!) ] + the probability main term, with the
    combinatorial prefactor computed via log-gamma."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if 2 * m > params.n:
        raise ValueError(f"m={m} needs 2m <= n={params.n}")
    if m == 0:
        return 0.0
    count_log = (
        math.lgamma(params.n + 1)
        - math.lgamma(params.n - 2 * m + 1)
        - m * math.log(2.0)
        - math.lgamma(m + 1)
    )
    return count_log + prob_k_matching_main_log(params, m)


def first_moment_exponent(params: AsymptoticParams, m: float) -> float:
    """Per-edge exponent ln(e*d*n/(2m)) - 2(m-1)*p_d whose sign decides
    whether the expected k-matching count at size m explodes or vanishes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (
        1.0
        + math.log(params.d * params.n / (2.0 * m))
        - 2.0 * (m - 1.0) * params.p_d
    )


# ---------------------------------------------------------------------------
# Product bounds with explicit overlap terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JansonBounds:
    """Sandwich [u, u*exp(delta_bound)] for the probability that none of a
    family of mostly-independent path events occurs.  ``delta_bound`` is
    the literal summation upper bound on the pairwise overlap term."""

    u: float
    delta_bound: float

    @property
    def u_exp_delta(self) -> float:
        """u * exp(delta_bound): 0.0 when u is 0, +inf when it overflows."""
        if self.u == 0.0:
            return 0.0
        try:
            return self.u * math.exp(self.delta_bound)
        except OverflowError:
            pass
        try:  # exp alone overflowed; the product is finite only for tiny u
            return math.exp(math.log(self.u) + self.delta_bound)
        except OverflowError:
            return math.inf


def _log_u(params: AsymptoticParams, first: int) -> float:
    # log of (1-p) * prod_{i=2}^{k-1} (1-p^i)^{(n-first)...(n-first-i+2)}:
    # a path of length i between two fixed vertices runs through i-1 of the
    # n-first vertices outside the fixed ones
    n, p, k = params.n, params.p, params.k
    out = math.log1p(-p) if p < 1.0 else -math.inf
    for i in range(2, k):
        ways = 1.0
        for j in range(first, first + i - 1):
            ways *= n - j
        out += ways * math.log1p(-(p**i))
    return out


def _delta_bound(params: AsymptoticParams, weight: int, slots: int) -> float:
    # slots * sum_{li=2}^{k-1} n^(li-1) p^li * sum_{lj=li}^{k-1}
    #     sum_{t=1}^{li-1} C(li,t) * weight * n^(lj-t-1) p^(lj-t)
    # with the integer factors multiplied first
    n, p, k = params.n, params.p, params.k
    total = 0.0
    for li in range(2, k):
        inner = 0.0
        for lj in range(li, k):
            for t in range(1, li):
                inner += math.comb(li, t) * weight * n ** (lj - t - 1) * p ** (lj - t)
        total += slots * n ** (li - 1) * p**li * inner
    return total


def janson_vertex_pair(params: AsymptoticParams) -> JansonBounds:
    """Bounds on P[d_G(u,v) >= k] for a fixed vertex pair: the event that
    no connecting path of length <= k-1 appears.  At k=2 this is exactly
    (1-p, 0)."""
    return JansonBounds(
        u=math.exp(_log_u(params, 2)), delta_bound=_delta_bound(params, 1, 1)
    )


def janson_matching(params: AsymptoticParams, m: int) -> JansonBounds:
    """Bounds on P[no two edges of a fixed size-m matching of K_n are
    joined by a path of length <= k-1], i.e. the conditional probability
    that the matching is a k-matching given its edges are present: the
    vertex-pair bounds over the 4*C(m,2) endpoint pairs of distinct
    members, with path interiors avoiding the two members' endpoints."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pair_slots = 4 * math.comb(m, 2)
    log_u = _log_u(params, 4) * pair_slots
    return JansonBounds(
        u=math.exp(log_u) if pair_slots else 1.0,
        delta_bound=_delta_bound(params, 2 * m, pair_slots),
    )


# ---------------------------------------------------------------------------
# The first-moment weight f and its log-derivative g
# ---------------------------------------------------------------------------


def log_f_value(params: AsymptoticParams, x: float) -> float:
    """log of f(x) = (2 pi x)^(-1/2) (e d n / 2x)^x (1-p_d)^(2x(x-1)),
    the continuous stand-in for the expected count of size-x k-matchings."""
    _require_sparse(params)
    if x < 1.0:
        raise ValueError("x must be >= 1")
    return (
        -0.5 * math.log(2.0 * math.pi * x)
        + x * (1.0 + math.log(params.d * params.n / (2.0 * x)))
        + 2.0 * x * (x - 1.0) * math.log1p(-params.p_d)
    )


def g_value(params: AsymptoticParams, x: float) -> float:
    """d/dx log f(x) = -1/(2x) + ln(e d n / 2x) - 1 + (4x-2) ln(1-p_d);
    decreasing in x."""
    _require_sparse(params)
    if x < 1.0:
        raise ValueError("x must be >= 1")
    return (
        -0.5 / x
        + math.log(params.d * params.n / (2.0 * x))
        + (4.0 * x - 2.0) * math.log1p(-params.p_d)
    )


def check_f_monotone(params: AsymptoticParams) -> bool:
    """True iff log f is strictly increasing across 1000 evenly spaced
    points of [1, (k-1) n ln d / (4 d^(k-1))], the range on which
    monotonicity is claimed."""
    _require_sparse(params)
    hi = (params.k - 1) * _scale(params) / 4.0
    if hi <= 1.0:
        raise RegimeError("monotonicity range [1, (k-1)n ln d/4d^(k-1)] is empty")
    logf = [log_f_value(params, 1.0 + (hi - 1.0) * i / 999) for i in range(1000)]
    return all(a < b for a, b in zip(logf, logf[1:]))


# ---------------------------------------------------------------------------
# Exact pair counts and second-moment ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairProfile:
    """Intersection pattern of an ordered pair of size-m matchings:
    r disjoint rest-edges on each side, c_v single shared vertices, c_e
    shared edges, with r + c_v + c_e = m."""

    r: int
    c_v: int
    c_e: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.c_v < 0 or self.c_e < 0:
            raise ValueError("profile entries must be non-negative")

    @property
    def m(self) -> int:
        return self.r + self.c_v + self.c_e


def pair_count_exact(n: int, profile: PairProfile) -> int:
    """Exact number of ordered matching pairs with the given intersection
    profile (the two rest-edge sets fully vertex-disjoint from the other
    matching):

        n! / [ (r!)^2 c_e! c_v! (n - 4r - 3c_v - 2c_e)! ] * 2^(-2r - c_e)

    computed in exact integer arithmetic."""
    r, c_v, c_e = profile.r, profile.c_v, profile.c_e
    used = 4 * r + 3 * c_v + 2 * c_e
    if used > n:
        raise ValueError(f"profile {profile} needs {used} vertices, n={n}")
    num = math.factorial(n) // (
        math.factorial(r) ** 2
        * math.factorial(c_e)
        * math.factorial(c_v)
        * math.factorial(n - used)
    )
    count, rem = divmod(num, 1 << (2 * r + c_e))
    if rem:
        raise ArithmeticError(f"non-integral pair count for n={n}, {profile}")
    return count


def second_moment_ratio_main_log(
    params: AsymptoticParams, m: int, profile: PairProfile
) -> float:
    """log of the main term of E_{r,c_v,c_e} / E^2[X_m]:

        (m!)^2 n^-(2c_e+c_v) / [(r!)^2 c_e! c_v!] * 2^(2c_v+c_e)
        * p^-c_e * (1-p_d)^([4c_e + c_v - (2c_e+c_v)^2]/2)
    """
    _require_sparse(params)
    if profile.m != m:
        raise ValueError(f"profile {profile} does not sum to m={m}")
    if params.p <= 0.0:
        raise RegimeError("p must be > 0")
    r, c_v, c_e = profile.r, profile.c_v, profile.c_e
    shared = 2 * c_e + c_v
    out = 2.0 * math.lgamma(m + 1)
    out -= 2.0 * math.lgamma(r + 1) + math.lgamma(c_e + 1) + math.lgamma(c_v + 1)
    out -= shared * math.log(params.n)
    out += (2 * c_v + c_e) * math.log(2.0)
    out -= c_e * math.log(params.p)
    out += 0.5 * (4 * c_e + c_v - shared**2) * math.log1p(-params.p_d)
    return out


def solve_appendix_m(n: int) -> int:
    """Largest integer m >= 1 with m * 2^(m+1) <= n (the matching size at
    which the second-moment argument is run); n >= 4 required."""
    if n < 4:
        raise ValueError("need n >= 4 so that m=1 is feasible")
    lo, hi = 1, 1
    while hi * (1 << (hi + 1)) <= n:
        hi *= 2
    # invariant: lo feasible, hi infeasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * (1 << (mid + 1)) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def claim_a3_quadratic(params: AsymptoticParams, m: int, x: float) -> float:
    """The concave quadratic (1 - (2n/d^(k-1)) ln(2m/n)) x - 4 x^2 that
    lower-bounds the exponent of the shared-structure penalty in the
    second-moment ratio."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeff = 1.0 - 2.0 * params.n / params.d ** (params.k - 1) * math.log(
        2.0 * m / params.n
    )
    return coeff * x - 4.0 * x * x
