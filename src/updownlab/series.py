"""Geometrically convergent central-binomial series with algebraic weights.

Covers the three denominator families binom(2k,k)^3, binom(2k,k)^2 binom(3k,k),
and binom(2k,k)^2 binom(4k,2k), the Fibonacci/Lucas variants, and the weighted
series whose linear-in-k constants come from modular invariants at CM points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Tuple

import mpmath
from mpmath import libmp, mp, mpc, mpf

from .numerics import (
    MAX_TERMS,
    DomainError,
    MixedRadicandError,
    PrecisionContext,
    QuadraticNumber,
    embed_quadratic,
    kept_table,
    to_fixed,
)
from .modular import (
    _as_mpc,
    _in_region,
    eichler_e4_tilde,
    satisfies_region,
    series_constants_from_cm,
)
from .modular import alpha_n, legendre_ramanujan_r  # noqa: F401 (perfbench traces them here)


class SeriesFamily(enum.Enum):
    """Denominator family. denom(k-1) / denom(k) = k^3 / den_k with
    den_k = c (2k-1)(ak-1)(ak-a+1); ``scale`` = 2 c a^2 is the growth rate
    of the denominator."""

    CENTRAL3 = ("CENTRAL3", 8, 2)
    C2X3K = ("C2x3K", 6, 3)
    C2X4K = ("C2x4K", 8, 4)

    def __init__(self, tag: str, c: int, a: int):
        self.tag = tag
        self.c = c
        self.a = a
        self.scale = 2 * c * a * a

    def ratio(self, k: int) -> Tuple[int, int]:
        """denom(k-1) / denom(k) as the exact small-integer pair (k^3, den_k),
        with denom(0) = 1."""
        a = self.a
        return k**3, self.c * (2 * k - 1) * (a * k - 1) * (a * k - a + 1)

    def ratio_table(self, size: int) -> tuple:
        """The exact pairs ((k-1)^3, den_k) of the terms k = 1..size, with
        0^3 read as 1 (the series loop starts from t_0 = 1), in tuples of
        _BLOCK, the last one filled up to a whole block."""
        return tuple(tuple(((k - 1) ** 3 or 1, self.ratio(k)[1]) for k in range(b, b + _BLOCK))
                     for b in range(1, size + 1, _BLOCK))


_FAMILY_BY_LEVEL = {2: SeriesFamily.C2X4K, 3: SeriesFamily.C2X3K, 4: SeriesFamily.CENTRAL3}


@dataclass(frozen=True)
class UpsideDownSeries:
    """sum_{k>=1} (a*k - b) m^k / (k^3 * denom(k)) with exact algebraic data."""

    family: SeriesFamily
    a: QuadraticNumber
    b: QuadraticNumber
    m: QuadraticNumber


@dataclass(frozen=True)
class FibLucasSeries:
    """sum_k [(p k + q) F_{8k} + (r k + s) L_{8k} + (t k + u) F_{8k-1}]
    / (k^3 binom(2k,k)^3).

    The F_{8k-1} weights (t, u) cover transcriptions that eliminate the Lucas
    numbers; they default to zero.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    s: Fraction
    t: Fraction = Fraction(0)
    u: Fraction = Fraction(0)


# Terms per block of the series loop. The rounding count of
# _sum_linear_series needs g <= den_1 (8, 12 or 24); blocks of 12 and 16
# terms measured within run-to-run noise of 8 at 300 and 1000 digits.
_BLOCK = 8

# Plain terms that one CRVZ term costs (the cost rule of
# _sum_linear_series), and the accuracy in nats that each CRVZ term gains.
_CRVZ_COST = 6
_CRVZ_RATE = math.log(3 + math.sqrt(8))


def _ratio_blocks(family: SeriesFamily, K: int):
    """The pairs of terms 1..K in tuples of _BLOCK, the last one shorter when
    _BLOCK does not divide K, read from the family's kept ratio table
    (numerics.kept_table), which every loop on the family shares."""
    table = kept_table(family.ratio_table, K)
    whole, rest = divmod(K, _BLOCK)
    yield from table[:whole]
    if rest:
        yield table[whole][:rest]


def _crvz_weights(n: int):
    """(d, weights) of CRVZ Algorithm 1 on n terms: d = T_n(3), the rational
    part of (3 + 2 sqrt2)^n, and an iterator over the weights
    e_{k-1} = |b_k| + ... + |b_n| of the terms k = 1..n, where |b_0| = 1 and
    |b_{j+1}| = 2 (n+j)(n-j) |b_j| / ((2j+1)(j+1)) divides exactly: the |b_j|
    are those of the coefficients of T_n(1 - 2x), which sum to T_n(3) = d."""
    d, y = 1, 0
    for _ in range(n):
        d, y = 3 * d + 4 * y, 2 * d + 3 * y

    def weights():
        e, b = d - 1, 1
        for j in range(n):
            yield e
            b = 2 * b * (n + j) * (n - j) // ((2 * j + 1) * (j + 1))
            e -= b

    return d, weights()


def _term_count(r: float, gap: float, a1: float, a2: float,
                family: SeriesFamily, ctx: PrecisionContext) -> int:
    """The least K whose tail bound |s_1| r^K (a1 (K+1) / gap^2 + a2 / gap),
    gap = 1 - r, is at most ctx.eps (see _sum_linear_series), by fixed-point
    steps on its logarithm in floats, plus one term for their rounding; 1
    when the bound is 0. OverflowError when the floats cannot hold it."""
    lin, const = a1 / gap / gap, a2 / gap
    big = max(lin, const)
    if math.isinf(big):
        raise OverflowError
    K = 1
    if r and big:
        # K >= (log(|s_1| (lin (K+1) + const)) - log eps) / -log r, with
        # |s_1| = r scale / den_1. The right side grows with K, so the
        # steps rise to its least fixed point and stop there.
        rate = -math.log(r) if r < 0.5 else -math.log1p(-gap)
        top = (math.log(big) + math.log(family.scale / family.ratio(1)[1])
               + ctx.dps * math.log(10) - rate)
        w1, w0 = lin / big, const / big
        last = 0
        while K != last:
            step = (top + math.log(w1 * (K + 1) + w0)) / rate
            last, K = K, max(K, math.ceil(step))
        K += 1
    return K


def _crvz_count(r: float, a1: float, a2: float, family: SeriesFamily,
                ctx: PrecisionContext) -> int:
    """The least n whose CRVZ bound 2 |s_1| (a1 + a2) / (3 + sqrt 8)^n,
    |s_1| = r scale / den_1, is at most ctx.eps (see _sum_linear_series), in
    floats, plus one term for their rounding. OverflowError when the floats
    cannot hold it."""
    head = 2 * r * family.scale / family.ratio(1)[1] * (a1 + a2)
    if not head:
        return 1
    return max(0, math.ceil((math.log(head) + ctx.dps * math.log(10)) / _CRVZ_RATE)) + 1


def _is_real(*values) -> bool:
    """Whether every value is an mpf, not an mpc."""
    return mpc not in map(type, values)


def _plan(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext):
    """(terms, crvz, P) of _sum_linear_series: the term count, whether the
    loop sums by CRVZ, and the bits of its fixed point."""
    with ctx.working():
        r = abs(m) / family.scale
        if r >= 1:
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(r)}")
        exact = (r, 1 - r, abs(c1), abs(c2), abs(m))
        r, gap, a1, a2, am = plan = [float(v) for v in exact]
        underflow = any(v and not f for f, v in zip(plan, exact))
        base = libmp.dps_to_prec(ctx.bumped().dps)
    crvz = False
    try:
        if underflow:
            raise OverflowError
        terms = _term_count(r, gap, a1, a2, family, ctx)
        if terms > _CRVZ_COST and _is_real(c1, c2, m) and m._mpf_[0]:  # sign bit: m < 0
            n = _crvz_count(r, a1, a2, family, ctx)
            crvz = _CRVZ_COST * n < terms
            terms = n if crvz else terms
        if terms > MAX_TERMS:
            raise DomainError(f"series needs {terms} terms at {ctx.dps} digits, "
                              f"more than MAX_TERMS = {MAX_TERMS}")
        prec = (base + int(5 * terms * (a1 * terms + a2 + 1) / gap).bit_length()
                + _BLOCK * max(0, math.frexp(am)[1]))
    except OverflowError:
        raise DomainError(f"series plan leaves the float range: "
                          f"r, 1 - r, |c1|, |c2|, |m| = {plan}") from None
    return terms, crvz, prec


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext):
    """(value, K): sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) = c1 S_2 - c2 S_3
    for mpf/mpc coefficients, where S_j = sum_k m^k / (k^j denom(k)), over a
    term count K fixed before the loop by _plan: the plain loop's count, or
    CRVZ's n for an alternating real series where that costs less.

    The loop runs on Python ints scaled by 2^P, single ints when c1, c2 and
    m are all mpf, Gaussian pairs otherwise, in blocks of g = _BLOCK terms.
    Term k = bg + i of block b (i = 1..g) is s_k = m^k / (k^3 denom(k)), and
    the block carries t_k = s_k / m^i, which advances by the family's
    small-integer ratio alone: t_k = t_{k-1} (k-1)^3 / den_k, one product by
    (k-1)^3 and one floor division by den_k, both read from the family's
    table (_ratio_blocks), not rebuilt from k. Lane i adds t_k to its share
    of S_3, lane3[i]. Its share of S_2, the sum of k t_k = (bg + i) t_k,
    comes from prefix sums instead of a product k t_k per term: with B
    blocks and acc[i] the sum of lane3[i] as it stood at the start of each
    block after the first, sum_b b t_{bg+i} = (B-1) lane3[i] - acc[i], so
    lane i of S_2 is g ((B-1) lane3[i] - acc[i]) + i lane3[i] =
    k_i lane3[i] - g acc[i], with k_i = g (B-1) + i, an exact integer
    identity. One full-width product, by m^g, closes the block: it turns
    the last t into s_{bg+g}, from which the next block starts. The lanes
    join once at the end, S_j = sum_i lane_j[i] m^i, on m^2 .. m^g taken by
    repeated products, and c1 and c2 apply once: about K/g + 3g full-width
    products instead of K.

    Tail: |s_{k+1} / s_k| = |m| k^3 / den_{k+1} < r = |m| / scale, as
    (2k+1)(ak+a-1)(ak+1) > 2 a^2 k^3, so |s_k| <= |s_1| r^(k-1) with
    |s_1| = |m| / den_1, and the terms after K sum to at most
    |s_1| r^K (|c1| (K+1) / (1-r)^2 + |c2| / (1-r)). _term_count finds K.

    CRVZ: Cohen, Rodriguez Villegas & Zagier, "Convergence acceleration of
    alternating series" (Experimental Math. 9, 2000), Algorithm 1. For real
    m < 0, with j = k - 1, S_3 = -sum_j (-1)^j a_j and S_2 = -sum_j (-1)^j
    a'_j, where a_j = |s_{j+1}| and a'_j = (j+1) a_j. On n terms the
    algorithm takes sum_j (-1)^j a_j to sum_j c_j a_j / d with d = T_n(3)
    and c_j = (-1)^j e_j, so the lanes add e_{k-1} t_k instead of t_k, with
    the exact integer weights 0 < e_{k-1} < d of _crvz_weights, and the sum
    is divided by d once. Its error is at most 2 A / (3 + sqrt 8)^n, where
    A = sum_j (-1)^j a_j <= a_0, when a_j = int_0^1 x^j dmu(x) for some
    measure mu >= 0, a Hausdorff moment sequence. Both lanes are:
    - S_3: binom(2k,k) = 4^k Gamma(k+1/2) / (sqrt(pi) k!), and Gauss's
      multiplication formula for binom(3k,k) and binom(4k,2k), give
      1 / (k^3 denom(k)) = C scale^-k prod_i Gamma(k) / Gamma(k+beta_i),
      C > 0, with beta = {1/2, 1/2, 1/2}, {1/2, 1/3, 2/3} or {1/2, 1/4, 3/4}.
      Each Gamma(j+1) / Gamma(j+1+beta) = int_0^1 x^j (1-x)^(beta-1) dx /
      Gamma(beta) is a Beta moment, r^j is the moment of the point mass at r,
      and a product of moment sequences is one (the image of the product
      measure under (x, y) -> x y). So a_j is one.
    - S_2: a'_j = k a_j = C r^k Gamma(k) / Gamma(k+1/2) G(k), k = j + 1,
      with G(k) = Gamma(k) Gamma(k+1) / (Gamma(k+beta_2) Gamma(k+beta_3))
      and beta_2 + beta_3 = 1. From psi(x) = int_0^oo (e^-t / t -
      e^(-xt) / (1 - e^-t)) dt, -(log G)'(k) = int_0^oo e^(-kt)
      (1 + e^-t - e^(-beta_2 t) - e^(-beta_3 t)) / (1 - e^-t) dt, and the
      numerator is >= 0 by Karamata's inequality for the convex
      u -> e^(-ut), as (0, 1) majorizes (beta_2, beta_3). So -(log G)' is
      completely monotone; G' = G (log G)' and Leibniz's rule make G so too,
      and by Bernstein's theorem G(k) = int_0^oo e^(-ku) dnu(u), nu >= 0,
      so G(j+1) is the moment sequence of e^-u dnu(u) carried to x = e^-u.
      So a'_j is one.
    Both a_0 and a'_0 are |s_1|, so c1 S_2 - c2 S_3 is off by at most
    2 |s_1| (|c1| + |c2|) / (3 + sqrt 8)^n, and _crvz_count finds n.

    Cost rule: the loop sums by CRVZ when m < 0 in the real branch and
    _CRVZ_COST n < K, both counts known before the loop. A CRVZ term pays
    one more full-width product, e_{k-1} t_k, and one step of the weights:
    on b6, c3 and b7 it measured 2.8-4.2 plain terms at 40 and 300 digits,
    5.1-6.3 at 1000 and 6.4-7.6 at 2000 (process time, best of 3-30 runs,
    one core of a 2-vCPU Xeon), and _CRVZ_COST = 6 sits between. In the
    corpus K / n is 22-34 for b6 and c3 and at most 2.1 elsewhere (b7), so
    the rule picks exactly b6 and c3. The count returned is the one summed:
    n for CRVZ.

    Rounding, in ulps of 2^-P, each truncation under sqrt 2 in modulus. Let
    M = 2^(g e) >= max(1, |m|)^g, with e the binary exponent of |m| in the
    float plan (|m| < 2^e). An error x in t_k is x |m|^i < x M in s_k. Each
    term's division adds under sqrt2 M to s_k, and the chain carries the
    error on times less than r, as |m| (k-1)^3 / den_k < r. The rounded m^i
    are off by at most sqrt2 (1 + |m| + ... + |m|^(i-2)); times |t_k| that
    is under sqrt2 (g-1) max(1, |m|) / den_1 < sqrt2 M, as g <= den_1 and
    |t_k| = |s_k| / |m|^i with |s_k| <= |s_1| = |m| / den_1 if |m| >= 1,
    |t_k| <= 1 / den_1 if |m| < 1. So each product closing a block adds
    under 2 sqrt2 M, S_3 is off by under sqrt2 M K ((1 + 2/g) / (1-r) + 1)
    + sqrt2 and S_2 by K times that, and c1 S_2 - c2 S_3, truncated once
    more, by under 5 M K (|c1| K + |c2| + 1) / (1-r) ulps. Under CRVZ the
    lanes hold e_{k-1} t_k exactly for the computed t_k, so after the
    division by d each term's error is the plain one's times
    e_{k-1} / d < 1, the truncations by 2^P shrink to 1/d ulp, and the
    division adds one ulp: the same count with K = n holds, since its
    factor 5 leaves more than one ulp to spare. P is the bits of
    ctx.bumped().dps plus the bits of that count: the g max(0, e) guard bits
    of M, for the |m|^i of the join, and those of 5 K (|c1| K + |c2| + 1) /
    (1-r).

    Real c1, c2 and m give an mpf, the fixed-point sum unrounded, anything
    else an mpc rounded at ctx's working precision. DomainError if
    the series diverges, if the plan leaves the float range, or if K exceeds
    MAX_TERMS.
    """
    K, crvz, prec = _plan(c1, c2, m, family, ctx)
    g = _BLOCK
    if _is_real(c1, c2, m):
        c1r, c2r, mr = (libmp.to_fixed(v._mpf_, prec) for v in (c1, c2, m))
        powers = [mr]
        for _ in range(min(g, K) - 1):
            powers.append((powers[-1] * mr) >> prec)
        d, weights = _crvz_weights(K) if crvz else (1, None)
        lane3, acc = [0] * g, [0] * g
        t = 1 << prec
        for b, pairs in enumerate(_ratio_blocks(family, K)):
            if b:
                t = (t * powers[-1]) >> prec
                acc = list(map(add, acc, lane3))
            if weights is None:
                for i, (cube, den) in enumerate(pairs):
                    t = t * cube // den
                    lane3[i] += t
            else:
                for i, ((cube, den), e) in enumerate(zip(pairs, weights)):
                    t = t * cube // den
                    lane3[i] += e * t
        last = range(g * b + 1, g * b + g + 1)  # the k of each lane in the last block
        u = list(map(mul, lane3, powers))
        s3 = sum(u) >> prec
        s2 = (sum(map(mul, last, u)) - g * sum(map(mul, acc, powers))) >> prec
        return mpmath.ldexp(((c1r * s2 - c2r * s3) >> prec) // d, -prec), K
    (c1r, c1i), (c2r, c2i), (mr, mi) = (to_fixed(v, prec) for v in (c1, c2, m))
    powers = [(mr, mi)]
    for _ in range(g - 1):
        pr, pi = powers[-1]
        powers.append(((pr * mr - pi * mi) >> prec, (pr * mi + pi * mr) >> prec))
    wr, wi = powers[-1]
    l3r, l3i, accr, acci = ([0] * g for _ in range(4))
    tr, ti = 1 << prec, 0
    for b, pairs in enumerate(_ratio_blocks(family, K)):
        if b:
            tr, ti = (tr * wr - ti * wi) >> prec, (tr * wi + ti * wr) >> prec
            accr, acci = list(map(add, accr, l3r)), list(map(add, acci, l3i))
        for i, (cube, den) in enumerate(pairs):
            tr = tr * cube // den
            ti = ti * cube // den
            l3r[i] += tr
            l3i[i] += ti

    def join(lr, li):
        """lane[i] m^i, exact, as the lists of real and of imaginary parts."""
        return ([xr * pr - xi * pi for xr, xi, (pr, pi) in zip(lr, li, powers)],
                [xr * pi + xi * pr for xr, xi, (pr, pi) in zip(lr, li, powers)])

    last = range(g * b + 1, g * b + g + 1)
    (ur, ui), (ar, ai) = join(l3r, l3i), join(accr, acci)
    s3r, s3i = sum(ur) >> prec, sum(ui) >> prec
    s2r = (sum(map(mul, last, ur)) - g * sum(ar)) >> prec
    s2i = (sum(map(mul, last, ui)) - g * sum(ai)) >> prec
    total_r = (c1r * s2r - c1i * s2i - c2r * s3r + c2i * s3i) >> prec
    total_i = (c1r * s2i + c1i * s2r - c2r * s3i - c2i * s3r) >> prec
    with ctx.working():
        return mpc(mpmath.ldexp(total_r, -prec), mpmath.ldexp(total_i, -prec)), K


# m = phi^8 and psi^8 for phi, psi = (1 +- sqrt5)/2, with 1/phi and 1/sqrt5.
_PHI8 = QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5)
_PSI8 = _PHI8.conjugate()
_INV_PHI = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
_INV_SQRT5 = QuadraticNumber(0, Fraction(1, 5), 5)


def _fib_halves(s: FibLucasSeries):
    """The CENTRAL3 series (c1, c2, m) whose sum is ``s``, m = phi^8 and psi^8.

    With L_n = F_n + 2 F_{n-1} and Binet's F_n = (phi^n - psi^n)/sqrt5, the
    numerator is (f1 k + f0) F_{8k} + (g1 k + g0) F_{8k-1}, and F_{8k-1} takes
    root^(8k) / root from each root's power. The psi^8 half is the Galois
    conjugate of the phi^8 half.
    """
    f1, f0 = s.p + s.r, s.q + s.s
    g1, g0 = 2 * s.r + s.t, 2 * s.s + s.u
    c1 = (f1 + g1 * _INV_PHI) * _INV_SQRT5
    c2 = -(f0 + g0 * _INV_PHI) * _INV_SQRT5
    return (c1, c2, _PHI8), (c1.conjugate(), c2.conjugate(), _PSI8)


def evaluate_series_sum(terms, ctx: PrecisionContext) -> Tuple[mpf, int]:
    """(value, terms_used): the real value of sum weight * series over
    (weight, series) pairs, with QuadraticNumber weights and UpsideDownSeries
    or FibLucasSeries.

    An UpsideDownSeries is one part c1 S_2(m) - c2 S_3(m) on its family's
    base sums; a FibLucasSeries is two CENTRAL3 parts, its phi^8 and psi^8
    halves. The weighted (c1, c2) of the parts that share a family and an
    exact m are summed exactly, in one quadratic field (DomainError if none
    holds them), and each group with c1 or c2 not 0 runs one loop on c1, c2
    and m embedded once on ctx.bumped(). terms_used sums the terms that the
    loops summed: K for the plain loop, n for one summed by CRVZ (see
    _sum_linear_series).
    """
    groups = {}
    for weight, s in terms:
        if isinstance(s, UpsideDownSeries):
            family, parts = s.family, ((s.a, s.b, s.m),)
        else:
            family, parts = SeriesFamily.CENTRAL3, _fib_halves(s)
        for a, b, m in parts:
            c1, c2 = groups.get((family, m), (0, 0))
            try:
                groups[family, m] = (c1 + weight * a, c2 + weight * b)
            except MixedRadicandError as exc:
                raise DomainError(f"series terms with m = {m}: {exc}") from None
    wide = ctx.bumped()
    with ctx.working():
        total, terms_used = mpf(0), 0
        for (family, m), (c1, c2) in groups.items():
            if c1 or c2:
                c1, c2, m = (embed_quadratic(v, wide) for v in (c1, c2, m))
                value, K = _sum_linear_series(c1, c2, m, family, ctx)
                total, terms_used = total + value.real, terms_used + K
    return total, terms_used


def evaluate_updown(s, ctx: PrecisionContext) -> mpf:
    """Real value of one UpsideDownSeries or FibLucasSeries (both halves)."""
    return evaluate_series_sum(((QuadraticNumber(1), s),), ctx)[0]


evaluate_fib_series = evaluate_updown


def sigma_gr(z, N: int, ctx: PrecisionContext):
    """Complex value of the weighted series at an admissible CM point."""
    z = _as_mpc(z, ctx)
    c1, c2, m = series_constants_from_cm(z, N, ctx)
    with ctx.working():
        admissible = _in_region(z, N, c1 / 2, ctx)
    if not admissible:
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    return _sum_linear_series(c1, c2, m, _FAMILY_BY_LEVEL[N], ctx)[0]


def sigma_gr_im_rhs(z, N: int, ctx: PrecisionContext) -> mpf:
    """Closed form for Im of the weighted series: a cubic polynomial in the
    coordinates of z plus a weighted real part of the iterated integral of
    1 - E_4, with the convention sign(0) = 0 in the shifted abscissa."""
    z = _as_mpc(z, ctx)
    if not satisfies_region(z, N, ctx):
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    with ctx.working():
        x, y = z.real, z.imag
        xt = x if x == 0 else x - x / (2 * abs(x))
        poly = 4 * mp.pi**2 / (3 * y) * xt * (
            xt**2 + 3 * y**2 + mpf(12 - N) / (4 * N)
        )
        e_term = (eichler_e4_tilde(N * z, ctx) - N * eichler_e4_tilde(z, ctx)).real
        return poly + 4 * mp.pi**2 * e_term / (N * (N**2 - 1) * y)
