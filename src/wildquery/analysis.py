"""Exact cost bounds for wildcard queries, evaluated in rational arithmetic.

Everything here is a pure function of small integers. Binomials come from
math.comb and averages are fractions.Fraction, so all equality checks
against enumerated measurements can be exact. Floats belong only in report
rendering, never here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import refuse_non_int
from .wildcard import Configuration, validate_configuration


def config_step_bound(m: int, w: int, positions: Configuration, k: int = 2) -> int:
    """Worst-case steps for one wildcard configuration, exact on full tries.

    For wildcard positions z_1 < ... < z_w this is
    m + sum_j 2 * k**(w-j) * (k-1) * z_j; with k=2 the weight reduces to
    2**(w-j+1).
    """
    if not (type(m) is int and type(w) is int and type(k) is int):
        refuse_non_int(m=m, w=w, k=k)
    positions = tuple(positions)
    if len(positions) != w:
        raise ValueError(f"expected {w} positions, got {positions}")
    validate_configuration(m, positions)
    if k < 2:
        raise ValueError(f"arity must be >= 2, got {k}")
    total = m
    for j, z in enumerate(positions, start=1):
        total += 2 * k ** (w - j) * (k - 1) * z
    return total


def wildcard_position_pmf(m: int, w: int, z: int, j: int) -> Fraction:
    """Probability that the j-th least significant wildcard sits at z.

    C(z-1, j-1) * C(m-z, w-j) / C(m, w); arguments outside the support
    give 0.
    """
    if not (type(m) is int and type(w) is int and type(z) is int
            and type(j) is int):
        refuse_non_int(m=m, w=w, z=z, j=j)
    if not (1 <= j <= w <= m and 1 <= z <= m):
        return Fraction(0)
    return Fraction(comb(z - 1, j - 1) * comb(m - z, w - j), comb(m, w))


def mean_step_bound(m: int, w: int, k: int = 2) -> Fraction:
    """Average of config_step_bound over uniform configurations, closed form.

    m + 2(m+1)/(w+1) * (k**(w+1) - (w+1)k + w)/(k-1), which at k=2 equals
    (m+1)/(w+1) * (2**(w+2) - 2w - 4) + m. By convention w=0 gives m, a
    plain search.
    """
    if not (type(m) is int and type(w) is int and type(k) is int):
        refuse_non_int(m=m, w=w, k=k)
    if k < 2:
        raise ValueError(f"arity must be >= 2, got {k}")
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    if w == 0:
        return Fraction(m)
    return m + Fraction(2 * (m + 1), w + 1) * Fraction(
        k ** (w + 1) - (w + 1) * k + w, k - 1
    )


def mean_step_bound_hypergeometric(m: int, w: int, k: int = 2) -> Fraction:
    """Same average written as the double sum over position and rank.

    m + sum_{z,j} j * 2 * k**(w-j) * (k-1) * C(z,j)C(m-z,w-j) / C(m,w),
    evaluated term by term. Agreement with mean_step_bound is the closed
    form identity the bound rests on.
    """
    if not (type(m) is int and type(w) is int and type(k) is int):
        refuse_non_int(m=m, w=w, k=k)
    if k < 2:
        raise ValueError(f"arity must be >= 2, got {k}")
    if not 1 <= w <= m:
        raise ValueError(f"need 1 <= w <= m, got w={w}, m={m}")
    denom = comb(m, w)
    total = Fraction(m)
    for j in range(1, w + 1):
        weight = 2 * k ** (w - j) * (k - 1)
        for z in range(1, m + 1):
            total += Fraction(j * weight * comb(z, j) * comb(m - z, w - j), denom)
    return total


def binomial_convolution_identity(m: int, w: int, j: int) -> tuple[int, int]:
    """Both sides of sum_z C(z,j)C(m-z,w-j) == C(m+1,w+1).

    The left side is summed directly over z = 0..m; the right side is a
    single binomial. Returned as (lhs, rhs) for the caller to compare.
    """
    if not (type(m) is int and type(w) is int and type(j) is int):
        refuse_non_int(m=m, w=w, j=j)
    if not 1 <= j <= w <= m:
        raise ValueError(f"need 1 <= j <= w <= m, got m={m}, w={w}, j={j}")
    lhs = sum(comb(z, j) * comb(m - z, w - j) for z in range(m + 1))
    rhs = comb(m + 1, w + 1)
    return lhs, rhs
