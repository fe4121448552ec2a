"""Exact decomposition builders.

Prime orders come from evaluating degree-(ell-1) polynomials over Z_n at the
colour indices 1..k: the coefficient tuples enumerate the blocks, and any ell
of the evaluation points determine the coefficients uniquely because the
corresponding Vandermonde matrix is invertible mod a prime >= k.  Composite
admissible orders are assembled from their prime factors with a Kronecker-style
product on symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BlockFamily, Params, check_size


@dataclass(frozen=True)
class PrimeFactorization:
    """(prime, exponent) pairs in increasing prime order; empty for 1."""

    factors: tuple[tuple[int, int], ...]


def factorize(n: int) -> PrimeFactorization:
    """Exact factorization by trial division; requires n >= 1."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: n >= 1 required")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            exp = 0
            while rest % p == 0:
                rest //= p
                exp += 1
            factors.append((p, exp))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return PrimeFactorization(tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


def smallest_blocking_prime(n: int, k: int) -> int | None:
    """Smallest prime factor of n below k, or None when n >= 1 is admissible for k.

    The smallest divisor d >= 2 of n is prime, so trial division by 2..k-1
    finds it without factoring n.
    """
    return next((d for d in range(2, k) if n % d == 0), None)


def vandermonde_blocks(k: int, n: int, ell: int) -> BlockFamily:
    """All n^ell polynomial-evaluation blocks over a prime order n >= k.

    For each coefficient tuple (a_1..a_ell) over residues {0..n-1}, the block
    symbol at colour c is (sum_j c^(j-1) * a_j mod n) + 1.  Any ell vertices in
    distinct colour classes pin the coefficients uniquely, so the family is an
    exact decomposition.
    """
    params = Params(k, n, ell)
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    if ell < 2:
        raise ValueError(f"ell >= 2 required for the polynomial construction (ell={ell})")
    if n < k:
        raise ValueError(f"n >= k required (n={n}, k={k})")
    if not is_prime(n):
        raise ValueError(f"n must be prime (n={n})")
    # row r of every column belongs to the r-th coefficient tuple in lexicographic order
    columns = []
    for c in range(1, k + 1):
        column = [1]
        for j in range(ell):
            step = pow(c, j, n)
            column = [(x - 1 + step * a) % n + 1 for x in column for a in range(n)]
        columns.append(column)
    return BlockFamily(params, tuple(sorted(zip(*columns))))


def product_decomposition(left: BlockFamily, right: BlockFamily) -> BlockFamily:
    """Combine exact families of orders p and q into one of order p*q.

    Pairs every left block with every right block; the combined symbol at
    colour i is (w_i - 1)*p + v_i, splitting each symbol of the product order
    into a (left, right) residue pair.  Exactness of both inputs is assumed,
    not re-verified.
    """
    if left.params.k != right.params.k:
        raise ValueError(f"k mismatch: {left.params.k} vs {right.params.k}")
    if left.params.ell != right.params.ell:
        raise ValueError(f"ell mismatch: {left.params.ell} vs {right.params.ell}")
    p = left.params.n
    params = Params(left.params.k, p * right.params.n, left.params.ell)
    blocks = [
        tuple((w - 1) * p + v for v, w in zip(x, y))
        for x in left.blocks
        for y in right.blocks
    ]
    return BlockFamily(params, tuple(sorted(blocks)))


def construct(k: int, n: int, ell: int) -> BlockFamily:
    """Exact decomposition for any order n >= k with no prime factor below k.

    Factors n, builds the prime-order family for each prime factor, and folds
    the exponents left-to-right through product_decomposition (factors in
    increasing prime order), yielding a canonical family of n^ell blocks.

    ell = 1 is accepted as a degenerate case for any k and n: the n constant
    blocks (a,..,a) hit every single vertex exactly once.  So is n = 1, which
    no prime divides: the single block (1,..,1) is all of G(k, 1).
    """
    params = Params(k, n, ell)
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    if ell == 1 or n == 1:
        return BlockFamily(params, tuple((a,) * k for a in range(1, n + 1)))
    if n < k:
        raise ValueError(f"n >= k required (n={n}, k={k})")
    blocking = smallest_blocking_prime(n, k)
    if blocking is not None:
        raise ValueError(f"prime {blocking} < k={k} divides n={n}")
    family: BlockFamily | None = None
    for prime, exponent in factorize(n).factors:
        base = vandermonde_blocks(k, prime, ell)
        for _ in range(exponent):
            family = base if family is None else product_decomposition(family, base)
    assert family is not None  # n >= k >= 2 has at least one prime factor
    return family
