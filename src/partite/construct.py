"""Exact decomposition builders.

Prime orders come from evaluating degree-(ell-1) polynomials over Z_n at the
colour indices 1..k: each block is the polynomial through its symbols at
colours 1..ell, and any ell of the evaluation points determine the polynomial
uniquely because the corresponding Vandermonde matrix is invertible mod a
prime >= k.  Composite admissible orders are assembled from their prime
factors with a Kronecker-style product on symbols.
Every builder works in columns: `construct` scatters them once into one sorted
row-major array (`verify._sorted_rows`), which backs one range-checked family.
`_exact_columns` can fold its symbols onto a smaller order where its last step
builds each run, which is how `cover.build_covering` gets its columns, and
`product_decomposition` sorts its rows through `core._sorted_symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod

from .core import BlockFamily, Params, check_size
from .verify import _sorted_rows


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


def _vandermonde_columns(k: int, p: int, ell: int, top: int) -> list:
    """The columns of vandermonde_blocks(k, p, ell) folded onto 1..top, as iterators.

    Row r is the r-th (x_1..x_ell).  Each column is built one Lagrange step
    at a time.  A step replaces every symbol x by its p successors
    (x - 1 + L_i(c) * a mod p) + 1, a run built once for each symbol the
    column holds, so the first step builds one run.  The last step folds its
    runs, v -> (v - 1) mod top + 1, and chains them.
    """
    # each i - j is a unit mod p, as 0 < |i - j| < ell <= p
    columns = []
    for c in range(1, k + 1):
        column = [1]
        for i, fold in enumerate([p] * (ell - 1) + [top], start=1):
            step = prod((c - j) * pow(i - j, -1, p) for j in range(1, ell + 1) if j != i) % p
            runs = {x: [(x - 1 + step * a) % p % fold + 1 for a in range(p)] for x in set(column)}
            column = (list if i < ell else iter)(chain.from_iterable(map(runs.__getitem__, column)))
        columns.append(column)
    return columns


def _product_columns(left, right, p: int, top: int) -> list:
    """Iterator columns of the product of left (order p) and right, folded onto 1..top.

    Input columns are reread.  Row (i, j) pairs left row i with right row j: a
    column chains the right column shifted by each left symbol v and folded,
    a run built once per distinct v.
    """
    columns = []
    for left_column, runs in zip(left, right):
        shifted = {v: [(v - 1 + (w - 1) * p) % top + 1 for w in runs] for v in set(left_column)}
        columns.append(chain.from_iterable(map(shifted.__getitem__, left_column)))
    return columns


def _exact_columns(k: int, n: int, ell: int, top: int | None = None) -> list:
    """construct(k, n, ell)'s columns folded onto 1..top (by default n), rows in no order.

    The fold, v -> (v - 1) mod top + 1, is applied where the last step builds
    each run once per distinct symbol: the last Lagrange step of a prime n,
    else the last product's shifted runs.  So no pass maps every symbol.  The
    columns are iterators, except the ranges (or folded lists) of ell = 1 or n = 1.
    """
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    top = n if top is None else top
    if ell == 1 or n == 1:
        return [range(1, n + 1) if top == n else [v % top + 1 for v in range(n)]] * k
    if n < k:
        raise ValueError(f"n >= k required (n={n}, k={k})")
    blocking = smallest_blocking_prime(n, k)
    if blocking is not None:
        raise ValueError(f"prime {blocking} < k={k} divides n={n}")
    # the product folds n's primes in increasing order, so the largest, q, comes last
    q = factorize(n).factors[-1][0]
    if q == n:
        return _vandermonde_columns(k, n, ell, top)
    right = map(list, _vandermonde_columns(k, q, ell, q))
    return _product_columns(map(list, _exact_columns(k, n // q, ell)), right, n // q, top)


def vandermonde_blocks(k: int, n: int, ell: int) -> BlockFamily:
    """All n^ell polynomial-evaluation blocks over a prime order n >= k, sorted.

    Each block is the polynomial of degree < ell through its residues
    x_1..x_ell at colours 1..ell: the symbol at colour c is
    (sum_i L_i(c) * x_i mod n) + 1 for the Lagrange basis L_i over the nodes
    1..ell.  Any ell vertices in distinct colour classes pin the polynomial,
    so the family is exact.  As L_i(c) = [i = c] for c <= ell, colours 1..ell
    run through the grid in lexicographic order: the rows come out sorted.
    """
    Params(k, n, ell)
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    if ell < 2:
        raise ValueError(f"ell >= 2 required for the polynomial construction (ell={ell})")
    if n < k:
        raise ValueError(f"n >= k required (n={n}, k={k})")
    if not is_prime(n):
        raise ValueError(f"n must be prime (n={n})")
    return construct(k, n, ell)


def product_decomposition(left: BlockFamily, right: BlockFamily) -> BlockFamily:
    """Combine exact families of orders p and q into one of order p*q.

    Pairs every left block with every right block; the combined symbol at
    colour i is (w_i - 1)*p + v_i, splitting each symbol of the product order
    into a (left, right) residue pair.  Exactness of both inputs is assumed,
    not re-verified.  One row sort (`core._sorted_symbols`) orders the rows of
    _product_columns; repeated rows are kept.
    """
    if left.params.k != right.params.k:
        raise ValueError(f"k mismatch: {left.params.k} vs {right.params.k}")
    if left.params.ell != right.params.ell:
        raise ValueError(f"ell mismatch: {left.params.ell} vs {right.params.ell}")
    p = left.params.n
    params = Params(left.params.k, p * right.params.n, left.params.ell)
    columns = (map(family._column, range(1, params.k + 1)) for family in (left, right))
    return BlockFamily._sorted(params, _product_columns(*columns, p, params.n))


def construct(k: int, n: int, ell: int) -> BlockFamily:
    """Exact decomposition for any order n >= k with no prime factor below k.

    Folds the prime-order columns of n's prime factors left to right through
    the symbol product (factors in increasing prime order), then scatters
    them by their keys at colours 1..ell into n^ell canonical rows, which the
    family holds as one row-major array.

    ell = 1 is accepted as a degenerate case for any k and n: the n constant
    blocks (a,..,a) hit every single vertex exactly once.  So is n = 1, which
    no prime divides: the single block (1,..,1) is all of G(k, 1).
    """
    params, columns = Params(k, n, ell), _exact_columns(k, n, ell)
    symbols = _sorted_rows(lambda c: columns[c - 1], k, ell, n)
    return BlockFamily._from_symbols(params, symbols, set(symbols))
