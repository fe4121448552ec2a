import random
from itertools import product

import pytest

from helpers import first_projection_offense

from partite import (
    BlockFamily,
    Params,
    Verdict,
    construct,
    factorize,
    is_decomposition,
    product_decomposition,
    vandermonde_blocks,
)
from partite.cli import format_blocks
from partite.construct import smallest_blocking_prime


def test_factorize_distinct_primes():
    assert factorize(35).factors == ((5, 1), (7, 1))


def test_factorize_prime_power():
    assert factorize(49).factors == ((7, 2),)


def test_factorize_one_is_empty():
    assert factorize(1).factors == ()


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError, match="n >= 1"):
        factorize(0)


def test_factorize_reconstructs_every_small_integer():
    for n in range(1, 300):
        factors = factorize(n).factors
        value = 1
        for p, e in factors:
            assert all(p % q for q in range(2, p))  # p prime
            value *= p**e
        assert value == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_polynomial_family_order3_frozen():
    family = vandermonde_blocks(3, 3, 2)
    assert family.blocks == (
        (1, 1, 1), (1, 2, 3), (1, 3, 2),
        (2, 1, 3), (2, 2, 2), (2, 3, 1),
        (3, 1, 2), (3, 2, 1), (3, 3, 3),
    )


@pytest.mark.parametrize(
    "k, n, ell", [(2, 2, 2), (3, 3, 2), (5, 7, 3), (7, 11, 2), (4, 5, 4), (11, 13, 3)]
)
def test_polynomial_evaluation_matches_independent_recompute(k, n, ell):
    # independent evaluation of (a_1 + a_2*c + ... ) mod n, symbol-shifted
    family = vandermonde_blocks(k, n, ell)
    expected = set()
    for coeffs in product(range(n), repeat=ell):
        block = tuple(
            sum(a * c**j for j, a in enumerate(coeffs)) % n + 1
            for c in range(1, k + 1)
        )
        expected.add(block)
    assert set(family.blocks) == expected
    assert len(family.blocks) == n**ell


def test_zero_coefficients_give_all_ones_block():
    assert (1, 1) in vandermonde_blocks(2, 2, 2).blocks


def test_polynomial_family_rejects_composite_order():
    with pytest.raises(ValueError, match="prime"):
        vandermonde_blocks(4, 6, 2)


def test_builders_refuse_sizes_above_the_limit():
    # 10007 is prime and admissible, so only the size stops these
    with pytest.raises(ValueError, match=r"k\*n\^l = 3\*10007\^3 exceeds the size limit"):
        vandermonde_blocks(3, 10007, 3)
    with pytest.raises(ValueError, match="size limit"):
        construct(3, 10007, 3)


def test_polynomial_family_rejects_order_below_k():
    with pytest.raises(ValueError, match="n >= k"):
        vandermonde_blocks(5, 3, 2)


def test_polynomial_family_rejects_strength_one():
    with pytest.raises(ValueError, match="ell >= 2"):
        vandermonde_blocks(3, 3, 1)


def test_every_vertex_subset_lies_in_exactly_one_polynomial_block():
    # brute-force solve: enumerate all coefficient tuples and count matches
    rng = random.Random(905)
    k, n, ell = 5, 5, 2
    family = vandermonde_blocks(k, n, ell)
    for _ in range(25):
        colours = sorted(rng.sample(range(1, k + 1), ell))
        values = [rng.randint(1, n) for _ in range(ell)]
        containing = [
            coeffs
            for coeffs in product(range(n), repeat=ell)
            if all(
                sum(a * c**j for j, a in enumerate(coeffs)) % n + 1 == v
                for c, v in zip(colours, values)
            )
        ]
        assert len(containing) == 1
        coeffs = containing[0]
        block = tuple(
            sum(a * c**j for j, a in enumerate(coeffs)) % n + 1
            for c in range(1, k + 1)
        )
        assert block in family.blocks


def test_product_of_two_prime_families_is_exact():
    base = vandermonde_blocks(3, 3, 2)
    combined = product_decomposition(base, base)
    assert combined.params == Params(3, 9, 2)
    assert len(combined.blocks) == 81
    assert first_projection_offense(combined) is None


def test_product_with_order_one_family_is_neutral():
    left = vandermonde_blocks(3, 5, 2)
    right = BlockFamily(Params(3, 1, 2), ((1, 1, 1),))
    assert product_decomposition(left, right).blocks == left.blocks


def test_product_combines_symbols_pairwise():
    left = vandermonde_blocks(3, 5, 2)
    right = vandermonde_blocks(3, 3, 2)
    combined = product_decomposition(left, right)
    rng = random.Random(77)
    for _ in range(10):
        x = rng.choice(left.blocks)
        y = rng.choice(right.blocks)
        merged = tuple((w - 1) * 5 + v for v, w in zip(x, y))
        assert merged in combined.blocks


def test_product_rejects_mismatched_parameters():
    a = vandermonde_blocks(3, 3, 2)
    b = vandermonde_blocks(4, 5, 2)
    with pytest.raises(ValueError, match="k mismatch"):
        product_decomposition(a, b)
    c = vandermonde_blocks(3, 5, 3)
    with pytest.raises(ValueError, match="ell mismatch"):
        product_decomposition(a, c)


# n = 1 is admissible for every k (no prime divides it): one block, (1, ..., 1)
@pytest.mark.parametrize(
    "k,n,ell", [(5, 5, 2), (3, 9, 2), (4, 25, 2), (4, 5, 3), (5, 35, 2), (2, 1, 2), (8, 1, 5)]
)
def test_construct_outputs_are_exact(k, n, ell):
    family = construct(k, n, ell)
    assert len(family.blocks) == n**ell
    assert family.is_canonical
    assert is_decomposition(family).verdict is Verdict.EXACT


@pytest.mark.parametrize(
    "k,n,prime", [(6, 10, 2), (4, 6, 2), (5, 9, 3)]
)
def test_construct_names_the_blocking_prime(k, n, prime):
    with pytest.raises(ValueError, match=f"prime {prime} "):
        construct(k, n, 2)


def test_construct_rejects_order_below_k():
    with pytest.raises(ValueError, match="n >= k"):
        construct(5, 3, 2)


def test_construct_strength_one_gives_constant_blocks():
    family = construct(4, 6, 1)
    assert family.blocks == tuple((a,) * 4 for a in range(1, 7))
    assert first_projection_offense(family) is None


def test_construct_is_deterministic():
    a = construct(4, 25, 2)
    b = construct(4, 25, 2)
    assert a == b
    assert format_blocks(a) == format_blocks(b)


def test_smallest_blocking_prime_matches_factorization():
    for k in range(1, 25):
        for n in range(1, 1000):
            factorised = next((p for p, _ in factorize(n).factors if p < k), None)
            assert smallest_blocking_prime(n, k) == factorised, (n, k)
