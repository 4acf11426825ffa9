import math

import pytest
from hypothesis import given, strategies as st

from kummer_moduli import moduli
from kummer_moduli.arith import factorize, is_quadratic_residue


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 5 * 7 * 7) == {2: 1, 3: 1, 5: 1, 7: 2}
    with pytest.raises(ValueError):
        factorize(0)


def _is_prime(p):
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


@given(st.integers(1, 10**5))
def test_factorize_rebuilds_l(l):
    factors = factorize(l)
    assert math.prod(p**e for p, e in factors.items()) == l
    assert all(_is_prime(p) and e >= 1 for p, e in factors.items())


def test_quadratic_residue_examples():
    assert is_quadratic_residue(1, 8)
    assert not is_quadratic_residue(2, 3)
    assert is_quadratic_residue(1, 4)
    assert is_quadratic_residue(7, 1)
    assert is_quadratic_residue(7, 2)


@given(st.integers(1, 3000))
def test_phi_counts_coprime_residues(l):
    # phi lives in moduli._halved_power_count: with t1 = 1 and rho(2) = 1 it is phi(w)
    assert moduli._halved_power_count(l, 1, 2) == sum(
        1 for x in range(1, l + 1) if math.gcd(x, l) == 1
    )


def _primes_of(x):
    return set(factorize(x))


@given(st.integers(1, 600), st.integers(1, 600))
def test_split_w_reconstructs(w, t1):
    # the w_plus/w_minus split that _halved_power_count applies to w
    w_plus = math.prod(p**e for p, e in factorize(w).items() if t1 % p == 0)
    w_minus = w // w_plus
    assert w_plus * w_minus == w
    assert _primes_of(w_plus) <= _primes_of(t1)
    assert not (_primes_of(w_minus) & _primes_of(t1))
    phi_minus = sum(1 for x in range(1, w_minus + 1) if math.gcd(x, w_minus) == 1)
    assert moduli._halved_power_count(w, t1, 2) == w_plus * phi_minus


@given(st.integers(0, 500), st.integers(1, 100))
def test_square_is_always_residue(x, m):
    assert is_quadratic_residue(x * x, m)
