import numpy as np
import pytest

from mubtools.cyclotomic import (
    CyclotomicInt,
    RootVector,
    cyclotomic_polynomial,
    is_orthogonal,
    is_unbiased_exact,
    lift_order,
    root_inner,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_k_minus_1():
    """prod_{d | k} Phi_d(x) = x^k - 1, checked by exact integer convolution, not by Phi_k's own recursion."""
    for k in (*range(1, 201), 9870, 10000):
        product = np.ones(1, dtype=np.int64)
        for d in (d for d in range(1, k + 1) if k % d == 0):
            phi = np.array(cyclotomic_polynomial(d), dtype=np.int64)
            # no coefficient of the convolution can exceed this bound, so int64 is exact
            assert int(np.abs(product).sum()) * int(np.abs(phi).max()) < 2**63, (k, d)
            product = np.convolve(product, phi)
        expected = np.zeros(k + 1, dtype=np.int64)
        expected[[0, k]] = -1, 1
        assert np.array_equal(product, expected), k


def test_arithmetic_closure_and_conjugation():
    one = CyclotomicInt.from_int(12, 1)
    z = CyclotomicInt.from_root(12, 1)
    prod = (one + z) * (one - z)
    assert prod == one - z * z
    assert z.conj().conj() == z
    # conj distributes over products
    w = CyclotomicInt.from_root(12, 5) + CyclotomicInt.from_int(12, 2)
    assert (z * w).conj() == z.conj() * w.conj()


def test_negation_equality_hash_and_repr():
    x = CyclotomicInt(3, (1, 0, -2))
    assert (-x).coeffs == (-1, 0, 2)
    assert x + -x == CyclotomicInt.zero(3)
    # 1 + z3 + z3^2 = 0: equal elements written with different coefficients hash alike
    ones = CyclotomicInt(3, (1, 1, 1))
    assert ones == CyclotomicInt.zero(3)
    assert hash(ones) == hash(CyclotomicInt.zero(3))
    assert len({ones, CyclotomicInt.zero(3), CyclotomicInt.from_int(3, 1)}) == 2
    # an int compares as that integer in Z[zeta_k]
    assert CyclotomicInt(3, (3, 1, 1)) == 2
    assert ones == 0
    assert CyclotomicInt.from_int(3, 2) != 3
    # neither another type nor another order is ever equal
    assert CyclotomicInt.from_int(3, 1).__eq__(1.0) is NotImplemented
    assert CyclotomicInt.from_int(3, 1) != "1"
    assert CyclotomicInt.from_int(3, 1) != CyclotomicInt.from_int(6, 1)
    assert repr(CyclotomicInt.zero(3)) == "CyclotomicInt(0)"
    assert repr(x) == "CyclotomicInt(1*z3^0 + -2*z3^2)"


def test_vanishing_sums():
    for p in (2, 3, 5, 7):
        total = CyclotomicInt.zero(p)
        for j in range(p):
            total = total + CyclotomicInt.from_root(p, j)
        assert total.is_zero()
    # 2 (1 + z6^2 + z6^4) = 0
    s = CyclotomicInt(6, (2, 0, 2, 0, 2, 0))
    assert s.is_zero()
    assert (CyclotomicInt.from_root(8, 0) + CyclotomicInt.from_root(8, 4)).is_zero()
    assert not (CyclotomicInt.from_int(12, 1) + CyclotomicInt.from_root(12, 1)).is_zero()


def test_to_complex_matches_reduction():
    rng = np.random.default_rng(9)
    for k in (3, 4, 6, 8, 12, 24, 30, 105):  # Phi_105 is the first with a coefficient -2
        for _ in range(50):
            coeffs = tuple(int(c) for c in rng.integers(-3, 4, size=k))
            x = CyclotomicInt(k, coeffs)
            assert x.is_zero() == (abs(x.to_complex()) < 1e-9)


def test_root_inner_self_is_length():
    v = RootVector(12, (0, 3, 7, 1, 11, 5))
    assert root_inner(v, v) == CyclotomicInt.from_int(12, 6)


def test_root_inner_examples():
    ones = RootVector(6, (0,) * 6)
    full = RootVector(6, (0, 1, 2, 3, 4, 5))
    assert root_inner(ones, full).is_zero()
    doubled = RootVector(6, (0, 2, 4, 0, 2, 4))
    assert root_inner(ones, doubled).is_zero()


def test_root_inner_conjugate_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = RootVector(12, tuple(rng.integers(0, 12, size=6)))
        b = RootVector(12, tuple(rng.integers(0, 12, size=6)))
        assert root_inner(a, b) == root_inner(b, a).conj()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order"):
        root_inner(RootVector(6, (0, 1)), RootVector(12, (0, 1)))


def test_fourier_columns_orthogonal_exactly():
    n = 5
    cols = [RootVector(n, tuple((a * b) % n for a in range(n))) for b in range(n)]
    for i in range(n):
        for j in range(n):
            assert is_orthogonal(cols[i], cols[j]) == (i != j)


def test_unbiasedness_convention_on_f6_columns():
    # distinct Fourier columns are orthogonal, equal ones have |inner|^2 = N^2;
    # neither counts as unbiased under |inner|^2 = N
    n = 6
    cols = [RootVector(n, tuple((a * b) % n for a in range(n))) for b in range(n)]
    for i in range(n):
        for j in range(n):
            assert not is_unbiased_exact(cols[i], cols[j])
            inner = root_inner(cols[i], cols[j])
            expected = n * n if i == j else 0
            assert inner.norm_sq() == CyclotomicInt.from_int(n, expected)


def test_gauss_sequence_unbiased_to_fourier_columns():
    # the 12th-root sequence exp(2 pi i 7 a^2 / 12) is unbiased to every
    # Fourier column once both sides live in order 12
    n = 6
    gauss = RootVector(12, tuple((7 * a * a) % 12 for a in range(n)))
    for b in range(n):
        col = lift_order(RootVector(n, tuple((a * b) % n for a in range(n))), 12)
        assert is_unbiased_exact(gauss, col)


def test_exact_vs_float_cross_check():
    rng = np.random.default_rng(123)
    trials_per_combo = 10**4 // 8
    for k in (3, 4, 6, 8, 12, 24):
        for n in (4, 6):
            exps = rng.integers(0, k, size=(trials_per_combo, 2, n))
            for ea, eb in exps:
                a = RootVector(k, tuple(int(v) for v in ea))
                b = RootVector(k, tuple(int(v) for v in eb))
                ip = np.vdot(a.to_complex(normalized=True), b.to_complex(normalized=True))
                assert is_orthogonal(a, b) == (abs(ip) < 1e-9)
                assert is_unbiased_exact(a, b) == (abs(abs(ip) ** 2 - 1 / n) < 1e-9)


def test_lift_order_roundtrip():
    v = RootVector(6, (0, 1, 2, 3, 4, 5))
    w = lift_order(v, 24)
    assert np.allclose(v.to_complex(), w.to_complex())
    with pytest.raises(ValueError):
        lift_order(v, 9)
