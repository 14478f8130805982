"""Exact integer arithmetic in rings of roots of unity.

Elements of Z[zeta_k] are kept as integer coefficient vectors over the
spanning set zeta_k^0 .. zeta_k^{k-1}.  That representation is redundant
(the relations of the k-th cyclotomic polynomial identify different
vectors), so equality and zero tests go through reduction modulo Phi_k:
a vector represents zero exactly when the remainder of its polynomial
after division by Phi_k vanishes.  Phi_k is monic with integer
coefficients, so the division is exact integer arithmetic and the test
is complete - no floating-point fallback is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_k, constant term first."""
    if k < 1:
        raise ValueError("order must be positive")
    # (x^k - 1) / prod_{d | k, d < k} Phi_d, by exact polynomial division.
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d:
            continue
        divisor = cyclotomic_polynomial(d)
        quot = [0] * (len(poly) - len(divisor) + 1)
        rem = list(poly)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(divisor) - 1]
            quot[i] = c
            for j, bj in enumerate(divisor):
                rem[i + j] -= c * bj
        if any(rem):
            raise AssertionError(f"Phi_{d} does not divide x^{k}-1")
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(k: int) -> np.ndarray:
    """deg(Phi_k) x k integer matrix sending spanning-set vectors to the power basis mod Phi_k."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    mat = np.zeros((deg, k), dtype=np.int64)
    rep = np.zeros(deg, dtype=np.int64)
    rep[0] = 1
    for j in range(k):
        mat[:, j] = rep
        lead = rep[deg - 1]
        rep = np.roll(rep, 1)
        rep[0] = 0
        if lead:
            rep = rep - lead * np.asarray(phi[:deg], dtype=np.int64)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class CyclotomicInt:
    """Element of Z[zeta_k] as integer coefficients of zeta_k^0 .. zeta_k^{k-1}."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if len(self.coeffs) != self.order:
            raise ValueError(f"need {self.order} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @staticmethod
    def zero(k: int) -> "CyclotomicInt":
        return CyclotomicInt(k, (0,) * k)

    @staticmethod
    def from_int(k: int, n: int) -> "CyclotomicInt":
        return CyclotomicInt(k, (n,) + (0,) * (k - 1))

    @staticmethod
    def from_root(k: int, exponent: int) -> "CyclotomicInt":
        c = [0] * k
        c[exponent % k] = 1
        return CyclotomicInt(k, tuple(c))

    def _require_same_order(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed root orders {self.order} and {other.order}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._require_same_order(other)
        return CyclotomicInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._require_same_order(other)
        return CyclotomicInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._require_same_order(other)
        k = self.order
        out = [0] * k
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % k] += a * b
        return CyclotomicInt(k, tuple(out))

    def conj(self) -> "CyclotomicInt":
        k = self.order
        out = [0] * k
        for j, c in enumerate(self.coeffs):
            out[(-j) % k] += c
        return CyclotomicInt(k, tuple(out))

    def reduced(self) -> tuple[int, ...]:
        """Canonical coordinates in the power basis 1, zeta, ..., zeta^{deg(Phi_k)-1}."""
        vec = reduction_matrix(self.order) @ np.asarray(self.coeffs, dtype=np.int64)
        return tuple(int(v) for v in vec)

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        if self.order != other.order:
            return False
        return (self - other).is_zero()

    def __hash__(self) -> int:
        return hash((self.order, self.reduced()))

    def norm_sq(self) -> "CyclotomicInt":
        """Self times its complex conjugate (a totally real element)."""
        return self * self.conj()

    def to_complex(self) -> complex:
        k = self.order
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        return complex(np.dot(np.asarray(self.coeffs, dtype=float), roots))

    def __repr__(self) -> str:
        terms = [f"{c}*z{self.order}^{j}" for j, c in enumerate(self.coeffs) if c]
        return "CyclotomicInt(0)" if not terms else "CyclotomicInt(" + " + ".join(terms) + ")"


@dataclass(frozen=True)
class RootVector:
    """The vector (zeta_k^{e_0}, ..., zeta_k^{e_{N-1}}), before any 1/sqrt(N) normalization."""

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "exponents", tuple(int(e) % self.order for e in self.exponents))

    def __len__(self) -> int:
        return len(self.exponents)

    def to_complex(self, normalized: bool = False) -> np.ndarray:
        v = np.exp(2j * np.pi * np.asarray(self.exponents) / self.order)
        return v / np.sqrt(len(v)) if normalized else v


def root_inner(a: RootVector, b: RootVector) -> CyclotomicInt:
    """Exact inner product sum_j conj(a_j) b_j in Z[zeta_k]."""
    if a.order != b.order:
        raise ValueError(f"mixed root orders {a.order} and {b.order}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    k = a.order
    out = [0] * k
    for ea, eb in zip(a.exponents, b.exponents):
        out[(eb - ea) % k] += 1
    return CyclotomicInt(k, tuple(out))


def is_orthogonal(a: RootVector, b: RootVector) -> bool:
    return root_inner(a, b).is_zero()


def is_unbiased_exact(a: RootVector, b: RootVector) -> bool:
    """Exact test |<a|b>|^2 = N, i.e. the normalized vectors have overlap squared 1/N."""
    inner = root_inner(a, b)
    n = len(a)
    return (inner.norm_sq() - CyclotomicInt.from_int(a.order, n)).is_zero()


def lift_order(v: RootVector, k_new: int) -> RootVector:
    """Rewrite a root vector in a larger compatible root order (k_new divisible by k)."""
    if k_new % v.order:
        raise ValueError(f"cannot lift order {v.order} into {k_new}")
    f = k_new // v.order
    return RootVector(k_new, tuple(e * f for e in v.exponents))
