"""Exact integer arithmetic in rings of roots of unity.

Elements of Z[zeta_k] are kept as integer coefficient vectors over the
spanning set zeta_k^0 .. zeta_k^{k-1}.  That representation is redundant
(the relations of the k-th cyclotomic polynomial identify different
vectors), so equality and zero tests reduce modulo Phi_k by one batched
long-division remainder (`_phi_remainder`): Phi_k is monic, so it is exact
integer arithmetic, with no floating-point fallback.  The same remainder
decides the one batched test |1 + sum_j zeta_k^(e_j)|^2 == t
(`_norm_sq_is`) behind the searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np


def _prime_factors(k: int) -> list[int]:
    primes, p = [], 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return primes + ([k] if k > 1 else [])


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


@lru_cache(maxsize=8)
def _unit_roots(k: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_k, constant term first.

    For the radical r of k, Phi_k(x) = Phi_r(x^(k/r)), and for squarefree r
    Phi_r = prod_{d | r} (x^d - 1)^mu(r/d).  The mu = +1 factors are multiplied
    in by shift-and-subtract; each mu = -1 factor is then divided out exactly
    by one strided cumulative sum, since P / (x^d - 1) = -P (1 + x^d + x^2d + ...).
    """
    if k < 1:
        raise ValueError("order must be positive")
    primes = _prime_factors(k)
    # every intermediate is Phi_r times at most 2^(w-1) binomials x^d - 1: int64 holds it for w <= 6 primes
    poly = np.ones(1, dtype=np.int64 if len(primes) <= 6 else object)
    factors = [(prod(sub), (len(primes) - size) % 2)
               for size in range(len(primes) + 1) for sub in combinations(primes, size)]
    for d, odd in sorted(factors, key=lambda f: f[1]):  # mu(r/d) = +1 (even count) first
        if not odd:
            pad = np.zeros(d, dtype=poly.dtype)
            poly = np.concatenate((pad, poly)) - np.concatenate((poly, pad))
        else:
            blocks = np.concatenate((poly, np.zeros(-len(poly) % d, dtype=poly.dtype))).reshape(-1, d)
            poly = -np.cumsum(blocks, axis=0).ravel()[: len(poly) - d]
    spread = k // prod(primes)
    out = np.zeros((len(poly) - 1) * spread + 1, dtype=poly.dtype)
    out[::spread] = poly
    return tuple(int(c) for c in out)


def _phi_remainder(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Rows of coefficients of zeta_k^0 .. zeta_k^(k-1) reduced modulo Phi_k: their power-basis coordinates."""
    # Phi_k(x) = Phi_r(x^s) for r the radical of k: each class of exponents mod s divides by Phi_r in x^s
    spread = k // prod(_prime_factors(k))
    phi = np.asarray(cyclotomic_polynomial(k)[::spread], dtype=np.int64)
    deg = len(phi) - 1
    rem = np.array(coeffs, dtype=np.int64).reshape(-1, k // spread, spread)  # [row, q, j]: x^(q * spread + j)
    for top in range(rem.shape[1] - 1, deg - 1, -1):
        rem[:, top - deg:top] -= rem[:, top, None] * phi[:deg, None]
    return rem[:, :deg].reshape(len(rem), -1)


def _row_histogram(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row histogram over 0..k-1 of an integer matrix (rows x cols)."""
    rows, cols = values.shape
    offsets = values + k * np.arange(rows, dtype=np.int64)[:, None]
    return np.bincount(offsets.ravel(), minlength=rows * k).reshape(rows, k)


# A floating sum of n unit roots is accurate to ~1e-14, so a 1e-6 margin can
# only ever discard candidates whose exact value provably misses the target;
# every near-hit is then decided exactly.
_PRESCREEN_MARGIN = 1e-6


def _norm_sq_is(exps: np.ndarray, k: int, target: int, approx: np.ndarray) -> np.ndarray:
    """Rows e of `exps` with |1 + sum_j zeta_k^(e_j)|^2 == target, decided exactly in Z[zeta_k].

    `approx` holds the same squared moduli in floating point; rows farther
    than _PRESCREEN_MARGIN from the target are misses without further work.
    s * conj(s) is the histogram of the n^2 pairwise exponent differences of
    (0, e), reduced modulo Phi_k; it is 0 only for s = 0, so target 0 decides s == 0.
    """
    near = np.abs(approx - target) < _PRESCREEN_MARGIN
    out = np.zeros(len(exps), dtype=bool)
    if not near.any():
        return out
    terms = np.pad(exps[near].astype(np.int64), ((0, 0), (1, 0)))  # the fixed leading entry zeta^0
    prods = sum(_row_histogram((terms - terms[:, [a]]) % k, k) for a in range(terms.shape[1]))
    prods[:, 0] -= target
    out[near] = ~_phi_remainder(prods, k).any(axis=1)
    return out


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
        return tuple(int(v) for v in _phi_remainder(np.asarray(self.coeffs), self.order)[0])

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
        return complex(np.dot(np.asarray(self.coeffs, dtype=float), _unit_roots(self.order)))

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
        v = _unit_roots(self.order)[list(self.exponents)]
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
