"""Bloch-space view of bases: traceless-Hermitian embedding, basis-plane projectors,
and the chordal distance between basis planes."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .core import DEFAULT_EQ_TOL, Basis


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> np.ndarray:
    """Orthonormal traceless-Hermitian coordinate frame with Tr(T_a T_b) = 2 delta_ab.

    Ordered as the symmetric pair family, the antisymmetric pair family, then
    the diagonal family; fixed so Bloch coordinates are reproducible.
    """
    if n < 2:
        raise ValueError("need dimension >= 2")
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def bloch_embed(v: np.ndarray) -> np.ndarray:
    """Coordinates of sqrt(2N/(N-1)) (|v><v| - I/N) in the fixed traceless frame.

    The input must be a unit vector; the output is a real unit vector of
    length N^2 - 1 under the half-trace scalar product.
    """
    vec = np.asarray(v, dtype=complex).ravel()
    n = len(vec)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"expected a unit vector, got norm {norm:.6f}")
    proj = np.outer(vec, vec.conj())
    e = np.sqrt(2.0 * n / (n - 1)) * (proj - np.eye(n) / n)
    frame = gell_mann_basis(n)
    return 0.5 * np.real(np.einsum("aij,ji->a", frame, e))


def hs_distance_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Hilbert-Schmidt distance (1/2) Tr (A-B)^2 between Hermitian matrices."""
    ma = np.asarray(a, dtype=complex)
    mb = np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    d = ma - mb
    return float(0.5 * np.sum(np.abs(d) ** 2))


def basis_frame(basis: Basis, tol: float = DEFAULT_EQ_TOL) -> np.ndarray:
    """(N^2-1) x N frame of scaled Bloch columns; it has rank N-1 and columns summing to zero."""
    basis.require_unitary(tol)
    n = basis.dim
    cols = [bloch_embed(basis.matrix[:, j]) for j in range(n)]
    return np.sqrt((n - 1.0) / n) * np.stack(cols, axis=1)


def basis_projector(basis: Basis, tol: float = DEFAULT_EQ_TOL) -> np.ndarray:
    """Rank-(N-1) projector F F^T onto the Bloch plane of a basis, F = basis_frame(basis)."""
    frame = basis_frame(basis, tol)
    return frame @ frame.T


def projector_dim(projector: np.ndarray) -> int:
    """Recover the Hilbert-space dimension N from an (N^2-1)-dimensional projector."""
    s = projector.shape[0]
    n = isqrt(s + 1)
    if n * n - 1 != s or projector.shape != (s, s):
        raise ValueError(f"not a Bloch-space projector shape: {projector.shape}")
    return n


def chordal_distance_sq(p1: np.ndarray, p2: np.ndarray) -> float:
    """Squared chordal distance N - 1 - Tr(P1 P2) between two basis-plane projectors.

    Lies in [0, N-1], with the maximum reached exactly for unbiased bases.
    """
    n = projector_dim(np.asarray(p1))
    if np.asarray(p2).shape != np.asarray(p1).shape:
        raise ValueError("projector shape mismatch")
    return float(n - 1 - np.sum(p1 * p2))


def gram_deviations(unitaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix G = X^dag X of a stack (m, N, N) of unitaries laid side by side as
    X = [U_0 | ... | U_{m-1}], and |G|^2 - 1/N; both are (mN, mN).

    Block (i, j) of G is U_i^dag U_j.  Every squared chordal distance in the
    package is N-1 minus the sum of squares of one deviation block.
    """
    us = np.asarray(unitaries)
    m, n, _ = us.shape
    x = us.transpose(1, 0, 2).reshape(n, m * n)
    g = x.conj().T @ x
    return g, np.abs(g) ** 2 - 1.0 / n


def chordal_distance_sq_overlap(a: Basis, b: Basis, tol: float = DEFAULT_EQ_TOL) -> float:
    """Overlap form of the squared chordal distance: N-1 - sum_ab (|<a|b>|^2 - 1/N)^2."""
    return float(distance_table([a, b], tol)[0, 1])


def distance_table(bases: list[Basis], tol: float = DEFAULT_EQ_TOL) -> np.ndarray:
    """Symmetric table of pairwise squared chordal distances (zero diagonal), in overlap form."""
    if len(bases) < 2:
        raise ValueError("need at least two bases")
    dims = {b.dim for b in bases}
    if len(dims) != 1:
        raise ValueError(f"bases of mixed dimensions: {sorted(dims)}")
    for b in bases:
        b.require_unitary(tol)
    m, n = len(bases), bases[0].dim
    _, dev = gram_deviations(np.stack([b.matrix for b in bases]))
    blocks = dev.reshape(m, n, m, n)
    # entry (i, j) is taken from G_ij with i < j; the mirror makes the table exactly symmetric.
    # Rounding can put a distance just below 0 (never above n - 1), so it is clamped there.
    table = np.triu(np.maximum(n - 1 - np.einsum("iajb,iajb->ij", blocks, blocks), 0.0), 1)
    return table + table.T


def spread_objective(bases: list[Basis], tol: float = DEFAULT_EQ_TOL) -> float:
    """Sum of squared chordal distances over unordered pairs of bases.

    Bounded by C(m,2) * (N-1), attained exactly when all pairs are unbiased.
    """
    table = distance_table(bases, tol)
    return float(np.sum(np.triu(table, 1)))


def spread_upper_bound(n: int, m: int) -> float:
    return m * (m - 1) / 2 * (n - 1)
