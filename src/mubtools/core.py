"""Complex bases, unbiasedness and Hadamard predicates, dephasing, equivalence heuristics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

DEFAULT_EQ_TOL = 1e-10
DEFAULT_DEDUPE_TOL = 1e-6


class InadmissibleParameterError(ValueError):
    """A parameter lies outside its admissible region."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical margins: eq_tol for algebraic identities, dedupe_tol for merging near-duplicates."""

    eq_tol: float = DEFAULT_EQ_TOL
    dedupe_tol: float = DEFAULT_DEDUPE_TOL

    def __post_init__(self):
        if self.eq_tol < 0 or self.dedupe_tol < 0:
            raise InadmissibleParameterError("tolerances must be non-negative")
        if not self.eq_tol < self.dedupe_tol:
            raise InadmissibleParameterError(f"eq_tol ({self.eq_tol}) must be smaller than dedupe_tol ({self.dedupe_tol})")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Basis:
    """An orthonormal basis of C^N stored as a unitary matrix whose columns are the basis vectors."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"basis matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]

    def unitarity_defect(self) -> float:
        return unitarity_defect(self.matrix)

    def require_unitary(self, tol: Tolerance = DEFAULT_TOL) -> None:
        defect = self.unitarity_defect()
        if not defect <= tol.eq_tol:  # NaN entries fail too
            name = self.label or "<unlabelled>"
            raise ValueError(f"basis {name!r} is not unitary: defect {defect:.3e} > {tol.eq_tol:.1e}")

    @staticmethod
    def standard(n: int) -> "Basis":
        return Basis(np.eye(n, dtype=complex), label="standard")


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max entry of |M^H M - I|; inf or NaN, without a warning, when the product overflows."""
    m = np.asarray(matrix, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def conjugate_basis(basis: Basis) -> Basis:
    """Entrywise complex conjugate (conjugation relative to the standard basis)."""
    return Basis(np.conj(basis.matrix), label=f"conj({basis.label})" if basis.label else "")


def _check_pair(a: Basis, b: Basis, tol: Tolerance) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    a.require_unitary(tol)
    b.require_unitary(tol)


def overlap_squares(a: Basis, b: Basis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix of squared overlaps |<a_i|b_j>|^2; doubly stochastic for unitary inputs."""
    _check_pair(a, b, tol)
    return np.abs(a.matrix.conj().T @ b.matrix) ** 2


def is_unbiased_pair(a: Basis, b: Basis, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all squared overlaps equal 1/N within eq_tol; returns the max deviation too."""
    s = overlap_squares(a, b, tol)
    deviation = float(np.abs(s - 1.0 / a.dim).max())
    return deviation <= tol.eq_tol, deviation


def is_complex_hadamard(matrix: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every entry has modulus 1/sqrt(N) and the matrix is unitary, within eq_tol."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if np.abs(np.abs(m) - 1.0 / np.sqrt(n)).max() > tol.eq_tol:
        return False
    return unitarity_defect(m) <= tol.eq_tol


def hadamard_defect(matrix: np.ndarray) -> float:
    """Max of the entry-modulus defect and the unitarity defect (0 for an exact Hadamard)."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    mod = float(np.abs(np.abs(m) - 1.0 / np.sqrt(n)).max())
    return max(mod, unitarity_defect(m))


def dephase(matrix: np.ndarray) -> np.ndarray:
    """Equivalent matrix with real positive first row and column, via row/column phases."""
    m = np.asarray(matrix, dtype=complex)
    if np.abs(m).min() < 1e-14:
        raise ValueError("cannot dephase a matrix with zero entries")
    out = m / (m[0:1, :] / np.abs(m[0:1, :]))
    out = out / (out[:, 0:1] / np.abs(out[:, 0:1]))
    return out


def haagerup_invariants(matrix: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Counter:
    """Multiset of quadruple products m_ij conj(m_kj) m_kl conj(m_il) over all index quadruples.

    Products are taken on the sqrt(N)-scaled entries, so for a Hadamard they
    are unimodular.  Values are snapped to a dedupe_tol grid so that
    multisets from equivalent matrices compare equal; the multiset is
    invariant under row/column permutations and row/column phase
    multiplication.
    """
    m = np.asarray(matrix, dtype=complex) * np.sqrt(matrix.shape[0])
    prods = np.einsum("ij,kj,kl,il->ikjl", m, m.conj(), m, m.conj()).ravel()
    grid = tol.dedupe_tol
    keys = zip(np.round(prods.real / grid).astype(int), np.round(prods.imag / grid).astype(int))
    return Counter(complex(re * grid, im * grid) for re, im in keys)


INEQUIVALENT = "inequivalent"
PROBABLY_EQUIVALENT = "probably-equivalent"


def equivalent_heuristic(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> str:
    """Invariant-multiset screen: 'inequivalent' is a certificate, 'probably-equivalent' is not."""
    ma = np.asarray(a, dtype=complex)
    mb = np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    if haagerup_invariants(ma, tol) == haagerup_invariants(mb, tol):
        return PROBABLY_EQUIVALENT
    return INEQUIVALENT
