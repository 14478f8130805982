"""Complex bases, unbiasedness and Hadamard predicates, dephasing, equivalence heuristics.

A margin is a plain float named `tol`, of one rule: DEFAULT_EQ_TOL for identities
(unitarity, unbiasedness, the Hadamard and biunimodular tests, chordal distances),
DEFAULT_DEDUPE_TOL for merging near-duplicates (the Newton census dedupe, the
Haagerup invariant grid).  No function takes both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

DEFAULT_EQ_TOL = 1e-10
DEFAULT_DEDUPE_TOL = 1e-6


class InadmissibleParameterError(ValueError):
    """A parameter lies outside its admissible region."""


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

    def unitarity_defect(self) -> float:
        return unitarity_defect(self.matrix)

    def require_unitary(self, tol: float = DEFAULT_EQ_TOL) -> None:
        defect = self.unitarity_defect()
        if not defect <= tol:  # NaN entries fail too
            name = self.label or "<unlabelled>"
            raise ValueError(f"basis {name!r} is not unitary: defect {defect:.3e} > {tol:.1e}")

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


def _check_pair(a: Basis, b: Basis, tol: float) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    a.require_unitary(tol)
    b.require_unitary(tol)


def overlap_squares(a: Basis, b: Basis, tol: float = DEFAULT_EQ_TOL) -> np.ndarray:
    """Matrix of squared overlaps |<a_i|b_j>|^2; doubly stochastic for unitary inputs."""
    _check_pair(a, b, tol)
    return np.abs(a.matrix.conj().T @ b.matrix) ** 2


def is_unbiased_pair(a: Basis, b: Basis, tol: float = DEFAULT_EQ_TOL) -> tuple[bool, float]:
    """Whether all squared overlaps equal 1/N within tol; returns the max deviation too."""
    s = overlap_squares(a, b, tol)
    deviation = float(np.abs(s - 1.0 / a.dim).max())
    return deviation <= tol, deviation


def is_complex_hadamard(matrix: np.ndarray, tol: float = DEFAULT_EQ_TOL) -> bool:
    """True iff every entry has modulus 1/sqrt(N) and the matrix is unitary, within tol."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return hadamard_defect(m) <= tol


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


def haagerup_invariants(matrix: np.ndarray, tol: float = DEFAULT_DEDUPE_TOL) -> Counter:
    """Multiset of quadruple products m_ij conj(m_kj) m_kl conj(m_il) over all index quadruples.

    Products are taken on the sqrt(N)-scaled entries, so for a Hadamard they
    are unimodular.  The exact multiset is invariant under row/column
    permutations and row/column phase multiplication.  Values are snapped to
    a grid of spacing tol before counting, which makes this a heuristic
    screen: rounding errors that put a value near a cell edge can split equal
    values between neighbouring cells, so equivalent matrices usually, but
    not always, give equal multisets.
    """
    if not 0 < tol < np.inf:  # no grid of spacing 0, or of infinite spacing, snaps to numbers
        raise InadmissibleParameterError(f"the invariant grid must be a finite positive number, got {tol}")
    m = np.asarray(matrix, dtype=complex) * np.sqrt(matrix.shape[0])
    prods = np.einsum("ij,kj,kl,il->ikjl", m, m.conj(), m, m.conj()).ravel()
    with np.errstate(over="ignore"):  # a grid too fine for the products overflows: it is refused below
        cells = np.round(np.stack([prods.real, prods.imag]) / tol) + 0.0  # rounded as floats; + 0.0 makes -0 0
    if not np.isfinite(cells).all():
        raise InadmissibleParameterError(f"a product scaled to the invariant grid {tol} is not finite")
    return Counter(complex(re * tol, im * tol) for re, im in zip(*cells.tolist()))


INEQUIVALENT = "inequivalent"
PROBABLY_EQUIVALENT = "probably-equivalent"


def equivalent_heuristic(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_DEDUPE_TOL) -> str:
    """Invariant-multiset screen: 'inequivalent' is a certificate, 'probably-equivalent' is not."""
    ma = np.asarray(a, dtype=complex)
    mb = np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    if haagerup_invariants(ma, tol) == haagerup_invariants(mb, tol):
        return PROBABLY_EQUIVALENT
    return INEQUIVALENT
