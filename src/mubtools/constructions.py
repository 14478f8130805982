"""Classical constructions: shift/clock pairs, Fourier bases, prime-dimension complete
MUB sets, and the real-space results in dimensions three and four."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Basis, InadmissibleParameterError
from .cyclotomic import _is_prime
from .search import cliques

KS_ORTH_TOL = 1e-9  # real vectors whose inner product is this small are orthogonal in `ks_uncolourable`


def weyl_pair(n: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Shift and clock unitaries with XZ = qZX, q = exp(2*pi*i/n).

    Z = diag(1, q, ..., q^{n-1}); X is the cyclic shift whose eigenvectors
    are the Fourier columns (X f_b = q^b f_b).
    """
    if n < 2:
        raise InadmissibleParameterError("need dimension >= 2")
    q = np.exp(2j * np.pi / n)
    z = np.diag(q ** np.arange(n))
    x = np.zeros((n, n), dtype=complex)
    for i in range(n):
        x[i, (i + 1) % n] = 1.0
    return x, z, complex(q)


def fourier(n: int) -> Basis:
    """Fourier basis: column b has entries q^{ab}/sqrt(n)."""
    if n < 1:
        raise InadmissibleParameterError("need dimension >= 1")
    a = np.arange(n)
    q = np.exp(2j * np.pi / n)
    return Basis(q ** np.outer(a, a) / np.sqrt(n), label=f"fourier({n})")


@dataclass(frozen=True)
class MubSet:
    """A tuple of pairwise unbiased bases sharing one dimension."""

    bases: tuple[Basis, ...]

    @property
    def dim(self) -> int:
        return self.bases[0].dim

    def __len__(self) -> int:
        return len(self.bases)


def prime_mub_set(p: int) -> MubSet:
    """Complete set of p+1 MUBs in prime dimension p.

    The standard basis diagonalizes the clock Z; the remaining p bases are
    the eigenbases of X Z^k for k = 0..p-1, written in closed form so each
    column's first entry is exactly 1/sqrt(p).  For odd p every entry of the
    non-standard bases is a p-th root of unity over sqrt(p); for p = 2 the
    entries are 4th roots.
    """
    if not _is_prime(p):
        raise InadmissibleParameterError(
            f"{p} is not prime; complete-set construction beyond primes "
            "(prime powers via Galois fields) is unsupported here"
        )
    q = np.exp(2j * np.pi / p)
    a = np.arange(p)
    bases = [Basis.standard(p)]
    for k in range(p):
        # Eigenvector recursion v_{a+1} = lam * q^{-k(a+1)} v_a gives
        # v_a = lam^a q^{-k a(a+1)/2}, with lam^p = q^{k p(p+1)/2}.
        mu = np.exp(2j * np.pi * k * (p + 1) / (2 * p))
        cols = np.empty((p, p), dtype=complex)
        twist = q ** (-k * (a * (a + 1) / 2.0))
        for m in range(p):
            lam = q**m * mu
            cols[:, m] = lam**a * twist
        bases.append(Basis(cols / np.sqrt(p), label=f"weyl-eigenbasis(p={p},k={k})"))
    return MubSet(tuple(bases))


@dataclass(frozen=True)
class RealUnbiasedCensus:
    """All real unit vectors unbiased to the standard basis in dimension 3."""

    representatives: np.ndarray  # sign-class representatives, one per row
    pairwise_dots: np.ndarray  # dot products over the full +/- orbit
    mub_pair_exists: bool

    @property
    def verdict(self) -> str:
        return (
            "a real MUB pair exists in dimension 3"
            if self.mub_pair_exists
            else "no real MUB pair exists in dimension 3"
        )


def real_unbiased_census(n: int = 3) -> RealUnbiasedCensus:
    """Enumerate the cube-corner vectors unbiased to the standard basis of R^3.

    There are four sign classes and no orthogonal pair among them, so no two
    of these vectors can belong to one orthonormal basis.
    """
    if n != 3:
        raise ValueError("census is specific to dimension 3")
    reps = np.array([[1, s1, s2] for s1 in (1, -1) for s2 in (1, -1)], dtype=float) / np.sqrt(3)
    full = np.vstack([reps, -reps])
    dots = full @ full.T
    off = dots[~np.eye(len(full), dtype=bool)]
    return RealUnbiasedCensus(
        representatives=reps,
        pairwise_dots=dots,
        mub_pair_exists=bool(np.any(np.abs(off) < 1e-12)),
    )


@dataclass(frozen=True)
class RealMubSetDim4:
    """Three mutually unbiased real bases of R^4 and the polytope vertex set they span."""

    bases: tuple[Basis, Basis, Basis]
    vertices: np.ndarray  # 24 vectors: the 12 basis vectors and their negatives


def real_mub_set_dim4() -> RealMubSetDim4:
    """Standard basis plus the two bases cut from the hypercube vertices by sign parity.

    The vertices (+-1,+-1,+-1,+-1)/2 split by parity of minus signs into two
    cross polytopes, each an orthonormal basis; together with the standard
    basis all three are pairwise unbiased (|dot|^2 = 1/4) and their 24
    signed vectors are the vertices of the 24-cell.
    """
    # one vertex of each antipodal pair: the one whose first coordinate is +1/2
    half = np.array([[1, s1, s2, s3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)], dtype=float) / 2.0
    parity = (half < 0).sum(axis=1) % 2
    b1 = Basis(half[parity == 0].T.astype(complex), label="hypercube-even")
    b2 = Basis(half[parity == 1].T.astype(complex), label="hypercube-odd")
    b0 = Basis.standard(4)
    cols = np.hstack([np.real(b.matrix) for b in (b0, b1, b2)]).T
    vertices = np.vstack([cols, -cols])
    return RealMubSetDim4(bases=(b0, b1, b2), vertices=vertices)


def peres_rays() -> np.ndarray:
    """The 24 rays of a pair of dual 24-cells in R^4 (one representative per antipodal pair).

    The primal 24-cell contributes the 12 rays of the three unbiased bases;
    its dual contributes the 12 rays (e_i + s e_j)/sqrt(2).
    """
    primal = real_mub_set_dim4()
    rays = [np.real(b.matrix[:, j]) for b in primal.bases for j in range(4)]
    for i, j in combinations(range(4), 2):
        for s in (1.0, -1.0):
            v = np.zeros(4)
            v[i] = 1.0
            v[j] = s
            rays.append(v / np.sqrt(2))
    return np.stack(rays)


@dataclass(frozen=True)
class ColouringResult:
    """Outcome of an exhaustive 0/1 colouring search over orthogonal quadruples."""

    uncolourable: bool
    contexts: tuple[tuple[int, ...], ...]  # complete orthogonal 4-subsets, by vector index
    colouring: tuple[int, ...] | None  # a valid colouring when one exists


def ks_uncolourable(vectors: np.ndarray) -> ColouringResult:
    """Search for a 0/1 colouring giving every complete orthogonal 4-subset exactly one 1.

    Returns uncolourable=True iff no such colouring exists, together with the
    enumerated list of complete orthogonal quadruples.  Every input vector
    must take part in at least one quadruple.
    """
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[1] != 4:
        raise ValueError("expected a list of real 4-dimensional vectors")
    nv = len(vecs)
    gram = vecs @ vecs.T
    orth = np.abs(gram) <= KS_ORTH_TOL

    contexts = [tuple(quad) for quad in cliques(orth, 4).tolist()]
    covered = set(i for quad in contexts for i in quad)
    missing = sorted(set(range(nv)) - covered)
    if missing:
        raise ValueError(
            f"vectors {missing} belong to no complete orthogonal quadruple; "
            "input is not closed under the required structure"
        )

    # a colouring is an exact cover of the contexts by the 1-coloured vectors' context sets
    masks = [sum(1 << ci for ci, quad in enumerate(contexts) if i in quad) for i in range(nv)]
    full = (1 << len(contexts)) - 1

    def cover(done: int) -> list[int] | None:
        if done == full:
            return []
        ci = (~done & (done + 1)).bit_length() - 1  # the lowest uncovered context
        for i in contexts[ci]:
            if masks[i] & done == 0:
                rest = cover(done | masks[i])
                if rest is not None:
                    return [i, *rest]
        return None

    ones = cover(0)
    if ones is None:
        return ColouringResult(True, tuple(contexts), None)
    return ColouringResult(False, tuple(contexts), tuple(int(i in ones) for i in range(nv)))
