"""Biunimodular sequences and the six-dimensional census: multistart Newton solving,
exact root-restricted enumeration, basis assembly, and the distance-pattern report."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import search as search_mod
from .catalog import bjorck_d
from .core import DEFAULT_DEDUPE_TOL, DEFAULT_EQ_TOL, Basis, InadmissibleParameterError, is_unbiased_pair
from .constructions import fourier
from .cyclotomic import _is_prime, _unit_roots
from .grassmann import distance_table
from .io import BJORCK, GAUSSIAN, census_payload, parse_census

NEWTON_RESIDUAL_TOL = 1e-12
NEWTON_MAX_ITERATIONS = 200
NEWTON_BATCH_SIZE = 512  # Newton starts per batch after the first, and the most rows per kernel product
ARMIJO_CHUNKS = (1, 1, 2, 4, 8, 24)  # halvings per line-search residual call; 40 in all
ASSEMBLY_ORTH_TOL = 1e-8  # census vectors closer to orthogonal than this are adjacent in `assemble_bases`
ASSEMBLY_UNBIASED_TOL = 1e-8  # an assembled basis must be unbiased to standard and Fourier within this
ROOT_TOL = 1e-8  # an entry this close to a root (times a power of d) is one, in `classify_sequence` and `entry_structure`
CIRCULANT_TOL = 1e-6  # shift images match census members within this in `assemble_bases`


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary discrete Fourier transform with positive exponent: (1/sqrt N) sum_b x_b q^{ba}."""
    v = np.asarray(x, dtype=complex)
    return np.fft.ifft(v) * np.sqrt(len(v))


def is_biunimodular(x: np.ndarray, tol: float = DEFAULT_EQ_TOL) -> tuple[bool, float]:
    """Whether x and its transform are both unimodular; returns the max modulus deviation."""
    v = np.asarray(x, dtype=complex)
    dev = max(
        float(np.abs(np.abs(v) - 1.0).max()),
        float(np.abs(np.abs(dft(v)) - 1.0).max()),
    )
    return dev <= tol, dev


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Cyclic autocorrelation (1/N) sum_a conj(x_a) x_{a+b}; a delta spike iff x is biunimodular."""
    v = np.asarray(x, dtype=complex)
    n = len(v)
    return np.array([np.vdot(v, np.roll(v, -b)) for b in range(n)]) / n


def classify_sequence(entries: np.ndarray) -> str:
    """gaussian when every entry is a 2N-th root of unity, bjorck otherwise."""
    v = np.asarray(entries, dtype=complex)
    dist = np.abs(v[:, None] - _unit_roots(2 * len(v))[None, :]).min(axis=1).max()
    return GAUSSIAN if dist < ROOT_TOL else BJORCK


def entry_structure(entries: np.ndarray) -> list[str]:
    """Tag each entry as a 12th-root multiple of a power of d (or as 'other').

    Diagnostic only; the tags are recorded in census metadata, not asserted.
    """
    roots12 = _unit_roots(12)
    d = bjorck_d()
    tags = []
    for z in np.asarray(entries, dtype=complex):
        for power, tag in ((0, "root12"), (1, "d-times-root12"), (-1, "d-times-root12"),
                           (2, "d2-times-root12"), (-2, "d2-times-root12")):
            if np.abs(z / d**power - roots12).min() < ROOT_TOL:
                tags.append(tag)
                break
        else:
            tags.append("other")
    return tags


@dataclass(frozen=True)
class BiuniSequence:
    """A biunimodular sequence normalized to x_0 = 1."""

    entries: tuple[complex, ...]
    kind: str  # gaussian | bjorck

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=complex)

    def phases(self) -> np.ndarray:
        return np.angle(self.as_array()[1:]) % (2 * np.pi)


@dataclass(frozen=True)
class CensusResult:
    """Deduplicated census of biunimodular sequences plus any assembled bases."""

    n: int
    sequences: tuple[BiuniSequence, ...]
    bases: tuple[Basis, ...]
    metadata: dict

    @property
    def count(self) -> int:
        return len(self.sequences)

    def count_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.sequences:
            out[s.kind] = out.get(s.kind, 0) + 1
        return out

    def quotient_counts(self, tol: float = DEFAULT_DEDUPE_TOL) -> dict[str, int]:
        """Sequence counts when cyclic shifts and/or conjugates are identified.

        The headline count fixes x_0 = 1 and nothing else; these supplementary
        counts show how it collapses under the natural symmetries (a shifted
        sequence is renormalized back to x_0 = 1).  An image is matched to a
        census member within tol, by the census's own dedupe test.
        """
        return _quotient_counts(self.count, *_image_maps(self, tol))

    def to_dict(self) -> dict:
        return census_payload(self)

    @staticmethod
    def from_dict(payload: dict) -> "CensusResult":
        """Inverse of to_dict; anything that is not a well-formed census raises FileFormatError."""
        return CensusResult(**parse_census(payload, BiuniSequence))


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Per pair of broadcast rows: within tol of each other in every component, by circular phase gap."""
    return np.abs((a - b + np.pi) % (2 * np.pi) - np.pi).max(axis=-1) <= tol


def _windows(first: np.ndarray, keys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(len(first), 3) bounds [lo, hi) into the sorted `keys` of the keys within tol + 1e-9 of each
    first phase, shifted by -2 pi, 0 and 2 pi.

    `first` and `keys` are reduced mod 2 pi, so a pair whose first phases lie within tol of each
    other on the circle falls in one of the three windows; the 1e-9 covers the rounding of the
    reductions.
    """
    centres = first[:, None] + np.array([-2 * np.pi, 0.0, 2 * np.pi])
    lo = np.searchsorted(keys, centres - (tol + 1e-9), "left")
    return lo, np.maximum(lo, np.searchsorted(keys, centres + (tol + 1e-9), "right"))


def _within(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """(len(a), len(b)) mask: phase rows within tol of each other in every component.

    Only candidate pairs are decided: `b` is sorted once by its first phase mod 2 pi, and each
    row of `a` is compared with the rows of `b` in its `_windows`.  The candidates go through
    in blocks of about search._BLOCK gap entries (at least one row of `a`), so one block is all
    that is held besides the mask.
    """
    out = np.zeros((len(a), len(b)), dtype=bool)
    if not a.shape[1]:  # zero-width rows (n = 1) are equal
        out[:] = 0.0 <= tol
        return out
    order = np.argsort(b[:, 0] % (2 * np.pi), kind="stable")
    lo, hi = _windows(a[:, 0] % (2 * np.pi), b[order, 0] % (2 * np.pi), tol)
    ends = np.cumsum((hi - lo).sum(axis=1))
    cap = max(1, search_mod._BLOCK // a.shape[1])
    start = 0
    while start < len(a):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + cap, "right")))
        counts = (hi[start:stop] - lo[start:stop]).ravel()
        rows = np.repeat(np.repeat(np.arange(start, stop), 3), counts)
        # the k-th candidate of a window sits at lo + k in the sorted order
        offsets = np.arange(ends[stop - 1] - done) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = order[np.repeat(lo[start:stop].ravel(), counts) + offsets]
        out[rows, cols] = _close(a[rows], b[cols], tol)
        start = stop
    return out


def _new_solutions(sols: np.ndarray, pool: np.ndarray, tol: float) -> list[int]:
    """Rows of sols, in order, that lie within tol of neither the pool nor an earlier new row."""
    fresh = np.nonzero(~_within(sols, pool, tol).any(axis=1))[0]
    first = sols[fresh, 0] % (2 * np.pi)
    order = fresh[np.argsort(first, kind="stable")]
    lo, hi = _windows(first, sols[order, 0] % (2 * np.pi), tol)
    alive = np.zeros(len(sols), dtype=bool)
    alive[fresh] = True
    new: list[int] = []
    for row, row_lo, row_hi in zip(fresh.tolist(), lo.tolist(), hi.tolist()):
        if not alive[row]:
            continue
        # the first fresh row still alive is new; its sweep drops every later fresh row within tol of it
        new.append(row)
        alive[row] = False
        near = np.concatenate([order[l:h] for l, h in zip(row_lo, row_hi)])
        near = near[alive[near]]
        alive[near[_close(sols[near], sols[row], tol)]] = False
    return new


def _image_maps(census: CensusResult, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per sequence, the index of its shift image roll(x, -1) / x_1 and of its conjugate among
    the census sequences, or -1 where the image is absent; images match at `_within` tol."""
    if not census.count:  # e.g. root_census(6, 5)
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    phases = np.array([s.phases() for s in census.sequences]).reshape(census.count, census.n - 1)
    shifted = np.concatenate([phases[:, 1:] - phases[:, :1], -phases[:, :1]], axis=1)
    match = _within(np.concatenate([shifted, -phases]), phases, tol)
    image = np.where(match.any(axis=1), match.argmax(axis=1), -1)
    return image[: len(phases)], image[len(phases) :]


def _quotient_counts(count: int, shift: np.ndarray, conj: np.ndarray) -> dict[str, int]:
    """`CensusResult.quotient_counts` from the census size and its `_image_maps`."""
    return {
        "fixed_first_entry": count,
        "up_to_shift": _orbit_count(count, shift),
        "up_to_conjugation": _orbit_count(count, conj),
        "up_to_shift_and_conjugation": _orbit_count(count, shift, conj),
    }


def _orbit_count(count: int, *maps: np.ndarray) -> int:
    """Connected components of 0..count-1 joined by every edge i -> maps[k][i] (-1: no edge)."""
    return int((search_mod._orbit_forest(count, *maps)[0] < 0).sum())


class _ScrambledHalton:
    """Owen-scrambled Halton points in [0, 1)^d (Owen, arXiv:1706.02808, Algorithm 1).

    Reproduces scipy.stats.qmc.Halton(d, scramble=True, seed=seed) bit for
    bit: numpy.random.default_rng(seed) shuffles the same digit permutations
    in the same order, one per digit position j >= 1 with b^-j > 2^-54, and
    each coordinate accumulates perm[j-1, digit_j] * b^-j over every
    permutation row in the same order.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        self.bases = list(itertools.islice(filter(_is_prime, itertools.count(2)), d))
        self.perms = []
        for base in self.bases:
            rows = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
            for row in rows:
                rng.shuffle(row)
            self.perms.append(rows)
        self.generated = 0

    def random(self, size: int) -> np.ndarray:
        """The next `size` points, continuing where the previous call stopped."""
        index = np.arange(self.generated, self.generated + size, dtype=np.int64)
        self.generated += size
        points = np.zeros((size, len(self.bases)))
        for col, (base, perm) in enumerate(zip(self.bases, self.perms)):
            quotient = index
            scale = 1.0 / base
            # no early exit once the digits run out: digit 0 maps to perm[j, 0], mostly not 0
            for row in perm:
                quotient, digit = np.divmod(quotient, base)
                points[:, col] += row[digit] * scale
                scale /= base
        return points


def _phase_residual_system(phi: np.ndarray, dft_matrix: np.ndarray):
    """Residuals |x~_a|^2 - 1 (a = 1..n-1), the sequences x and their transforms x~, batched over rows of phi.

    The product runs on even row slices of at most NEWTON_BATCH_SIZE rows.  A
    2,048-row product crosses OpenBLAS's threading threshold, and on 2 vCPUs
    that doubled the CPU time of a census for no gain in wall time.  No slice
    holds a single row unless phi does: numpy's one-row product takes another
    BLAS path, with other rounding.
    """
    x = np.concatenate([np.ones((len(phi), 1), dtype=complex), np.exp(1j * phi)], axis=1)
    xt = np.concatenate([part @ dft_matrix for part in np.array_split(x, _row_parts(len(x)))])
    r = np.abs(xt[:, 1:]) ** 2 - 1.0
    return r, x, xt


def _row_parts(rows: int) -> int:
    """How many even row slices of at most NEWTON_BATCH_SIZE rows the residual product uses."""
    return max(1, -(-rows // NEWTON_BATCH_SIZE))


def _phase_jacobian(x: np.ndarray, xt: np.ndarray, q_table: np.ndarray) -> np.ndarray:
    # d|x~_a|^2 / dphi_j = -(2/sqrt(n)) Im(conj(x~_a) x_j q^{ja}); elementwise, so row slices would change no bit
    return -(2.0 / np.sqrt(x.shape[1])) * np.imag(np.conj(xt[:, 1:, None]) * x[:, None, 1:] * q_table[None, :, :])


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per-row solutions of jac @ step = rhs; least squares only for the rows whose solve fails."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(rhs)
        for i in range(len(jac)):
            try:
                steps[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                steps[i] = np.linalg.lstsq(jac[i], rhs[i], rcond=None)[0]
        return steps


def _armijo_step_sizes(phi: np.ndarray, step: np.ndarray, f0: np.ndarray, dft_matrix: np.ndarray):
    """Per row, the first t of 1, 1/2, ..., 2^-39 with f(phi + t step) <= f0 (1 - t/2); 0 where none passes.

    The halvings are evaluated in chunks of ARMIJO_CHUNKS, one residual call
    per chunk for every row still searching.  A row takes the first passing
    t of the first chunk that has one, which is the t that one call per
    halving would accept: the trial points are the same floats either way.
    """
    t = np.zeros(len(phi))
    trial = np.arange(len(phi))
    first = 0
    for size in ARMIJO_CHUNKS:
        if len(trial) == 0:
            break
        ts = np.ldexp(1.0, -np.arange(first, first + size))
        first += size
        points = phi[trial, None, :] + ts[None, :, None] * step[trial, None, :]
        r_new, _, _ = _phase_residual_system(points.reshape(-1, phi.shape[1]), dft_matrix)
        f_new = (0.5 * np.sum(r_new * r_new, axis=1)).reshape(len(trial), size)
        ok = f_new <= f0[trial, None] * (1.0 - 0.5 * ts)
        hit = ok.any(axis=1)
        t[trial[hit]] = ts[ok[hit].argmax(axis=1)]
        trial = trial[~hit]
    return t


def _rank_deficient_count(jac: np.ndarray) -> int:
    """How many of the square matrices jac[i] have smallest singular value below 1e-6.

    For m x m J, sigma_min >= |det J| / ||J||_F^(m-1), since each other singular value is at
    most ||J||_F.  A matrix whose computed bound is at least 2e-6 is full rank without an SVD;
    the factor 2 covers the rounding of the LU determinant and of the SVD.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero matrix gives 0 / 0, which is not >= 2e-6
        bound = np.abs(np.linalg.det(jac)) / np.linalg.norm(jac, axis=(1, 2)) ** (jac.shape[-1] - 1)
    low = jac[~(bound >= 2e-6)]
    return int(np.sum(np.linalg.svd(low, compute_uv=False)[:, -1] < 1e-6))


def _newton_solve(phi: np.ndarray, dft_matrix: np.ndarray, q_table: np.ndarray) -> None:
    """Damped Newton on every row of phi, in place, until it converges, stalls or hits the iteration cap."""
    active = np.ones(len(phi), dtype=bool)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        r, x, xt = _phase_residual_system(phi[idx], dft_matrix)
        done = np.abs(r).max(axis=1) <= NEWTON_RESIDUAL_TOL
        if done.any():
            active[idx[done]] = False
            keep = ~done
            idx, r, x, xt = idx[keep], r[keep], x[keep], xt[keep]
        if len(idx) == 0:
            continue
        step = _newton_steps(_phase_jacobian(x, xt, q_table), -r)
        f0 = 0.5 * np.sum(r * r, axis=1)
        t = _armijo_step_sizes(phi[idx], step, f0, dft_matrix)
        move = t > 0  # a row whose line search found no step has stalled
        phi[idx[move]] = (phi[idx[move]] + t[move, None] * step[move]) % (2 * np.pi)
        active[idx[~move]] = False
    # anything still active hit the iteration cap; the caller's residual check discards it


def newton_census(
    n: int = 6,
    restarts: int = 20000,
    seed: int = 0,
    tol: float = DEFAULT_DEDUPE_TOL,
) -> CensusResult:
    """Multistart damped-Newton census of the biunimodular sequences with x_0 = 1.

    Solves the square system |x~_a|^2 = 1 (a = 1..n-1) over the n-1 free
    phases, starting from a low-discrepancy (Halton) sweep of the phase
    torus.  Damped steps use Armijo backtracking on the squared residual;
    convergence demands residual inf-norm <= 1e-12.  Solutions are merged
    within tol (componentwise circular phase distance), which must lie in
    (0, pi): no phase gap exceeds pi, so a larger tol would merge every pair.
    The run stops early once the latter half of the restarts used produced
    nothing new.

    The first batch holds min(restarts, 2048) starts, so the stop rule is
    never tried on a smaller sample (a run that stabilizes there is one
    batch); later batches hold NEWTON_BATCH_SIZE.  The line search
    evaluates its halvings in ARMIJO_CHUNKS, and each residual product runs
    on row slices of at most NEWTON_BATCH_SIZE rows; neither changes an
    accepted step.

    After the Newton loop the work scales with the matches: the dedupe and
    the image maps compare a row only with the rows in its window of sorted
    first phases (`_windows`), and the rank test runs an SVD only where a
    determinant bound cannot show full rank (`_rank_deficient_count`).

    Rank-deficient Jacobians at solutions mark the result 'not
    zero-dimensional'; exhausting the restart budget before the count
    stabilizes marks it 'unconverged census'.
    """
    if n not in (3, 5, 6, 7):
        raise InadmissibleParameterError("census targets n = 6 (primary) or odd n <= 7")
    if restarts < 1:
        raise InadmissibleParameterError("need at least one restart")
    if not 0 < tol < math.pi:
        raise InadmissibleParameterError(f"the dedupe margin must lie in (0, pi), got {tol}")

    dft_matrix = fourier(n).matrix
    # q^{ja} (j, a = 1..n-1) for the Jacobian, from q itself: sqrt(n) * dft_matrix rounds differently
    q_table = np.exp(2j * np.pi / n) ** np.outer(np.arange(1, n), np.arange(1, n))
    sampler = _ScrambledHalton(n - 1, seed)
    pool = np.empty((0, n - 1))
    last_new = -1
    used = 0
    rank_deficient = 0
    stabilized = False

    while used < restarts:
        take = min(NEWTON_BATCH_SIZE if used else 2048, restarts - used)
        phi = sampler.random(take) * 2 * np.pi
        start_index = used
        used += take
        _newton_solve(phi, dft_matrix, q_table)

        r, x, xt = _phase_residual_system(phi, dft_matrix)
        rows = np.nonzero(np.abs(r).max(axis=1) <= NEWTON_RESIDUAL_TOL)[0]
        rank_deficient += _rank_deficient_count(_phase_jacobian(x[rows], xt[rows], q_table))
        sols = phi[rows] % (2 * np.pi)
        new = _new_solutions(sols, pool, tol)
        if new:
            pool = np.concatenate([pool, sols[new]])
            last_new = start_index + int(rows[new[-1]])
        if len(pool) and used >= 2 * (last_new + 1):
            stabilized = True
            break

    order = sorted(range(len(pool)), key=lambda i: tuple(pool[i]))
    sequences = []
    for i in order:
        entries = np.concatenate([[1.0 + 0j], np.exp(1j * pool[i])])
        sequences.append(BiuniSequence(entries=tuple(entries), kind=classify_sequence(entries)))

    status = "ok"
    if rank_deficient:
        status = "not zero-dimensional"
    elif not stabilized:
        status = "unconverged census"
    structure: dict[str, int] = {}
    for seq in sequences:
        if seq.kind == BJORCK:
            for tag in entry_structure(seq.as_array()):
                structure[tag] = structure.get(tag, 0) + 1
    metadata = {
        "n": n,
        "method": "newton",
        "seed": seed,
        "restart_budget": restarts,
        "restarts_used": used,
        "newton_residual_tol": NEWTON_RESIDUAL_TOL,
        "max_iterations": NEWTON_MAX_ITERATIONS,
        "dedupe_tol": tol,
        "rank_deficient_solutions": rank_deficient,
        "last_new_solution_at_restart": last_new,
        "bjorck_entry_tags": structure,
        "status": status,
    }
    result = CensusResult(n=n, sequences=tuple(sequences), bases=(), metadata=metadata)
    maps = _image_maps(result, tol)
    if status == "ok" and any((image < 0).any() for image in maps):
        metadata["status"] = "not closed"  # a shift or conjugate image of a found sequence was never found
    metadata["counts_under_quotients"] = _quotient_counts(result.count, *maps)
    return result


def root_census(n: int, k: int) -> CensusResult:
    """Exact enumeration of biunimodular sequences whose entries are k-th roots of unity."""
    vectors = search_mod.unbiased_vector_enumerate(n, k)
    sequences = []
    for v in sorted(vectors, key=lambda rv: rv.exponents):
        entries = v.to_complex(normalized=False)
        sequences.append(BiuniSequence(entries=tuple(entries), kind=classify_sequence(entries)))
    metadata = {
        "n": n,
        "method": "roots",
        "k": k,
        "exact": True,
        "candidates": k ** (n - 1),
        "status": "ok",
    }
    return CensusResult(n=n, sequences=tuple(sequences), bases=(), metadata=metadata)


def assemble_bases(census: CensusResult) -> CensusResult:
    """Find every orthonormal basis among the census vectors and attach it to the census.

    Census vectors (normalized by 1/sqrt(n)) close under cyclic shift up to
    the x_0 = 1 renormalization, so the bases are exactly the n-cliques of
    the orthogonality graph on the census itself.  Each basis is checked to
    be unbiased to the standard and Fourier bases.
    """
    n = census.n
    if census.count == 0:
        raise ValueError("census is empty; nothing to assemble")
    vecs = np.stack([s.as_array() for s in census.sequences]) / np.sqrt(n)
    m = len(vecs)
    gram = np.abs(vecs.conj() @ vecs.T)
    adj = gram < ASSEMBLY_ORTH_TOL
    np.fill_diagonal(adj, False)

    std = Basis.standard(n)
    fb = fourier(n)
    shift, _ = _image_maps(census, CIRCULANT_TOL)
    bases = []
    membership = np.zeros(m, dtype=int)
    for bi, clique in enumerate(search_mod.cliques(adj, n).tolist()):
        cols = np.stack([vecs[i] for i in clique], axis=1)
        kind = GAUSSIAN if all(census.sequences[i].kind == GAUSSIAN for i in clique) else BJORCK
        circulant = set(shift[list(clique)]) <= set(clique)  # closed under the cyclic shift
        label = f"census-basis-{bi:02d}:{kind}:{'circulant' if circulant else 'enphased'}"
        basis = Basis(cols, label=label)
        for other in (std, fb):
            unbiased, defect = is_unbiased_pair(other, basis, ASSEMBLY_UNBIASED_TOL)
            if not unbiased:
                raise ValueError(f"{label} is not unbiased to {other.label}: defect {defect:.3e}")
        bases.append(basis)
        for i in clique:
            membership[i] += 1

    metadata = dict(census.metadata)
    metadata.update(
        {
            "bases_found": len(bases),
            "membership_per_vector": {
                "min": int(membership.min()),
                "max": int(membership.max()),
            },
            "circulant_bases": int(sum(1 for b in bases if b.label.endswith("circulant"))),
        }
    )
    return replace(census, bases=tuple(bases), metadata=metadata)


@dataclass(frozen=True)
class DistanceReport:
    """Distance table over the assembled bases plus the summary pattern statistics."""

    labels: tuple[str, ...]
    table: np.ndarray
    groups: dict
    stats: dict

    def summary_lines(self) -> list[str]:
        s = self.stats
        lines = [
            f"bases: {len(self.labels)} "
            f"(gaussian {len(self.groups['gaussian'])}, "
            f"circulant six-plet {len(self.groups['circulant_sixplet'])}, "
            f"enphased six-plet {len(self.groups['enphased_sixplet'])})",
            "gaussian square: sides D2 = "
            + " ".join(f"{v:.3f}" for v in s["gaussian_square_sides"])
            + ", diagonals D2 = "
            + " ".join(f"{v:.3f}" for v in s["gaussian_square_diagonals"]),
            f"gaussian vs non-gaussian: D2 ~ {s['gaussian_vs_nongaussian'][1]:.2f} "
            f"(range {s['gaussian_vs_nongaussian'][0]:.6f}..{s['gaussian_vs_nongaussian'][1]:.6f})",
            f"six-plet vs six-plet: D2 ~ {s['sixplet_cross'][1]:.2f} "
            f"(range {s['sixplet_cross'][0]:.6f}..{s['sixplet_cross'][1]:.6f})",
            f"within six-plet max: D2 ~ {s['within_sixplet_max']:.2f} ({s['within_sixplet_max']:.6f})",
            f"six-plets isometric: {s['isometric_sixplets']}",
            f"global max D2 = {s['global_max']:.6f} (maximum for an unbiased pair would be {s['mub_distance']:.0f})",
        ]
        return lines


def census_distance_report(census: CensusResult, tol: float = DEFAULT_EQ_TOL) -> DistanceReport:
    """Chordal distance table over the assembled bases and the paper-pattern statistics."""
    if not census.bases:
        raise ValueError("census has no assembled bases; run assemble_bases first")
    bases = list(census.bases)
    table = distance_table(bases, tol)
    gaussian = [i for i, b in enumerate(bases) if f":{GAUSSIAN}:" in b.label]
    nongaussian = [i for i in range(len(bases)) if i not in gaussian]
    circ = [i for i in nongaussian if bases[i].label.endswith("circulant")]
    enph = [i for i in nongaussian if not bases[i].label.endswith("circulant")]
    if len(gaussian) < 2 or not circ or not enph:
        raise ValueError(
            "distance report needs the full census structure "
            f"(got {len(gaussian)} gaussian, {len(circ)} circulant, {len(enph)} enphased bases); "
            "run it on an assembled full census"
        )

    def pairs_within(group):
        return [table[i, j] for x, i in enumerate(group) for j in group[x + 1 :]]

    def pairs_between(g1, g2):
        return [table[i, j] for i in g1 for j in g2]

    gg = sorted(pairs_within(gaussian))
    stats = {
        "gaussian_square_sides": [float(v) for v in gg[:4]],
        "gaussian_square_diagonals": [float(v) for v in gg[4:]],
        "gaussian_vs_nongaussian": (
            float(min(pairs_between(gaussian, nongaussian))),
            float(max(pairs_between(gaussian, nongaussian))),
        ),
        "sixplet_cross": (
            float(min(pairs_between(circ, enph))),
            float(max(pairs_between(circ, enph))),
        ),
        "within_sixplet_max": float(max(max(pairs_within(circ)), max(pairs_within(enph)))),
        "isometric_sixplets": bool(
            np.allclose(sorted(pairs_within(circ)), sorted(pairs_within(enph)), atol=0.01)
        ),
        "global_max": float(table.max()),
        "mub_distance": float(census.n - 1),
    }
    return DistanceReport(
        labels=tuple(b.label for b in bases),
        table=table,
        groups={"gaussian": gaussian, "circulant_sixplet": circ, "enphased_sixplet": enph},
        stats=stats,
    )
