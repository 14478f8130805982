"""Riemannian ascent of the pairwise chordal-distance sum over tuples of bases,
and parameter scans over the catalog families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import FAMILY_ARITY, FamilyPoint, family_matrix
from .core import DEFAULT_TOL, Basis, InadmissibleParameterError, Tolerance, hadamard_defect
from .grassmann import distance_table, gram_deviations, spread_upper_bound


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spread_and_grads(unitaries: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective F = sum_{i<j} D2_c and its Euclidean gradient for each basis matrix.

    Uses the overlap form of the distance; the gradient of the pair term for
    the first slot is -4 U_j K^T with K = (|G|^2 - 1/n) * conj(G) and
    G = U_i^dag U_j, which by symmetry covers both slots when summed over
    ordered pairs.
    """
    us = np.asarray(unitaries)
    m, n, _ = us.shape
    g, dev = gram_deviations(us)
    f = m * (m - 1) / 2 * (n - 1) - 0.5 * float(np.einsum("ijab,ijab->", dev, dev))
    # remove the diagonal pair terms from both the objective and the gradient
    diag = np.einsum("iiab,iiab->", dev, dev)
    f += 0.5 * float(diag)
    k = dev * g.conj()
    for i in range(m):
        k[i, i] = 0.0
    grads = -4.0 * np.einsum("jab,ijcb->iac", us, k)
    return f, grads


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each skew-Hermitian matrix in a stack (..., n, n), unitary up to rounding.

    -iA is Hermitian with eigendecomposition V diag(w) V^dag, so
    exp(A) = V diag(exp(iw)) V^dag.
    """
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


STOP_REASONS = ("target", "gradient", "step-underflow", "iteration-cap")
INITIAL_STEP = 0.05  # the first trial step size of every ascent


@dataclass
class SpreadResult:
    """Outcome of one ascent run; `stop_reason` is one of STOP_REASONS."""

    n: int
    m: int
    objective: float
    upper_bound: float
    bases: list[Basis]
    trajectory: np.ndarray  # objective after each accepted step
    seed: int | None
    trials: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        """Whether the run reached its target or a critical point (not a step underflow or the cap)."""
        return self.stop_reason in ("target", "gradient")


def maximize_spread(
    n: int,
    m: int,
    seed: int | None = 0,
    iterations: int = 4000,
    frozen: list[np.ndarray] | None = None,
    target: float | None = None,
) -> SpreadResult:
    """Local ascent of the spread objective over (m-1) unitaries; the first basis stays standard.

    Optional `frozen` matrices occupy the slots after the standard basis and
    are never moved.  Steps follow the Riemannian gradient, U <- U exp(eps A)
    with A the skew-Hermitian projection of U^dag grad, and eps adapted by
    backtracking; accepted steps never decrease the objective.  `target`
    stops the run early once reached (useful for extension scans).
    """
    if n < 2 or m < 2:
        raise InadmissibleParameterError("need n >= 2 and m >= 2")
    frozen = list(frozen or [])
    if len(frozen) > m - 1:
        raise ValueError(f"{len(frozen)} frozen bases do not fit in m = {m}")
    rng = np.random.default_rng(seed)
    us = np.empty((m, n, n), dtype=complex)
    us[0] = np.eye(n)
    for i, mat in enumerate(frozen, start=1):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (n, n):
            raise ValueError(f"frozen matrix {i - 1} has shape {mat.shape}, expected ({n}, {n})")
        us[i] = mat
    lo = 1 + len(frozen)  # the free slots are us[lo:]
    for i in range(lo, m):
        us[i] = haar_unitary(n, rng)

    upper = spread_upper_bound(n, m)
    f, grads = spread_and_grads(us)
    trajectory = [f]
    eps = INITIAL_STEP
    stop_reason = "iteration-cap"
    trials = 0

    while trials < iterations:
        trials += 1
        if target is not None and f >= target:
            stop_reason = "target"
            break
        g = us[lo:].conj().swapaxes(1, 2) @ grads[lo:]
        skews = 0.5 * (g - g.conj().swapaxes(1, 2))
        gnorm_sq = float(np.sum(np.abs(skews) ** 2))
        if gnorm_sq < 1e-20:
            stop_reason = "gradient"
            break
        trial_us = us.copy()
        trial_us[lo:] = us[lo:] @ expm(eps * skews)
        f_trial, grads_trial = spread_and_grads(trial_us)
        if f_trial >= f + 1e-4 * eps * gnorm_sq:
            us, f, grads = trial_us, f_trial, grads_trial
            trajectory.append(f)
            eps = min(eps * 1.3, 2.0)
        else:
            eps *= 0.5
            if eps < 1e-14:
                stop_reason = "step-underflow"
                break

    bases = [Basis(us[0], label="standard")]
    for i in range(1, m):
        role = "frozen" if i <= len(frozen) else "optimized"
        bases.append(Basis(us[i], label=f"{role}-{i}"))
    return SpreadResult(
        n=n,
        m=m,
        objective=f,
        upper_bound=upper,
        bases=bases,
        trajectory=np.asarray(trajectory),
        seed=seed,
        trials=trials,
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a family scan."""

    params: tuple[float, ...]
    admissible: bool
    hadamard_defect: float
    distances: tuple[float, ...]
    extension_score: float


def scan_family(
    family: str,
    grid: np.ndarray,
    against: list[Basis],
    extension_m: int | None = None,
    seeds: tuple[int, ...] = (0, 1),
    iterations: int = 4000,
    tol: Tolerance = DEFAULT_TOL,
) -> list[ScanRow]:
    """Evaluate a catalog family over a parameter grid.

    Per grid point: the Hadamard defect, the chordal distance to each fixed
    basis, and (when extension_m is given) the best spread objective over
    extension_m bases with the standard basis and the family member frozen.
    Inadmissible points become rows with NaN entries rather than failures.
    """
    if extension_m is not None and not seeds:
        raise InadmissibleParameterError("an extension scan needs at least one seed")
    arity = FAMILY_ARITY[family]
    pts = np.asarray(grid, dtype=float).reshape(-1, arity) if arity else np.zeros((1, 0))
    rows: list[ScanRow] = []
    for params in pts:
        try:
            mat = family_matrix(FamilyPoint(family, tuple(params)))
        except InadmissibleParameterError:
            rows.append(
                ScanRow(tuple(params), False, float("nan"),
                        (float("nan"),) * len(against), float("nan"))
            )
            continue
        basis = Basis(mat, label=f"{family}{tuple(round(p, 6) for p in params)}")
        dists = tuple(float(d) for d in distance_table([*against, basis], tol)[-1, :-1]) if against else ()
        score = float("nan")
        if extension_m is not None:
            target = spread_upper_bound(basis.dim, extension_m) - 1e-7
            best = -np.inf
            for seed in seeds:
                result = maximize_spread(
                    basis.dim, extension_m, seed=seed, iterations=iterations,
                    frozen=[mat], target=target,
                )
                best = max(best, result.objective)
                if best >= target:
                    break
            score = float(best)
        rows.append(ScanRow(tuple(params), True, hadamard_defect(mat), dists, score))
    return rows
