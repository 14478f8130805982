"""Riemannian ascent of the pairwise chordal-distance sum over tuples of bases,
and parameter scans over the catalog families."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import FAMILIES, family_matrix
from .core import DEFAULT_TOL, Basis, InadmissibleParameterError, Tolerance, hadamard_defect
from .grassmann import distance_table, gram_deviations, spread_upper_bound


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@lru_cache(maxsize=None)
def _off_diagonal_blocks(m: int, n: int) -> np.ndarray:
    """Read-only (mn, mn) mask: 0 on the m diagonal n x n blocks, 1 elsewhere."""
    mask = 1.0 - np.kron(np.eye(m), np.ones((n, n)))
    mask.setflags(write=False)
    return mask


def _spread(us: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective F = sum_{i<j} D2_c of a stack (m, n, n), with the Gram matrix G of
    `gram_deviations` and its deviation |G|^2 - 1/n zeroed on the diagonal blocks.

    The off-diagonal blocks hold each unordered pair twice, hence the factor 1/2.
    """
    m, n, _ = us.shape
    g, dev = gram_deviations(us)
    dev *= _off_diagonal_blocks(m, n)
    flat = dev.ravel()
    return spread_upper_bound(n, m) - 0.5 * float(flat @ flat), g, dev


def spread_and_grads(unitaries: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective F = sum_{i<j} D2_c and its Euclidean gradient for each basis matrix.

    Uses the overlap form of the distance on the flat Gram matrix G = X^dag X,
    X = [U_0 | ... | U_{m-1}]: with K = (|G|^2 - 1/n) * conj(G), zeroed on the
    diagonal blocks, the gradient for slot i is block column i of -4 X K^T.
    """
    us = np.asarray(unitaries)
    m, n, _ = us.shape
    f, g, dev = _spread(us)
    x = us.transpose(1, 0, 2).reshape(n, m * n)
    grads = -4.0 * (x @ (dev * g.conj()).T)
    return f, grads.reshape(n, m, n).transpose(1, 0, 2)


def _ascent_skews(g: np.ndarray, dev: np.ndarray, n: int, lo: int) -> np.ndarray:
    """Skew-Hermitian parts of U_i^dag grad_i for the slots i >= lo, from the output of `_spread`.

    U_i^dag grad_i is diagonal block i of -4 G K^T, so only the rows of G and
    K = dev * conj(G) that belong to those slots are multiplied, slot by slot.
    """
    width = g.shape[1]
    k = dev[lo * n:] * g[lo * n:].conj()
    blocks = g[lo * n:].reshape(-1, n, width) @ k.reshape(-1, n, width).swapaxes(1, 2)
    # blocks = -(1/4) U_i^dag grad_i, whose skew-Hermitian part is then 2 (blocks^dag - blocks)
    return 2.0 * (blocks.conj().swapaxes(1, 2) - blocks)


def _exp_skew(w: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """exp(eps A) for skew-Hermitian A with -iA = V diag(w) V^dag: V diag(exp(i eps w)) V^dag."""
    return (v * np.exp(1j * eps * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each skew-Hermitian matrix in a stack (..., n, n), unitary up to rounding.

    -iA is Hermitian with eigendecomposition V diag(w) V^dag, so
    exp(A) = V diag(exp(iw)) V^dag; the ascent's retraction uses the same formula.
    """
    w, v = np.linalg.eigh(-1j * a)
    return _exp_skew(w, v, 1.0)


def _ascent_direction(
    g: np.ndarray, dev: np.ndarray, n: int, lo: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared norm |A|^2 of the skews A of the slots i >= lo, and the eigendecomposition
    (w, v) of -iA, which every trial step from this state reuses; |A|^2 = sum w^2."""
    w, v = np.linalg.eigh(-1j * _ascent_skews(g, dev, n, lo))
    flat = w.ravel()
    return float(flat @ flat), w, v


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
    backtracking.  A step is accepted only if it raises the objective strictly
    above f + 1e-4 eps |A|^2, so the trajectory is strictly increasing and a
    plateau ends in a step underflow.  Each accepted state is diagonalized
    once, -iA = V diag(w) V^dag, and every trial from it, rejected ones
    included, retracts with exp(eps A) = V diag(exp(i eps w)) V^dag.  `target`
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
    f, *gram = _spread(us)
    gnorm_sq, w, v = _ascent_direction(*gram, n, lo)
    trajectory = [f]
    eps = INITIAL_STEP
    stop_reason = "iteration-cap"
    trials = 0

    while trials < iterations:
        trials += 1
        if target is not None and f >= target:
            stop_reason = "target"
            break
        if gnorm_sq < 1e-20:
            stop_reason = "gradient"
            break
        trial_us = np.concatenate((us[:lo], us[lo:] @ _exp_skew(w, v, eps)))
        f_trial, *gram = _spread(trial_us)
        if f_trial > f + 1e-4 * eps * gnorm_sq:
            us, f = trial_us, f_trial
            gnorm_sq, w, v = _ascent_direction(*gram, n, lo)
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
    arity = len(FAMILIES[family][1])
    pts = np.asarray(grid, dtype=float).reshape(-1, arity) if arity else np.zeros((1, 0))
    rows: list[ScanRow] = []
    for params in pts:
        try:
            mat = family_matrix(family, params)
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
