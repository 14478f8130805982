"""Exhaustive exact searches over matrices with root-of-unity entries.

All predicates used for pruning are exact: a candidate column is a vector of
k-th roots of unity, and orthogonality/unbiasedness between two dephased
columns depends only on their exponent difference.  The k^(n-1) possible
difference vectors are classified once by one exact test, "the sum of the
roots has squared modulus t" decided in Z[zeta] (t = 0 for orthogonality,
t = n for unbiasedness).  After that the searches work on integer indices and
boolean tables: one dense orthogonality matrix per candidate set, and one
clique enumerator (`cliques`) that picks mutually orthogonal columns.
Hadamards are bucketed by the integer histogram of their Haagerup exponents.
The triplet and quartet stages only ever need columns unbiased to the
all-ones column (the base set), so their unbiasedness rows are packed bits
over the base set.

The three stages (Hadamards, triplets, quartets) split their work into
independent units and run them through one loop that charges a node budget.
When the budget runs out the search stops after the last whole unit; if a
`checkpoint_path` is given, the completed units and their results are written
there, and passing that path back as `resume_token` skips those units and
returns the full answer of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

import numpy as np

from .core import InadmissibleParameterError
from .core import haagerup_invariants  # noqa: F401  (kept importable here; perfbench/child.py wraps it)
from .cyclotomic import RootVector, reduction_matrix
from .io import FileFormatError

MAX_CANDIDATES = 10**8
_CHUNK = 1 << 19
_BUCKET_CHUNK = 512  # matrices per Haagerup batch: 512 x 1,296 exponents at n = 6


class EnumerationBudgetError(InadmissibleParameterError):
    """The requested root order / dimension combination is not enumerable."""


@dataclass(frozen=True)
class SearchSpec:
    """Parameters identifying one search run (used for checkpoint compatibility)."""

    n: int
    k: int
    depth: str  # hadamards | triplets | quartets
    budget: int | None = None
    resume_token: str | None = None

    def key(self) -> dict:
        return {"n": self.n, "k": self.k, "depth": self.depth}


@dataclass
class SearchOutcome:
    """Results of a search stage plus completeness bookkeeping."""

    spec: SearchSpec
    results: list
    complete: bool
    nodes_used: int
    resume_token: str | None = None

    @property
    def verdict(self) -> str:
        if not self.complete:
            return "inconclusive"
        return "empty" if not self.results else "non-empty"


class _NodeBudget:
    """Shared node counter; charge() returns False once the budget is spent."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> bool:
        self.used += amount
        return self.limit is None or self.used <= self.limit


def cliques(adj: np.ndarray, size: int, budget: _NodeBudget | None = None) -> list[list[int]] | None:
    """All `size`-cliques of a boolean adjacency matrix, in lexicographic order.

    Each clique is an increasing list of vertex indices.  Every vertex tried
    as a clique member charges one node to `budget`; once the budget is spent
    the enumeration stops and returns None, never a partial list.
    """
    out: list[list[int]] = []

    def extend(chosen: list[int], mask: np.ndarray) -> bool:
        if len(chosen) == size:
            out.append(chosen)
            return True
        start = chosen[-1] + 1 if chosen else 0
        for nxt in np.nonzero(mask[start:])[0] + start:
            if budget is not None and not budget.charge():
                return False
            if not extend(chosen + [int(nxt)], mask & adj[nxt]):
                return False
        return True

    return out if extend([], np.ones(len(adj), dtype=bool)) else None


def _digit_matrix(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exponent digits (little-endian base k) of candidate indices, one row per index."""
    out = np.empty((len(idx), n - 1), dtype=np.int16)
    for j in range(n - 1):
        out[:, j] = (idx // k**j) % k
    return out


def _row_histogram(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row histogram over 0..k-1 of an integer matrix (rows x cols)."""
    rows, cols = values.shape
    offsets = values + k * np.arange(rows, dtype=np.int64)[:, None]
    return np.bincount(offsets.ravel(), minlength=rows * k).reshape(rows, k)


@lru_cache(maxsize=8)
def _unit_roots(k: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    roots.setflags(write=False)
    return roots


# A floating sum of n unit roots is accurate to ~1e-14, so a 1e-6 margin can
# only ever discard candidates whose exact value provably misses the target;
# every near-hit is then decided exactly.
_PRESCREEN_MARGIN = 1e-6


def _norm_sq_is(exps: np.ndarray, k: int, target: int, approx: np.ndarray) -> np.ndarray:
    """Rows e of `exps` with |1 + sum_j zeta_k^(e_j)|^2 == target, decided exactly in Z[zeta_k].

    `approx` holds the same squared moduli in floating point; rows farther
    than _PRESCREEN_MARGIN from the target are misses without further work.
    The exact test expands s * conj(s) over the roots (the cyclic
    autocorrelation of the root histogram) and reduces it modulo Phi_k.
    Since s * conj(s) = 0 only for s = 0, target 0 decides s == 0.
    """
    near = np.abs(approx - target) < _PRESCREEN_MARGIN
    out = np.zeros(len(exps), dtype=bool)
    if not near.any():
        return out
    hist = _row_histogram(exps[near], k)
    hist[:, 0] += 1  # the fixed leading entry zeta^0
    corr = np.stack([np.sum(hist * np.roll(hist, -s, axis=1), axis=1) for s in range(k)], axis=1)
    corr[:, 0] -= target
    out[near] = np.all(corr @ reduction_matrix(k).T == 0, axis=1)
    return out


def _candidate_count(n: int, k: int) -> int:
    if n < 1 or k < 1:
        raise InadmissibleParameterError(f"need n >= 1 and k >= 1, got n = {n}, k = {k}")
    m = k ** (n - 1)
    if m > MAX_CANDIDATES:
        raise EnumerationBudgetError(
            f"k^(n-1) = {m} exceeds the enumeration guard ({MAX_CANDIDATES}); "
            "use the numerical multistart census instead"
        )
    return m


@lru_cache(maxsize=3)
def _difference_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(exponents, powers, orth_diff, unb_diff) for all k^(n-1) dephased difference vectors.

    orth_diff[i]: 1 + sum_a zeta^{d_a} = 0 exactly.
    unb_diff[i]:  |1 + sum_a zeta^{d_a}|^2 = n exactly.
    """
    m_total = _candidate_count(n, k)
    roots = _unit_roots(k)
    exps = np.empty((m_total, n - 1), dtype=np.int16)
    orth = np.zeros(m_total, dtype=bool)
    unb = np.zeros(m_total, dtype=bool)
    for lo in range(0, m_total, _CHUNK):
        hi = min(lo + _CHUNK, m_total)
        digits = _digit_matrix(np.arange(lo, hi, dtype=np.int64), n, k)
        exps[lo:hi] = digits
        norm_sq = np.abs(1.0 + roots[digits].sum(axis=1)) ** 2
        orth[lo:hi] = _norm_sq_is(digits, k, 0, norm_sq)
        unb[lo:hi] = _norm_sq_is(digits, k, n, norm_sq)
    powers = (k ** np.arange(n - 1)).astype(np.int64)
    for arr in (exps, orth, unb):
        arr.setflags(write=False)
    powers.setflags(write=False)
    return exps, powers, orth, unb


def _diff_indices(exps: np.ndarray, base: np.ndarray, k: int, powers: np.ndarray) -> np.ndarray:
    """Indices of (exps - base) mod k in the difference tables.

    Digit j contributes ((e_j - base_j) mod k) * k^j, read from a k-entry table
    per digit, so the rows need no modular arithmetic of their own.
    """
    table = (np.arange(k) - base.astype(np.int64)[:, None]) % k * powers[:, None]
    idx = np.zeros(len(exps), dtype=np.int64)
    for j, digit in enumerate(table):
        idx += digit[exps[:, j]]
    return idx


def _orth_adjacency(cols: np.ndarray, k: int, powers: np.ndarray, orth_diff: np.ndarray) -> np.ndarray:
    """Dense exact orthogonality matrix between dephased candidate columns (diagonal False)."""
    adj = np.empty((len(cols), len(cols)), dtype=bool)
    for i, col in enumerate(cols):
        adj[i] = orth_diff[_diff_indices(cols, col, k, powers)]
    np.fill_diagonal(adj, False)
    return adj


def _exponent_matrix(exps: np.ndarray, columns) -> np.ndarray:
    """Exponent matrix whose j-th column is dephased candidate columns[j] (row 0 is zero)."""
    mat = np.zeros((exps.shape[1] + 1, len(columns)), dtype=np.int16)
    mat[1:] = exps[np.asarray(columns, dtype=np.int64)].T
    return mat


def unbiased_vector_enumerate(n: int, k: int) -> list[RootVector]:
    """All dephased k-th-root vectors of length n exactly unbiased to every Fourier column.

    Exactness means |sum_a x_a q^{ab}|^2 = n in cyclotomic arithmetic for
    every b, with x_a = zeta_k^{e_a} and e_0 = 0.  These are precisely the
    root-restricted biunimodular candidates.
    """
    m_total = _candidate_count(n, k)
    kk = lcm(k, n)
    # Pass b = 0 runs chunked over everything; later passes touch survivors only.
    survivors = []
    for lo in range(0, m_total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, m_total), dtype=np.int64)
        survivors.append(idx[_fourier_unbiased_mask(_digit_matrix(idx, n, k), n, k, kk, b=0)])
    alive = np.concatenate(survivors)
    for b in range(1, n):
        if len(alive) == 0:
            break
        alive = alive[_fourier_unbiased_mask(_digit_matrix(alive, n, k), n, k, kk, b)]
    return [RootVector(k, (0,) + tuple(int(e) for e in row)) for row in _digit_matrix(alive, n, k)]


def _fourier_unbiased_mask(digits: np.ndarray, n: int, k: int, kk: int, b: int) -> np.ndarray:
    """Rows of k-th-root exponents whose vector is exactly unbiased to Fourier column b, in Z[zeta_kk]."""
    phases = (digits.astype(np.int64) * (kk // k) + (b * (kk // n) * np.arange(1, n))[None, :]) % kk
    norm_sq = np.abs(1.0 + _unit_roots(kk)[phases].sum(axis=1)) ** 2
    return _norm_sq_is(phases, kk, n, norm_sq)


def _write_checkpoint(path: str, spec: SearchSpec, completed: list[tuple[int, list]]) -> None:
    payload = {
        "spec": spec.key(),
        "completed": [{"unit": unit, "results": [np.asarray(r).tolist() for r in found]}
                      for unit, found in completed],
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def _read_checkpoint(path: str, spec: SearchSpec) -> dict[int, list]:
    """Completed unit -> its results, from a checkpoint written for the same search."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("spec") != spec.key():
        raise FileFormatError(f"checkpoint {path} does not belong to the search {spec.key()}")
    if "completed" not in payload:
        raise FileFormatError(f"checkpoint {path} stores no results; rerun the search from the start")
    try:
        return {int(item["unit"]): [_decode_result(r) for r in item["results"]]
                for item in payload["completed"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed checkpoint {path}: {exc}") from exc


def _decode_result(value) -> np.ndarray | tuple[np.ndarray, ...]:
    """An exponent matrix (Hadamard stage) or a tuple of them (triplet and quartet stages)."""
    arr = np.array(value, dtype=np.int16)
    return arr if arr.ndim == 2 else tuple(arr)


class _UnitLoop:
    """Budget, checkpoint and resume bookkeeping shared by the three search stages.

    Creating the loop validates the resume token; run() then walks the units
    in order, takes stored results for units a checkpoint already holds, and
    charges `unit_cost` nodes before running each other unit.  A unit is
    atomic: if it runs out of budget its partial results are dropped.
    """

    def __init__(self, depth: str, n: int, k: int, budget: int | None,
                 checkpoint_path: str | None, resume_token: str | None):
        self.spec = SearchSpec(n=n, k=k, depth=depth, budget=budget, resume_token=resume_token)
        self.done = _read_checkpoint(resume_token, self.spec) if resume_token else {}
        self.budget = _NodeBudget(budget)
        self.checkpoint_path = checkpoint_path

    def run(self, n_units: int, unit_cost: int, run_unit, prior=None) -> SearchOutcome:
        """run_unit(u) returns unit u's results, or None if the budget ran out inside it.

        `prior` is the earlier stage's outcome: its nodes count towards the
        budget, and an incomplete prior makes this stage incomplete too.
        """
        complete = True
        if prior is not None:
            self.budget.used += prior.nodes_used
            complete = prior.complete
        completed: list[tuple[int, list]] = []
        for unit in range(n_units):
            found = self.done.get(unit)
            if found is None:
                found = run_unit(unit) if self.budget.charge(unit_cost) else None
                if found is None:
                    complete = False
                    break
            completed.append((unit, found))
        token = None
        if not complete and self.checkpoint_path:
            _write_checkpoint(self.checkpoint_path, self.spec, completed)
            token = self.checkpoint_path
        return SearchOutcome(
            spec=self.spec,
            results=[r for _, found in completed for r in found],
            complete=complete,
            nodes_used=self.budget.used,
            resume_token=token,
        )


@dataclass
class HadamardEnumeration:
    """All dephased Hadamards for one (n, k), bucketed by their invariant multisets."""

    spec: SearchSpec
    matrices: list[np.ndarray]  # n x n exponent matrices
    buckets: list[list[int]]  # matrix indices grouped by equal Haagerup multiset
    complete: bool
    nodes_used: int
    resume_token: str | None = None


def root_hadamard_enumerate(
    n: int,
    k: int,
    budget: int | None = None,
    checkpoint_path: str | None = None,
    resume_token: str | None = None,
) -> HadamardEnumeration:
    """Column-by-column backtracking over dephased k-th-root Hadamards of size n.

    The first column is all-ones; remaining columns are drawn, in strictly
    increasing candidate order, from the dephased vectors exactly orthogonal
    to everything already chosen.  Column order is a symmetry of the
    enumeration, so each column set appears exactly once.

    Work is split into units by the first chosen column.  On budget
    exhaustion a checkpoint is written only if `checkpoint_path` is given;
    a run resumed from it (resume_token) returns every matrix an
    uninterrupted run returns.
    """
    loop = _UnitLoop("hadamards", n, k, budget, checkpoint_path, resume_token)
    exps, powers, orth_diff, _ = _difference_tables(n, k)
    s_idx = np.nonzero(orth_diff)[0]
    adj = _orth_adjacency(exps[s_idx], k, powers, orth_diff)

    def matrices_from(first: int) -> list[np.ndarray] | None:
        later = first + 1 + np.nonzero(adj[first, first + 1:])[0]
        found = cliques(adj[np.ix_(later, later)], n - 2, loop.budget)
        if found is None:
            return None
        # candidate 0 has all exponents 0: the all-ones first column
        return [_exponent_matrix(exps, [0, s_idx[first], *s_idx[later[rest]]]) for rest in found]

    outcome = loop.run(len(s_idx), 1, matrices_from)
    return HadamardEnumeration(
        spec=outcome.spec,
        matrices=outcome.results,
        buckets=_haagerup_buckets(outcome.results, k),
        complete=outcome.complete,
        nodes_used=outcome.nodes_used,
        resume_token=outcome.resume_token,
    )


def exponents_to_complex(exponent_matrix: np.ndarray, k: int) -> np.ndarray:
    """Normalized complex matrix for an exponent matrix over k-th roots."""
    exps = np.asarray(exponent_matrix)
    n = exps.shape[0]
    return np.exp(2j * np.pi * exps / k) / np.sqrt(n)


def _haagerup_buckets(matrices: list[np.ndarray], k: int) -> list[list[int]]:
    """Matrix indices grouped by equal Haagerup multiset, groups in order of first appearance.

    For an exponent matrix e the Haagerup invariants are the roots
    zeta^(e_ij - e_rj + e_rs - e_is), so each multiset is the histogram over
    0..k-1 of those n^4 exponents mod k: exact, with no snapping grid.
    Matrices are processed in chunks to bound the n^4-wide batch.
    """
    groups: dict[bytes, list[int]] = {}
    for lo in range(0, len(matrices), _BUCKET_CHUNK):
        batch = np.stack(matrices[lo:lo + _BUCKET_CHUNK]).astype(np.int16)
        # diff[b, i, r, j] = e_ij - e_rj; the invariant exponent is diff[i, r, j] - diff[i, r, s]
        diff = batch[:, :, None, :] - batch[:, None, :, :]
        exps = (diff[..., :, None] - diff[..., None, :]) % k
        for i, hist in enumerate(_row_histogram(exps.reshape(len(batch), -1), k), start=lo):
            groups.setdefault(hist.tobytes(), []).append(i)
    return list(groups.values())


@dataclass
class _TripletContext:
    """Shared exact tables for the triplet/quartet stages.

    Every column of H2 (and H3) is unbiased to the all-ones column of H1, so
    candidate rows are kept over that base set only: `base_idx` holds its
    global candidate indices in increasing order, `base_exps` their exponents.
    """

    n: int
    k: int
    exps: np.ndarray
    powers: np.ndarray
    orth_diff: np.ndarray
    unb_diff: np.ndarray
    base_idx: np.ndarray
    base_exps: np.ndarray
    row_cache: dict = field(default_factory=dict)

    def unbiased_row(self, cand: int) -> np.ndarray:
        """Packed bits over the base set: unbiased to candidate column `cand`."""
        if cand not in self.row_cache:
            idx = _diff_indices(self.base_exps, self.exps[cand], self.k, self.powers)
            self.row_cache[cand] = np.packbits(self.unb_diff[idx])
        return self.row_cache[cand]

    def candidates_for(self, matrix: np.ndarray) -> np.ndarray:
        """Global candidate indices unbiased to every column of a dephased matrix."""
        packed = np.packbits(np.ones(len(self.base_idx), dtype=bool))  # column 0: all-ones
        for col in range(1, self.n):
            cand = int(matrix[1:, col].astype(np.int64) @ self.powers)
            packed = packed & self.unbiased_row(cand)
        return self.base_idx[np.nonzero(np.unpackbits(packed, count=len(self.base_idx)))[0]]

    def mutually_orthogonal_bases(self, cand: np.ndarray) -> list[np.ndarray]:
        """Exponent matrices of all n-subsets of `cand` that are pairwise exactly orthogonal."""
        adj = _orth_adjacency(self.exps[cand], self.k, self.powers, self.orth_diff)
        return [_exponent_matrix(self.exps, cand[members]) for members in cliques(adj, self.n)]


def _make_context(n: int, k: int) -> _TripletContext:
    exps, powers, orth_diff, unb_diff = _difference_tables(n, k)
    # a candidate's difference to the all-ones column is itself, so the base set is unb_diff
    base_idx = np.nonzero(unb_diff)[0]
    return _TripletContext(
        n=n, k=k, exps=exps, powers=powers, orth_diff=orth_diff, unb_diff=unb_diff,
        base_idx=base_idx, base_exps=exps[base_idx],
    )


def mub_triplet_search(
    n: int,
    k: int,
    budget: int | None = None,
    checkpoint_path: str | None = None,
    resume_token: str | None = None,
    hadamards: HadamardEnumeration | None = None,
) -> SearchOutcome:
    """All pairs (H1, H2) of k-th-root matrices with {identity, H1, H2} pairwise MUB.

    H1 runs over the dephased Hadamard enumeration; H2 over column-dephased
    matrices whose columns are exactly unbiased to every column of H1 and
    exactly orthogonal to one another.  Every k-th-root triplet containing
    the standard basis is equivalent to one of this shape.
    """
    loop = _UnitLoop("triplets", n, k, budget, checkpoint_path, resume_token)
    if hadamards is None:
        hadamards = root_hadamard_enumerate(n, k, budget=None)
    ctx = _make_context(n, k)

    def triplets_from(hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
        h1 = hadamards.matrices[hi]
        return [(h1, h2) for h2 in ctx.mutually_orthogonal_bases(ctx.candidates_for(h1))]

    return loop.run(len(hadamards.matrices), ctx.n, triplets_from, prior=hadamards)


def mub_quartet_search(
    n: int,
    k: int,
    budget: int | None = None,
    checkpoint_path: str | None = None,
    resume_token: str | None = None,
    triplets: SearchOutcome | None = None,
) -> SearchOutcome:
    """Extend every MUB triplet by a further k-th-root Hadamard unbiased to both.

    The third matrix's columns must be unbiased to every column of H1 and H2,
    so they are filtered from the H1 candidate set; completeness follows from
    the triplet search's.  An exhausted budget yields verdict 'inconclusive',
    never 'empty'.
    """
    loop = _UnitLoop("quartets", n, k, budget, checkpoint_path, resume_token)
    if triplets is None:
        triplets = mub_triplet_search(n, k, budget=None)
    ctx = _make_context(n, k)
    cand_cache: dict[bytes, np.ndarray] = {}

    def quartets_from(ti: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        h1, h2 = triplets.results[ti]
        key = h1.tobytes()
        if key not in cand_cache:
            cand_cache[key] = ctx.candidates_for(h1)
        cand = cand_cache[key]
        sub = ctx.exps[cand]
        keep = np.ones(len(cand), dtype=bool)
        for col in range(n):
            keep &= ctx.unb_diff[_diff_indices(sub, h2[1:, col], k, ctx.powers)]
        return [(h1, h2, h3) for h3 in ctx.mutually_orthogonal_bases(cand[keep])]

    return loop.run(len(triplets.results), ctx.n, quartets_from, prior=triplets)
