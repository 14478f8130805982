"""Exhaustive exact searches over matrices with root-of-unity entries.

All predicates used for pruning are exact: a candidate column is a vector of
k-th roots of unity, and orthogonality/unbiasedness between two dephased
columns depends only on their exponent difference.  Difference vectors are
classified by one exact test, "the sum of the roots has squared modulus t"
decided in Z[zeta] (t = 0 orthogonal, t = n unbiased), once per permutation
orbit of their digits (`_orbit_hits`).  A vector is indexed by its exponent
digits in base k, and the verdicts are two boolean tables over those indices;
`_digit_matrix` is the one decoder, and each stage decodes only the rows it
reads.  One chunked kernel (`_difference_bits`) looks up the verdicts of
many row/column differences at once and returns them as Python-int bitset
rows; one clique enumerator (`cliques`) walks those rows to pick mutually
orthogonal columns.  Hadamards are bucketed by the integer histogram of
their Haagerup exponents (a necessary condition for equivalence, not a
sufficient one).  The triplet and quartet stages only need columns unbiased
to the all-ones column (the base set), so they work in positions of that
set, with the unbiasedness rows of every H1 column as bitsets over it.

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
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement
from math import comb, lcm
from operator import and_

import numpy as np

from .core import InadmissibleParameterError
from .core import haagerup_invariants  # noqa: F401  (kept importable here; perfbench/child.py wraps it)
from .cyclotomic import RootVector, reduction_matrix
from .io import FileFormatError

MAX_CANDIDATES = 10**8
_BUCKET_CHUNK = 512  # matrices per Haagerup batch: 512 x 1,296 exponents at n = 6
_BLOCK = 1 << 15  # row x column pairs per chunk of `_difference_bits`
_GROUP_ENTRIES = 1 << 17  # largest lookup of a digit group: (2k)^3 up to k = 25


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


def cliques(
    adj: np.ndarray | list[int], size: int, budget: _NodeBudget | None = None, start: int | None = None
) -> list[list[int]] | None:
    """All `size`-cliques of a graph, in lexicographic order.

    `adj` is a boolean adjacency matrix or its rows as Python-int bitsets
    (bit j of row i is adj[i, j]); only the bits above i of row i are read.
    The cliques are drawn from the vertices in the bitset `start` (default:
    every vertex).  Each clique is an increasing list of vertex indices.
    Every vertex tried as a clique member charges one node to `budget`; once
    the budget is spent the enumeration stops and returns None, never a
    partial list.
    """
    rows = _bitsets(adj) if isinstance(adj, np.ndarray) else adj
    out: list[list[int]] = []

    def extend(chosen: list[int], mask: int) -> bool:
        if len(chosen) == size:
            out.append(chosen)
            return True
        while mask:  # the lowest set bit first, so the cliques come out in lexicographic order
            low = mask & -mask
            nxt = low.bit_length() - 1
            mask ^= low  # now only the vertices above nxt
            if budget is not None and not budget.charge():
                return False
            if not extend(chosen + [nxt], mask & rows[nxt]):
                return False
        return True

    return out if extend([], (1 << len(rows)) - 1 if start is None else start) else None


def _bitsets(block: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as Python-int bitsets (bit j of row i is block[i, j])."""
    packed = np.packbits(block, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _members(mask: int) -> list[int]:
    """The set bits of a bitset, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    if max(m, k * k) > MAX_CANDIDATES:  # the exact test reduces by the phi(k) x k `reduction_matrix(k)`
        raise EnumerationBudgetError(
            f"k^(n-1) = {m} and k^2 = {k * k} must not exceed the enumeration guard ({MAX_CANDIDATES}); "
            "use the numerical multistart census instead"
        )
    return m


def _orbit_hits(n: int, k: int, target: int) -> np.ndarray:
    """Sorted indices of the digit vectors e in [0, k)^(n-1) with |1 + sum_j zeta_k^(e_j)|^2 == target.

    `_norm_sq_is` decides one non-decreasing representative per digit multiset; each hit is
    expanded over the digits it has left, one position at a time, in time linear in the hits.
    """
    reps = np.fromiter(chain.from_iterable(combinations_with_replacement(range(k), n - 1)), dtype=np.int16)
    reps = reps.reshape(comb(k + n - 2, n - 1), n - 1)
    hits = reps[_norm_sq_is(reps, k, target, np.abs(1.0 + _unit_roots(k)[reps].sum(axis=1)) ** 2)]
    left = _row_histogram(hits, k)  # digits each partial arrangement has still to place
    idx = np.zeros(len(hits), dtype=np.int64)
    for j in range(n - 1):
        rows, digit = np.nonzero(left)
        idx = idx[rows] + digit * k**j
        left = left[rows]
        left[np.arange(len(rows)), digit] -= 1
    return np.sort(idx)


@lru_cache(maxsize=3)
def _difference_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(orth_diff, unb_diff) over all k^(n-1) dephased difference vectors, by candidate index.

    orth_diff[i]: 1 + sum_a zeta^{d_a} = 0 exactly.
    unb_diff[i]:  |1 + sum_a zeta^{d_a}|^2 = n exactly.
    The digits d of index i are `_digit_matrix`; the stages decode only the rows they read.
    """
    orth, unb = np.zeros((2, _candidate_count(n, k)), dtype=bool)
    orth[_orbit_hits(n, k, 0)] = True
    unb[_orbit_hits(n, k, n)] = True
    orth.setflags(write=False)
    unb.setflags(write=False)
    return orth, unb


@lru_cache(maxsize=8)
def _digit_groups(d: int, k: int) -> tuple[tuple[slice, np.ndarray, np.ndarray], ...]:
    """(digits, weights, lookup) per group of consecutive digits, for `_difference_bits`.

    A group's digits e are coded as e @ weights, in base 2k.  For two digit
    rows e and f, code(e) - code(f) + k * sum(weights) has the base-2k digits
    e_j - f_j + k, all in [1, 2k), with no borrows; `lookup` maps that number
    to the group's share of the candidate index: the sum over its digit
    positions j of ((e_j - f_j) mod k) * k^j.
    Groups are as wide as keeps a lookup within _GROUP_ENTRIES entries.
    """
    width = 1
    while width < d and (2 * k) ** (width + 1) <= _GROUP_ENTRIES:
        width += 1
    groups = []
    for lo in range(0, d, width):
        size = min(width, d - lo)
        shifted = _digit_matrix(np.arange((2 * k) ** size), size + 1, 2 * k).astype(np.int64)
        lookup = (shifted - k) % k @ k ** np.arange(lo, lo + size, dtype=np.int64)
        weights = (2 * k) ** np.arange(size, dtype=np.int64)
        weights.setflags(write=False)
        lookup.setflags(write=False)
        groups.append((slice(lo, lo + size), weights, lookup))
    return tuple(groups)


def _difference_bits(table: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int) -> list[int]:
    """Per digit row r of `rows`, the bitset over `cols`: bit j is table[index of (cols[j] - r) mod k].

    Per digit group (`_digit_groups`) one subtraction of codes and one gather
    give that group's share of the index; one gather from `table` then gives
    the verdicts.  Rows go through in chunks of about _BLOCK pairs, so no
    block larger than that is ever held.
    """
    groups = _digit_groups(rows.shape[1], k)
    row_codes = [rows[:, digits].astype(np.int64) @ weights for digits, weights, _ in groups]
    col_codes = [cols[:, digits].astype(np.int64) @ weights + k * int(weights.sum())
                 for digits, weights, _ in groups]
    step = max(1, _BLOCK // max(1, len(cols)))
    out: list[int] = []
    for lo in range(0, len(rows), step):
        idx = sum(lookup.take(cc - rc[lo:lo + step, None])
                  for (_, _, lookup), rc, cc in zip(groups, row_codes, col_codes))
        out += _bitsets(table.take(idx))
    return out


def _exponent_matrix(cols: np.ndarray) -> np.ndarray:
    """Exponent matrix whose j-th column is the dephased digit row cols[j] (row 0 is zero)."""
    mat = np.zeros((cols.shape[1] + 1, len(cols)), dtype=np.int16)
    mat[1:] = cols.T
    return mat


def unbiased_vector_enumerate(n: int, k: int) -> list[RootVector]:
    """All dephased k-th-root vectors of length n exactly unbiased to every Fourier column.

    Exactness means |sum_a x_a q^{ab}|^2 = n in cyclotomic arithmetic for
    every b, with x_a = zeta_k^{e_a} and e_0 = 0.  These are precisely the
    root-restricted biunimodular candidates.
    """
    _candidate_count(n, k)
    kk = lcm(k, n)
    # column b = 0 depends on the digit multiset only; the others are decided on its survivors
    alive = _orbit_hits(n, k, n)
    for b in range(1, n):
        phases = (_digit_matrix(alive, n, k).astype(np.int64) * (kk // k) + b * (kk // n) * np.arange(1, n)) % kk
        alive = alive[_norm_sq_is(phases, kk, n, np.abs(1.0 + _unit_roots(kk)[phases].sum(axis=1)) ** 2)]
    return [RootVector(k, (0,) + tuple(int(e) for e in row)) for row in _digit_matrix(alive, n, k)]


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
        if n < 2:  # the 1 x 1 matrix (1) is a Hadamard that no stage's column search represents
            raise InadmissibleParameterError(f"the searches need n >= 2, got n = {n}")
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
    orth_diff, _ = _difference_tables(n, k)
    # row 0 is candidate 0, the all-ones first column (all exponents 0): orthogonal to every other row
    cols = _digit_matrix(np.concatenate(([0], np.flatnonzero(orth_diff))), n, k)
    adj = _difference_bits(orth_diff, cols, cols, k)

    def matrices_from(unit: int) -> list[np.ndarray] | None:
        first = unit + 1
        later = adj[first] >> (first + 1) << (first + 1)
        found = cliques(adj, n - 2, loop.budget, start=later)
        if found is None:
            return None
        return [_exponent_matrix(cols[[0, first, *rest]]) for rest in found]

    outcome = loop.run(len(cols) - 1, 1, matrices_from)
    return HadamardEnumeration(
        spec=outcome.spec,
        matrices=outcome.results,
        buckets=_haagerup_buckets(outcome.results, k),
        complete=outcome.complete,
        nodes_used=outcome.nodes_used,
        resume_token=outcome.resume_token,
    )


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
    candidate columns are kept as positions in that base set: `base` holds
    the digit rows of its members in increasing candidate order, and sets of
    them are Python-int bitsets over those positions.
    """

    n: int
    k: int
    orth_diff: np.ndarray
    unb_diff: np.ndarray
    base: np.ndarray
    unbiased: dict[bytes, int]  # H1 column digits -> bitset of the base set unbiased to it

    def candidates_for(self, matrix: np.ndarray) -> int:
        """Bitset of the base set: the columns unbiased to every column of a dephased H1."""
        return reduce(and_, (self.unbiased[col.tobytes()] for col in matrix[1:, 1:].T))

    def mutually_orthogonal_bases(self, cand: list[int]) -> list[np.ndarray]:
        """Exponent matrices of the n-subsets of base positions `cand` that are pairwise exactly orthogonal."""
        cols = self.base[cand]
        adj = _difference_bits(self.orth_diff, cols, cols, self.k)
        return [_exponent_matrix(cols[members]) for members in cliques(adj, self.n)]


def _make_context(n: int, k: int, matrices: list[np.ndarray]) -> _TripletContext:
    """The context for H1 running over `matrices`, with the unbiased rows of all their columns."""
    orth_diff, unb_diff = _difference_tables(n, k)
    # a candidate's difference to the all-ones column is itself, so the base set is unb_diff
    base = _digit_matrix(np.flatnonzero(unb_diff), n, k)
    h1 = np.array(matrices, dtype=np.int16).reshape(-1, n, n)
    cols = np.unique(h1[:, 1:, 1:].transpose(0, 2, 1).reshape(-1, n - 1), axis=0)
    unbiased = dict(zip(map(bytes, cols), _difference_bits(unb_diff, cols, base, k)))
    return _TripletContext(n=n, k=k, orth_diff=orth_diff, unb_diff=unb_diff, base=base, unbiased=unbiased)


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
    ctx = _make_context(n, k, hadamards.matrices)

    def triplets_from(hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
        h1 = hadamards.matrices[hi]
        return [(h1, h2) for h2 in ctx.mutually_orthogonal_bases(_members(ctx.candidates_for(h1)))]

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
    ctx = _make_context(n, k, [h1 for h1, _ in triplets.results])

    def quartets_from(ti: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        h1, h2 = triplets.results[ti]
        cand = _members(ctx.candidates_for(h1))
        keep = reduce(and_, _difference_bits(ctx.unb_diff, h2[1:].T, ctx.base[cand], k))
        return [(h1, h2, h3) for h3 in ctx.mutually_orthogonal_bases([cand[i] for i in _members(keep)])]

    return loop.run(len(triplets.results), ctx.n, quartets_from, prior=triplets)
