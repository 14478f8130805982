"""Exhaustive exact searches over matrices with root-of-unity entries.

All predicates used for pruning are exact: a candidate column is a vector of
k-th roots of unity, and orthogonality/unbiasedness between two dephased
columns depends only on their exponent difference.  Difference vectors are
classified by the one batched exact test `cyclotomic._norm_sq_is`, "the sum
of the roots has squared modulus t" in Z[zeta] (t = 0 orthogonal, t = n
unbiased), once per permutation orbit of their digits (`_orbit_hits`).  That
kernel unranks the orbit representatives in fixed blocks of _BLOCK
(`_multiset_blocks`), so it holds one block and the hits, never all
C(k+n-2, n-1) representatives.  A vector is indexed by its exponent digits in
base k, and the verdicts are kept only as the sorted indices of the hits, one
read-only array per relation (`_difference_tables`); `_digit_matrix` is the
one decoder, and each stage decodes only the rows it reads.  One chunked
kernel (`_difference_bits`) decides many row/column differences at once, by
a float prescreen and exact membership in those arrays, and returns each
row's hits as a sorted array of column positions, all rows together in CSR
form (indptr, indices).  Over a list closed under permutations of the digit
positions, such as the Hadamard stage's columns, `_orbit_bits` decides one
row per orbit with it, permutes that row onto the rest of the orbit and
keeps each row's neighbours above it.  One clique enumerator (`cliques`)
grows the cliques of such a graph level by level, intersecting sorted
neighbour arrays, to pick mutually orthogonal columns; the Hadamard stage
runs it over blocks of units cut at multiples of _BLOCK candidate tests.
Hadamards are bucketed by the integer histogram of their Haagerup exponents
(a necessary condition for equivalence, not a sufficient one).
The triplet and quartet stages are one extension step (`_extend`): each
takes tuples (H1, ...) and extends every tuple by the matrices whose columns
are unbiased to all of its columns and orthogonal to one another.  Those
columns are unbiased to the all-ones column (the base set), so the step
works in positions of that set: the unbiasedness row of one H1 column, a
sorted array of positions, gives the candidates, and the tuple's other
columns are checked against those alone; triplets extend (H1,), quartets
extend (H1, H2).  A unit left with fewer than n candidates stops before the
clique enumeration, since no n-clique can come of them.  Permuting the digit
positions (rows 1..n-1 of every matrix) is an exact symmetry of both
relations, so the step solves one unit per orbit of the adjacent digit
transpositions (`_orbit_forest`) and maps that representative's extensions
onto the rest of its orbit: at k = 12 the 2,184 triplet units fall into 28
orbits.

The three stages (Hadamards, triplets, quartets) split their work into
independent units in groups that share work (a block of Hadamard units, an
orbit of tuples) and run them through one loop (`_UnitLoop`), which runs a
group once, at its first pending unit, and charges each unit its own nodes.  A
stage's results are one int16 array, (count, n, n) Hadamards or (count, m, n, n)
tuples of m matrices, from the unit that finds them to `search`'s output.  A
node budget bounds the nodes of the stage that was asked for; it is checked
before each unit, never inside one, so a run overruns it by at most one unit,
and a budget of at least 1 always completes a pending unit.  The earlier
stages that stage needs run in full, and the reported node count adds theirs
to its own.  If a `checkpoint_path` is given, the completed units and their
results are written there, and passing that path back as `resume_token` skips
those units and returns the full answer of an uninterrupted run.  `io`
writes and reads the checkpoint (`write_checkpoint`, `read_checkpoint`); before
any unit runs, the loop refuses a stored unit that is not one of the stage's or
holds results that are not its own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import comb, lcm

import numpy as np

from .core import InadmissibleParameterError
from .core import haagerup_invariants  # noqa: F401  (kept importable here; perfbench/child.py wraps it)
from .cyclotomic import _PRESCREEN_MARGIN, RootVector, _norm_sq_is, _row_histogram, _unit_roots
from .io import FileFormatError, read_checkpoint, result_shape, write_checkpoint

MAX_CANDIDATES = 10**8
_BUCKET_CHUNK = 512  # matrices per Haagerup batch: 512 x 225 exponents at n = 6
# digit multisets per block of `_orbit_hits`; row x column pairs per chunk of `_difference_bits`;
# candidate tests per block of Hadamard units
_BLOCK = 1 << 15


class EnumerationBudgetError(InadmissibleParameterError):
    """The requested root order / dimension combination is not enumerable."""


@dataclass(frozen=True)
class SearchSpec:
    """Parameters identifying one search run (used for checkpoint compatibility)."""

    n: int
    k: int
    depth: str  # hadamards | triplets | quartets


@dataclass
class SearchOutcome:
    """Results of a search stage plus completeness bookkeeping."""

    spec: SearchSpec
    results: np.ndarray  # int16 exponent matrices: (count, n, n), or (count, m, n, n) for tuples of m
    complete: bool
    nodes_used: int
    resume_token: str | None = None

    @property
    def verdict(self) -> str:
        if not self.complete:
            return "inconclusive"
        return "empty" if len(self.results) == 0 else "non-empty"


def cliques(adj: np.ndarray | tuple[np.ndarray, np.ndarray], size: int,
            start: np.ndarray | None = None, nodes: np.ndarray | None = None) -> np.ndarray:
    """All `size`-cliques of a graph whose least vertex is in `start`, in lexicographic order.

    `adj` is a boolean adjacency matrix, of which only the upper triangle is
    read, or the CSR form (indptr, indices) of the graph's neighbours above
    each vertex, sorted within each row.  `start` is an increasing array of
    vertices (default: every vertex).  Returns one increasing clique per row;
    size 0 gives the one empty clique.

    The cliques grow one level at a time.  Each partial clique carries the
    sorted list of vertices that extend it, at first its least vertex's
    neighbours above it; the child made by adding candidate w keeps the
    parent's candidates above w that are neighbours of w.  Each such
    intersection tests the elements of its smaller side against the larger
    one, by `searchsorted` among the sorted keys of the graph's edges or of
    the parents' candidates.  Parents are in lexicographic order and each
    one's children follow its candidate order, so every level is too.  If
    `nodes` is given (an integer array aligned with `start`), each start
    vertex's number of cliques of sizes 2..size with it as least vertex is
    added to it: the vertices a depth-first walk from it would try.
    """
    if isinstance(adj, np.ndarray):
        adj = _csr(*np.nonzero(np.triu(adj, 1)), len(adj))
    indptr, indices = adj
    count = len(indptr) - 1
    found = (np.arange(count) if start is None else np.asarray(start, dtype=np.intp))[:, None]
    if size == 0:
        return np.empty((1, 0), dtype=np.intp)
    degree = np.diff(indptr)
    edges = np.repeat(np.arange(count), degree) * count + indices  # the edge (v, w) as the sorted key v * count + w
    origin = np.arange(len(found))  # each partial clique's row in `start`
    roots = found[:, 0]
    # partial clique p's candidates are cand[bounds[p]:bounds[p + 1]]
    bounds = np.concatenate(([0], np.cumsum(degree[roots])))
    cand = indices[_ranges(indptr[roots], degree[roots])]
    for level in range(1, size):
        parent = np.repeat(np.arange(len(found)), np.diff(bounds))
        found = np.column_stack((found[parent], cand))
        origin = origin[parent]
        if nodes is not None:
            nodes += np.bincount(origin, minlength=len(nodes))
        if level + 1 == size:
            break
        after = bounds[1:][parent] - np.arange(len(cand)) - 1  # the parent's candidates after w = cand
        degree_w = degree[cand]
        # the smaller side of each child's intersection: w's neighbours, tested in the parent's candidates ...
        own = np.flatnonzero(degree_w < after)
        own_child = np.repeat(own, degree_w[own])
        own_tested = indices[_ranges(indptr[cand[own]], degree_w[own])]
        own_hit = _contains(parent * count + cand, parent[own_child] * count + own_tested)
        # ... or the parent's candidates after w, tested in w's neighbours
        rest = np.flatnonzero(degree_w >= after)
        rest_child = np.repeat(rest, after[rest])
        rest_tested = cand[_ranges(rest + 1, after[rest])]
        rest_hit = _contains(edges, cand[rest_child] * count + rest_tested)
        child = np.concatenate((own_child[own_hit], rest_child[rest_hit]))
        bounds = np.concatenate(([0], np.cumsum(np.bincount(child, minlength=len(cand)))))
        cand = np.concatenate((own_tested[own_hit], rest_tested[rest_hit]))[np.argsort(child, kind="stable")]
    return found


def _csr(rows: np.ndarray, cols: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR form (indptr, indices) of the pairs (rows[i], cols[i]) over `count` rows, given in row-major order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=count)))), cols


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + lengths[i] - 1, one after another."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _contains(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query is in the sorted array `keys`."""
    if not len(keys):
        return np.zeros(len(queries), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, queries), len(keys) - 1)] == queries


def _digit_matrix(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exponent digits (little-endian base k) of candidate indices, one row per index."""
    out = np.empty((len(idx), n - 1), dtype=np.int16)
    for j in range(n - 1):
        out[:, j] = (idx // k**j) % k
    return out


def _candidate_count(n: int, k: int) -> int:
    if n < 1 or k < 1:
        raise InadmissibleParameterError(f"need n >= 1 and k >= 1, got n = {n}, k = {k}")
    m = k ** (n - 1)
    if max(m, k * k) > MAX_CANDIDATES:  # k^2: a k-wide exact product row for each of up to k candidates
        raise EnumerationBudgetError(
            f"k^(n-1) = {m} and k^2 = {k * k} must not exceed the enumeration guard ({MAX_CANDIDATES}); "
            "use the numerical multistart census instead"
        )
    return m


def _approx_norm_sq(exps: np.ndarray, k: int) -> np.ndarray:
    """|1 + sum_j zeta_k^(e_j)|^2 per row e of `exps`, in floating point, one column at a time."""
    roots = _unit_roots(k)
    approx = np.ones(len(exps), dtype=complex)
    for column in exps.T:
        approx += roots[column]
    return np.abs(approx) ** 2


def _multiset_blocks(k: int, d: int):
    """The non-decreasing d-tuples over range(k) in lexicographic order, as int16 rows in blocks of _BLOCK.

    The order and the blocks are those of `combinations_with_replacement`.  A
    tuple a is unranked through its mirror b_j = k - 1 - a_(d-1-j): the
    combination c_j = b_j + j of range(k + d - 1) has the rank
    sum_j C(c_j, j + 1) in the combinatorial number system, and mirroring
    turns lexicographic order around, so the i-th tuple's mirror has the rank
    total - 1 - i.  c_(d-1) is the largest c with C(c, d) <= that rank, found
    by `searchsorted` over a table of binomials, and so on down with what is
    left of the rank.
    """
    tables = [np.array([comb(c, j + 1) for c in range(k + d - 1)], dtype=np.int64) for j in range(d)]
    total = comb(k + d - 1, d)
    for lo in range(0, total, _BLOCK):
        rank = total - 1 - np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)
        block = np.empty((len(rank), d), dtype=np.int16)
        for j in reversed(range(d)):
            c = np.searchsorted(tables[j], rank, side="right") - 1
            rank -= tables[j][c]
            block[:, d - 1 - j] = k - 1 + j - c
        rank = c = None  # only the block stays alive while the caller works on it
        yield block


def _orbit_hits(n: int, k: int, target: int) -> np.ndarray:
    """Sorted indices of the digit vectors e in [0, k)^(n-1) with |1 + sum_j zeta_k^(e_j)|^2 == target.

    `_norm_sq_is` decides one non-decreasing representative per digit multiset; each hit is
    expanded over the digits it has left, one position at a time, in time linear in the hits.
    The representatives stream through in blocks of _BLOCK (`_multiset_blocks`), so besides the
    hits the kernel holds one block and its float prescreen, never all C(k+n-2, n-1) of them.
    """
    d = n - 1
    count_dtype = np.min_scalar_type(d)  # no digit value is left to place more than n - 1 times
    found = []
    for reps in _multiset_blocks(k, d):
        hits = reps[_norm_sq_is(reps, k, target, _approx_norm_sq(reps, k))]
        left = np.zeros((len(hits), k), dtype=count_dtype)  # digits each partial arrangement has still to place
        for column in hits.T:
            left[np.arange(len(hits)), column] += 1
        idx = np.zeros(len(hits), dtype=np.int64)
        for j in range(d):
            rows, digit = np.nonzero(left)
            idx = idx[rows] + digit * k**j
            left = left[rows]
            left[np.arange(len(rows)), digit] -= 1
        found.append(idx)
    return np.sort(np.concatenate(found))


@lru_cache(maxsize=3)
def _difference_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(orth, unb): the sorted candidate indices of the dephased difference vectors d with
    1 + sum_a zeta^(d_a) = 0 (orth) and |1 + sum_a zeta^(d_a)|^2 = n (unb), exactly; read-only.

    These hit arrays are the only form of the verdicts: `_difference_bits` decides a pair by
    membership in them, and their digits (`_digit_matrix`) are the stages' candidate columns.
    """
    _candidate_count(n, k)
    hits = _orbit_hits(n, k, 0), _orbit_hits(n, k, n)
    for array in hits:
        array.setflags(write=False)
    return hits


def _difference_bits(target: int, rows: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per digit row r of `rows`, the positions j in `cols` with |1 + sum_i zeta_k^(cols[j, i] - r_i)|^2 == target.

    The target is 0 (orthogonal) or n (unbiased), for n = rows.shape[1] + 1;
    the hits come in CSR form (indptr, indices), increasing within each row.
    Every pair is first summed in floating point, one digit at a time; a pair
    farther than _PRESCREEN_MARGIN from the target is a miss.  Only the near
    pairs get their difference index, which decides them exactly by
    membership in the target's sorted hits (`_difference_tables`).  Rows go
    through in chunks of about _BLOCK pairs, so no block larger than that is
    ever held.
    """
    d = rows.shape[1]
    hits = _difference_tables(d + 1, k)[(0, d + 1).index(target)]
    weights = k ** np.arange(d, dtype=np.int64)
    row_roots = _unit_roots(k)[rows].conj()
    col_roots = _unit_roots(k)[np.ascontiguousarray(cols.T)]  # one contiguous row per digit position
    step = max(1, _BLOCK // max(1, len(cols)))
    buffers = np.empty((2, min(step, len(rows)), len(cols)), dtype=complex)  # reused: no page faults per chunk
    found_rows, found_cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(rows), step):
        chunk = row_roots[lo:lo + step]
        sums, term = buffers[:, :len(chunk)]
        sums.fill(1)
        for j in range(d):  # in place, with no matrix product: the kernel starts no BLAS threads
            sums += np.multiply.outer(chunk[:, j], col_roots[j], out=term)
        near = np.flatnonzero(np.abs(sums.real ** 2 + sums.imag ** 2 - target) < _PRESCREEN_MARGIN)
        r, c = np.divmod(near, len(cols))
        hit = _contains(hits, ((cols[c] - rows[lo + r]) % k) @ weights)
        found_rows.append(lo + r[hit])
        found_cols.append(c[hit])
    return _csr(np.concatenate(found_rows), np.concatenate(found_cols), len(rows))


def _orbit_bits(target: int, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The part above the diagonal of `_difference_bits(target, cols, cols, k)`, for digit rows closed under
    permutations of the digit positions.

    Both relations are invariant under those permutations, and the difference
    of two permuted rows is the permuted difference, so the neighbours of
    sigma(c) are sigma(neighbours of c).  Only the sorted digit rows, one per
    orbit, are decided, by `_difference_bits`.  A member whose digits are its
    representative's permuted by order = argsort(digits) has as neighbours the
    representative's neighbour digits dotted with weights[order]; any sorting
    permutation serves, since equal digits are interchangeable.  Those indices
    above a member's own are located by `searchsorted` among the rows' own,
    which must increase strictly.  A located index that does not match raises
    ValueError, and so does a list that some adjacent transposition of digits
    takes out of itself: the transpositions are checked first, since a gap
    that no representative's neighbour reaches would otherwise give wrong
    rows.
    """
    if not len(cols):
        return _csr(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    weights = k ** np.arange(cols.shape[1], dtype=np.int64)
    idx = cols @ weights
    if np.any(np.diff(idx) <= 0):
        raise ValueError("the digit rows must be in strictly increasing candidate order")

    def locate(targets: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(idx, targets), len(idx) - 1)
        if not np.array_equal(idx[at], targets):
            raise ValueError("the digit rows are not closed under permutations of the digit positions")
        return at

    for i in range(cols.shape[1] - 1):  # the adjacent transpositions generate every digit permutation
        locate(idx + (cols[:, i + 1] - cols[:, i]) * (weights[i] - weights[i + 1]))
    reps, orbit = np.unique(np.sort(cols, axis=1) @ weights, return_inverse=True)  # the sorted rows, by index
    by_orbit = np.split(np.argsort(orbit), np.cumsum(np.bincount(orbit))[:-1])
    rep_ptr, rep_hits = _difference_bits(target, _digit_matrix(reps, cols.shape[1] + 1, k), cols, k)
    rows, found = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for rep, members in enumerate(by_orbit):
        neighbours = cols[rep_hits[rep_ptr[rep]:rep_ptr[rep + 1]]].T
        placed = weights[np.argsort(cols[members], axis=1)]  # a member's neighbours are `neighbours` dotted with its row
        targets = np.sort(placed @ neighbours, axis=1)
        above = targets > idx[members, None]  # the rows' indices increase, so these are the neighbours above
        rows.append(np.broadcast_to(members[:, None], targets.shape)[above])
        found.append(locate(targets[above]))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # each member's neighbours are already increasing
    return _csr(rows[order], np.concatenate(found)[order], len(cols))


def _exponent_matrix(cols: np.ndarray) -> np.ndarray:
    """Exponent matrices, one per leading index, whose column j is the dephased digit row cols[..., j, :]."""
    mat = np.zeros((*cols.shape[:-2], cols.shape[-1] + 1, cols.shape[-2]), dtype=np.int16)
    mat[..., 1:, :] = np.swapaxes(cols, -1, -2)
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
        alive = alive[_norm_sq_is(phases, kk, n, _approx_norm_sq(phases, kk))]
    return [RootVector(k, (0,) + tuple(int(e) for e in row)) for row in _digit_matrix(alive, n, k)]


class _UnitLoop:
    """Budget, checkpoint and resume bookkeeping shared by the three search stages.

    Creating the loop validates the resume token; run() then walks the units
    in order and takes stored results for units a checkpoint already holds.
    Every other unit counts only if this stage's nodes are below the budget
    when the loop reaches it; its group runs once, at its first pending unit,
    and the loop charges each unit its own nodes.
    """

    def __init__(self, depth: str, n: int, k: int, budget: int | None,
                 checkpoint_path: str | None, resume_token: str | None):
        if n < 2:  # the 1 x 1 matrix (1) is a Hadamard that no stage's column search represents
            raise InadmissibleParameterError(f"the searches need n >= 2, got n = {n}")
        if budget is not None and budget < 1:  # no unit would ever run, so no resume could finish
            raise InadmissibleParameterError(f"a search budget must be at least 1, got {budget}")
        self.spec = SearchSpec(n=n, k=k, depth=depth)
        self.done = read_checkpoint(resume_token, asdict(self.spec)) if resume_token is not None else {}
        self.resumed_from = resume_token
        self.limit = budget
        self.checkpoint_path = checkpoint_path

    def refuse_foreign(self, units: int, owns) -> None:
        """Refuse a checkpoint whose stored unit is not in [0, units), or holds results that owns(unit, results)
        says are not that unit's; the stages call this before any unit runs."""
        for unit, found in self.done.items():
            if not 0 <= unit < units:
                raise FileFormatError(f"checkpoint {self.resumed_from} holds unit {unit}, outside [0, {units})")
            if not owns(unit, found):
                raise FileFormatError(f"checkpoint {self.resumed_from} holds results of another unit as unit {unit}")

    def run(self, group_of: list, run_group, prior=None) -> SearchOutcome:
        """Unit u is in group group_of[u]; run_group(units) runs units of one group, returning {unit: (results, nodes)}.

        The first pending unit of a group calls run_group once, with the units
        of the group that the checkpoint does not hold.  The units' result
        arrays are concatenated in unit order (no unit: a (0, ...) array of the
        stage's shape).  `prior` is the earlier stage's outcome: its nodes are
        added to the reported `nodes_used` but never charged to the budget, and
        an incomplete prior makes this stage incomplete too.
        """
        complete = prior is None or prior.complete
        pending: dict[int, list[int]] = {}
        for unit, group in enumerate(group_of):
            if unit not in self.done:
                pending.setdefault(group, []).append(unit)
        ran: dict[int, tuple[np.ndarray, int]] = {}  # units whose group has run and that the loop has not reached
        used = 0
        completed: list[tuple[int, np.ndarray]] = []
        for unit, group in enumerate(group_of):
            found = self.done.get(unit)
            if found is None:
                if self.limit is not None and used >= self.limit:
                    complete = False
                    break
                if unit not in ran:
                    ran.update(run_group(pending.pop(group)))
                found, nodes = ran.pop(unit)
                used += nodes
            completed.append((unit, found))
        token = None
        if not complete and self.checkpoint_path is not None:
            write_checkpoint(self.checkpoint_path, asdict(self.spec), completed)
            token = self.checkpoint_path
        return SearchOutcome(
            spec=self.spec,
            results=np.concatenate([found for _, found in completed]) if completed
            else np.empty((0, *result_shape(self.spec.depth, self.spec.n)), dtype=np.int16),
            complete=complete,
            nodes_used=used + (prior.nodes_used if prior is not None else 0),
            resume_token=token,
        )


@dataclass
class HadamardEnumeration(SearchOutcome):
    """All dephased Hadamards for one (n, k), bucketed by their invariant multisets."""

    buckets: list[list[int]] = field(default_factory=list)  # matrix indices grouped by equal Haagerup multiset

    @property
    def matrices(self) -> np.ndarray:
        """The results, one (count, n, n) int16 array of exponent matrices."""
        return self.results


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

    Work is split into units by the first chosen column; a unit costs one
    node plus one per vertex a depth-first walk from that column would try,
    the number of cliques of sizes 2..n-1 with that column as least vertex.
    A unit's group is its block: the enumeration's second-level candidate
    tests before its first column, divided by _BLOCK; a block's pending
    units' cliques are enumerated together.  On budget exhaustion a checkpoint
    is written only if `checkpoint_path` is given; a run resumed from it
    (resume_token) returns every matrix an uninterrupted run returns.
    """
    loop = _UnitLoop("hadamards", n, k, budget, checkpoint_path, resume_token)
    orth, _ = _difference_tables(n, k)
    # row 0 is candidate 0, the all-ones first column (all exponents 0): orthogonal to every other row
    cols = _digit_matrix(np.concatenate(([0], orth)), n, k)
    # unit u's first column, column 1 of every matrix it finds, is candidate u + 1
    loop.refuse_foreign(len(cols) - 1, lambda unit, found: (found[:, 1:, 1] == cols[unit + 1]).all())
    adj = indptr, indices = _orbit_bits(0, cols, k)
    degree = np.diff(indptr)
    # the second level's candidate tests of each edge (f, w): the smaller of f's neighbours after w and w's above it
    after = np.repeat(indptr[1:], degree) - np.arange(len(indices)) - 1
    tests = np.concatenate(([0], np.cumsum(np.minimum(after, degree[indices]))))[indptr]  # of the rows before each

    def block_matrices(units: list[int]) -> dict[int, tuple[np.ndarray, int]]:
        first = np.array(units) + 1
        nodes = np.ones(len(units), dtype=np.int64)  # the unit itself, then the vertices its walk tries
        found = cliques(adj, n - 1, first, nodes)
        mats = _exponent_matrix(cols[np.insert(found, 0, 0, axis=1)])  # column 0 is cols[0], the all-ones column
        bounds = np.searchsorted(found[:, 0], np.append(first, len(cols))).tolist()  # the units' ranges in mats
        return {u: (mats[lo:hi], cost) for u, lo, hi, cost in zip(units, bounds, bounds[1:], nodes.tolist())}

    outcome = loop.run((tests[1:len(cols)] // _BLOCK).tolist(), block_matrices)
    return HadamardEnumeration(**vars(outcome), buckets=_haagerup_buckets(outcome.results, k))


def _haagerup_buckets(matrices: np.ndarray, k: int) -> list[list[int]]:
    """Matrix indices grouped by equal Haagerup multiset, groups in order of first appearance.

    For an exponent matrix e the Haagerup invariants are the roots
    zeta^(e_ij - e_rj + e_rs - e_is), so each multiset is the histogram over
    0..k-1 of those n^4 exponents mod k: exact, with no snapping grid.  Swapping
    i with r, or j with s, negates the exponent, and it is 0 when i = r or
    j = s; so only the C(n, 2)^2 exponents with i < r and j < s are computed,
    and the full histogram is 2 (h[x] + h[-x]) plus n^4 - (n(n-1))^2 at x = 0:
    the same factor and offset for every matrix, so h[x] + h[-x] for x <= k/2
    decides the grouping.  Matrices are processed in chunks to bound the
    C(n, 2)^2-wide batch, and those rows are grouped by `np.unique`.
    """
    if not len(matrices):
        return []
    n = matrices.shape[1]
    upper, lower = np.triu_indices(n, 1)
    hists = np.empty((len(matrices), k // 2 + 1), dtype=np.min_scalar_type(n**4))
    for lo in range(0, len(matrices), _BUCKET_CHUNK):
        batch = matrices[lo:lo + _BUCKET_CHUNK]
        # diff[b, p, j] = e_ij - e_rj over the row pairs p = (i, r) with i < r
        diff = batch[:, upper, :] - batch[:, lower, :]
        half = _row_histogram(((diff[..., upper] - diff[..., lower]) % k).reshape(len(batch), -1), k)
        hists[lo:lo + len(batch)] = half[:, :k // 2 + 1] + half[:, -np.arange(k // 2 + 1) % k]
    _, first, label = np.unique(hists, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))  # groups numbered in order of first appearance
    label = rank[label.reshape(-1)]
    members = np.argsort(label, kind="stable")  # each group's matrices in increasing index
    return [group.tolist() for group in np.split(members, np.cumsum(np.bincount(label))[:-1])]


def _orbit_forest(count: int, *maps: np.ndarray | list[int]) -> tuple[np.ndarray, np.ndarray]:
    """A spanning forest of 0..count-1 under the edges i -- maps[g][i] (-1: no edge), taken either way.

    Returns (parent, via): each tree is one connected component (an orbit when
    the maps are generators of a group action), rooted at its least element,
    whose parent is -1; every other element i is joined to parent[i] by an
    edge of maps[via[i]].  The components come from spreading the least label
    along the edges; the trees then grow breadth first from every root at once.
    """
    src = np.tile(np.arange(count), len(maps))
    dst = np.concatenate([np.empty(0, dtype=np.int64), *(np.asarray(image, dtype=np.int64) for image in maps)])
    gen = np.repeat(np.arange(len(maps)), count)
    keep = (dst >= 0) & (dst != src)
    a, b = np.concatenate([src[keep], dst[keep]]), np.concatenate([dst[keep], src[keep]])
    gen = np.concatenate([gen[keep], gen[keep]])
    label = np.arange(count)
    while True:
        least = label.copy()
        np.minimum.at(least, a, label[b])
        if np.array_equal(least, label):
            break
        label = least
    parent, via = np.full(count, -1), np.full(count, -1)
    reached = label == np.arange(count)
    frontier = reached.copy()
    while frontier.any():
        step = frontier[a] & ~reached[b]
        heads, first = np.unique(b[step], return_index=True)  # one edge into each newly reached element
        parent[heads], via[heads] = a[step][first], gen[step][first]
        reached[heads] = True
        frontier[:] = False
        frontier[heads] = True
    return parent, via


def _column_keys(mats: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per tuple of exponent matrices (axis 1), the candidate indices of the columns `_extend` reads.

    Those are the columns of H1 but its first (the all-ones column) and every
    column of the later matrices, sorted within each matrix.  A column's
    index is its rows 1..n-1 dotted with `weights`: k^j for digit position j,
    or those powers permuted, which indexes the digit-permuted column.  The
    int64 sum takes one int16 row of every matrix at a time, so it makes no
    int64 copy of the matrices.
    """
    idx = sum(mats[:, :, row, :] * weight for row, weight in enumerate(weights, 1))
    later = np.sort(idx[:, 1:], axis=2).reshape(len(idx), (idx.shape[1] - 1) * idx.shape[2])
    return np.concatenate([np.sort(idx[:, 0, 1:], axis=1), later], axis=1)


def _extend(loop: _UnitLoop, prior: SearchOutcome, tuples: np.ndarray) -> SearchOutcome:
    """One unit per tuple (H1, ...), a row of `tuples`: the tuple plus each further matrix unbiased to all of it.

    The new matrix's columns are exactly unbiased to every column of the
    tuple and exactly orthogonal to one another.  Each is unbiased to the
    all-ones column of H1, so candidates are positions in the base set:
    `base` holds the digit rows of its members in increasing candidate
    order, and sets of them are sorted arrays of those positions.

    Permuting the digit positions (rows 1..n-1 of every matrix) keeps every
    orthogonality and unbiasedness, so it maps a tuple's extensions onto the
    extensions of the permuted tuple.  The units are joined into orbits by
    the n - 2 adjacent transpositions of digit positions: a unit's image is
    the unit with the same sorted column set (`_column_keys`), matched in one
    lexsort of the keys and their images, and a permuted tuple that is not in
    the array is no edge, so any array of tuples may be given.  Each orbit is a
    group; pointer jumping up its tree (`_orbit_forest`) gives each unit its
    root, the representative, and its digit permutation from it.  The group
    solves the representative once (its first H1 column's row over the base
    set, then its other columns against those candidates alone) and maps its
    extensions, cliques of base positions, through each pending unit's
    permutation into the order a direct solve gives.  A unit costs n nodes.
    """
    n, k = loop.spec.n, loop.spec.k
    count, m = tuples.shape[:2]
    loop.refuse_foreign(count, lambda unit, found: (found[:, :m] == tuples[unit]).all())  # each unit extends its tuple
    # a candidate's difference to the all-ones column is itself, so the base set is the unbiased hits
    _, base_idx = _difference_tables(n, k)
    base = _digit_matrix(base_idx, n, k)
    weights = k ** np.arange(n - 1, dtype=np.int64)
    moves = np.tile(np.arange(n - 1), (n - 1, 1))  # row 0 moves no digit; row i + 1 swaps digit positions i and i + 1
    for i in range(n - 2):
        moves[i + 1, [i, i + 1]] = i + 1, i
    # the units' keys, then their images under each transposition: a move of the digits moves their weights
    keyed = np.concatenate([_column_keys(tuples, weights[move]) for move in moves])
    order = np.lexsort(keyed.T)  # stable: equal rows stay in increasing index order
    begins = np.any(np.diff(keyed[order], axis=0, prepend=-1), axis=1)  # a run of equal rows; keys are >= 0
    least = np.empty(len(keyed), dtype=np.intp)  # each row's least equal row: a unit, if any unit has that key
    least[order] = order[begins][np.cumsum(begins) - 1]
    parent, via = _orbit_forest(count, *np.where(least < count, least, -1)[count:].reshape(n - 2, count))
    keys = keyed[:count].copy()  # only the units' own keys stay alive while the orbits are solved
    keyed = order = begins = least = None
    rep = np.where(parent < 0, np.arange(count), parent)
    perm = moves[via + 1]  # a unit's digits are its representative's digits[..., perm]; a root has via -1
    while np.any(rep[rep] != rep):  # perm[u] = perm[rep[u]][perm[u]], up to the root in doubling steps
        perm = np.take_along_axis(perm[rep], perm, axis=1)
        rep = rep[rep]
    placed = weights[np.argsort(perm, axis=1)]  # a unit's candidate index of a representative's digit row
    # the representatives' distinct first H1 columns; first_of[u] locates unit u's representative's among them
    firsts, first_of = np.unique(keys[rep, 0], return_inverse=True)
    unb_ptr, unb_hits = _difference_bits(n, _digit_matrix(firsts, n, k), base, k)
    none = np.empty((0, m + 1, n, n), dtype=np.int16)  # the results of every unit with no extension

    def orbit_extensions(units: list[int]) -> dict[int, tuple[np.ndarray, int]]:
        key, at = keys[rep[units[0]]], first_of[units[0]]
        cand = unb_hits[unb_ptr[at]:unb_ptr[at + 1]]
        rest_ptr, rest_hits = _difference_bits(n, _digit_matrix(key[1:], n, k), base[cand], k)
        cand = cand[np.bincount(rest_hits, minlength=len(cand)) == len(rest_ptr) - 1]  # a hit of every other column
        extended = {unit: (none, n) for unit in units}
        if len(cand) < n:  # no n-clique can come of fewer candidates
            return extended
        indptr, indices = _difference_bits(0, base[cand], base[cand], k)
        rows = np.repeat(np.arange(len(cand)), np.diff(indptr))
        above = indices > rows
        found = base[cand[cliques(_csr(rows[above], indices[above], len(cand)), n)]]
        for unit in units if len(found) else ():  # an orbit with no extensions maps nothing
            members = np.sort(np.searchsorted(base_idx, found @ placed[unit]), axis=1)
            members = members[np.lexsort(members.T[::-1])]
            mats = _exponent_matrix(base[members])[:, None]
            extended[unit] = (np.concatenate((np.broadcast_to(tuples[unit], (len(mats), m, n, n)), mats), axis=1), n)
        return extended

    return loop.run(rep.tolist(), orbit_extensions, prior=prior)


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
    return _extend(loop, hadamards, hadamards.matrices[:, None])


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
    the triplet search's, which runs in full unless `triplets` is given;
    `budget` bounds this stage's own n nodes per triplet.  An exhausted budget
    yields verdict 'inconclusive', never 'empty'.
    """
    loop = _UnitLoop("quartets", n, k, budget, checkpoint_path, resume_token)
    if triplets is None:
        triplets = mub_triplet_search(n, k, budget=None)
    return _extend(loop, triplets, triplets.results)
