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
a float prescreen and exact membership in those arrays, and returns them as
Python-int bitset rows.  Over a list closed under permutations of the digit
positions, such as the Hadamard stage's columns, `_orbit_bits` decides one
row per orbit with it and permutes that row onto the rest of the orbit.  One
clique enumerator (`cliques`) walks those rows to pick mutually orthogonal
columns.  Hadamards are bucketed by the integer histogram of their Haagerup
exponents (a necessary condition for equivalence, not a sufficient one).
The triplet and quartet stages are one extension step (`_extend`): each
takes tuples (H1, ...) and extends every tuple by the matrices whose columns
are unbiased to all of its columns and orthogonal to one another.  Those
columns are unbiased to the all-ones column (the base set), so the step
works in positions of that set: the unbiasedness row of one H1 column, a
bitset over it, gives the candidates, and the tuple's other columns are
checked against those alone; triplets extend (H1,), quartets extend
(H1, H2).  A unit left with fewer than n candidates stops before the clique
walk, since no n-clique can come of them.  Permuting the digit positions
(rows 1..n-1 of every matrix) is an exact symmetry of both relations, so the
step solves one unit per orbit of the adjacent digit transpositions
(`_orbit_forest`) and maps that representative's extensions onto the rest of
its orbit: at k = 12 the 2,184 triplet units fall into 28 orbits.

The three stages (Hadamards, triplets, quartets) split their work into
independent units and run them through one loop (`_UnitLoop`).  A node budget
bounds the nodes of the stage that was asked for; it is checked before each
unit, never inside one, so a run overruns it by at most one unit, and a budget
of at least 1 always completes a pending unit.  The earlier stages that stage
needs run in full, and the reported node count adds theirs to its own.  If a
`checkpoint_path` is given, the completed units and their results are written
there, and passing that path back as `resume_token` skips those units and
returns the full answer of an uninterrupted run.  The checkpoint format, and
the checks a checkpoint must pass before it is resumed, are in `io`
(`checkpoint_text`, `read_checkpoint`); this module only writes the file, by
an atomic replace.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from math import comb, lcm
from operator import and_

import numpy as np

from .core import InadmissibleParameterError
from .core import haagerup_invariants  # noqa: F401  (kept importable here; perfbench/child.py wraps it)
from .cyclotomic import _PRESCREEN_MARGIN, RootVector, _norm_sq_is, _row_histogram
from .io import checkpoint_text, read_checkpoint

MAX_CANDIDATES = 10**8
_BUCKET_CHUNK = 512  # matrices per Haagerup batch: 512 x 225 exponents at n = 6
_BLOCK = 1 << 15  # digit multisets per block of `_orbit_hits`; row x column pairs per chunk of `_difference_bits`


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
    results: list
    complete: bool
    nodes_used: int
    resume_token: str | None = None

    @property
    def verdict(self) -> str:
        if not self.complete:
            return "inconclusive"
        return "empty" if not self.results else "non-empty"


def cliques(adj: np.ndarray | list[int], size: int, nodes=None, start: int | None = None) -> list[list[int]]:
    """All `size`-cliques of a graph, in lexicographic order.

    `adj` is a boolean adjacency matrix or its rows as Python-int bitsets
    (bit j of row i is adj[i, j]); only the bits above i of row i are read.
    The cliques are drawn from the vertices in the bitset `start` (default:
    every vertex).  Each clique is an increasing list of vertex indices.
    `nodes`, if given, is any object with an integer `used`: the walk adds to
    it the number of vertices it tries as clique members.  The walk always
    runs to the end; a search budget is checked between walks, never in one.
    """
    if size == 0:
        return [[]]
    rows = _bitsets(adj) if isinstance(adj, np.ndarray) else adj
    out: list[list[int]] = []

    def extend(chosen: list[int], mask: int) -> None:
        if nodes is not None:
            nodes.used += mask.bit_count()  # every vertex of the mask is tried
        leaf = len(chosen) + 1 == size
        while mask:  # the lowest set bit first, so the cliques come out in lexicographic order
            low = mask & -mask
            nxt = low.bit_length() - 1
            mask ^= low  # now only the vertices above nxt
            if leaf:
                out.append(chosen + [nxt])
            elif sub := mask & rows[nxt]:
                extend(chosen + [nxt], sub)

    extend([], (1 << len(rows)) - 1 if start is None else start)
    del extend  # it refers to itself: without this the cycle keeps `rows` alive until a full collection
    return out


def _bitsets(block: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as Python-int bitsets (bit j of row i is block[i, j])."""
    packed = np.packbits(block, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _members(mask: int) -> np.ndarray:
    """The set bits of a bitset, in increasing order: unpacked at once, not one big-int step per bit."""
    raw = np.frombuffer(mask.to_bytes(-(-mask.bit_length() // 8), "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _digit_matrix(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exponent digits (little-endian base k) of candidate indices, one row per index."""
    out = np.empty((len(idx), n - 1), dtype=np.int16)
    for j in range(n - 1):
        out[:, j] = (idx // k**j) % k
    return out


@lru_cache(maxsize=8)
def _unit_roots(k: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    roots.setflags(write=False)
    return roots


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


def _difference_bits(target: int, rows: np.ndarray, cols: np.ndarray, k: int) -> list[int]:
    """Per digit row r of `rows`, the bitset over `cols`: bit j says |1 + sum_i zeta_k^(cols[j, i] - r_i)|^2 == target.

    The target is 0 (orthogonal) or n (unbiased), for n = rows.shape[1] + 1.
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
    out: list[int] = []
    for lo in range(0, len(rows), step):
        chunk = row_roots[lo:lo + step]
        sums, term = buffers[:, :len(chunk)]
        sums.fill(1)
        for j in range(d):  # in place, with no matrix product: the kernel starts no BLAS threads
            sums += np.multiply.outer(chunk[:, j], col_roots[j], out=term)
        near = np.flatnonzero(np.abs(sums.real ** 2 + sums.imag ** 2 - target) < _PRESCREEN_MARGIN)
        r, c = np.divmod(near, len(cols))
        idx = ((cols[c] - rows[lo + r]) % k) @ weights
        bits = np.zeros(sums.size, dtype=bool)
        # a member's two insertion points differ; for an empty hit array no pair's do
        bits[near] = np.searchsorted(hits, idx, side="right") > np.searchsorted(hits, idx)
        out += _bitsets(bits.reshape(sums.shape))
    return out


def _orbit_bits(target: int, cols: np.ndarray, k: int) -> list[int]:
    """`_difference_bits(target, cols, cols, k)` for digit rows closed under permutations of the digit positions.

    Both relations are invariant under those permutations, and the difference
    of two permuted rows is the permuted difference, so the neighbours of
    sigma(c) are sigma(neighbours of c).  Only the sorted digit rows, one per
    orbit, are decided, by `_difference_bits`.  A member whose digits are its
    representative's permuted by order = argsort(digits) has as neighbours the
    representative's neighbour digits dotted with weights[order]; any sorting
    permutation serves, since equal digits are interchangeable.  Those indices
    are located by `searchsorted` among the rows' own, which must increase
    strictly.  A located index that does not match raises ValueError, and so
    does a list that some adjacent transposition of digits takes out of
    itself: the transpositions are checked first, since a gap that no
    representative's neighbour reaches would otherwise give wrong rows.  Each
    orbit's rows are packed in blocks no larger than a `_difference_bits` chunk.
    """
    if not len(cols):
        return []
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
    rep_rows = _difference_bits(target, _digit_matrix(reps, cols.shape[1] + 1, k), cols, k)[::-1]  # popped as used
    step = max(1, 8 * _BLOCK // len(cols))  # a boolean block no larger than a `_difference_bits` chunk's sums
    out = [0] * len(cols)
    for members in by_orbit:
        neighbours = cols[_members(rep_rows.pop())].T
        placed = weights[np.argsort(cols[members], axis=1)]  # a member's neighbours are `neighbours` dotted with its row
        for lo in range(0, len(members), step):
            at = locate(placed[lo:lo + step] @ neighbours)
            block = np.zeros((len(at), len(cols)), dtype=bool)
            block[np.arange(len(at))[:, None], at] = True
            for i, bits in zip(members[lo:lo + step].tolist(), _bitsets(block)):
                out[i] = bits
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
        alive = alive[_norm_sq_is(phases, kk, n, _approx_norm_sq(phases, kk))]
    return [RootVector(k, (0,) + tuple(int(e) for e in row)) for row in _digit_matrix(alive, n, k)]


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same directory, so no partial file is left."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _UnitLoop:
    """Budget, checkpoint and resume bookkeeping shared by the three search stages.

    Creating the loop validates the resume token; run() then walks the units
    in order and takes stored results for units a checkpoint already holds.
    Every other unit runs whole if `used` is below the budget before it starts;
    `used` counts this stage's nodes: `unit_cost` per unit run, plus what the
    unit adds (the Hadamard stage passes the loop to `cliques` as its counter).
    """

    def __init__(self, depth: str, n: int, k: int, budget: int | None,
                 checkpoint_path: str | None, resume_token: str | None):
        if n < 2:  # the 1 x 1 matrix (1) is a Hadamard that no stage's column search represents
            raise InadmissibleParameterError(f"the searches need n >= 2, got n = {n}")
        if budget is not None and budget < 1:  # no unit would ever run, so no resume could finish
            raise InadmissibleParameterError(f"a search budget must be at least 1, got {budget}")
        self.spec = SearchSpec(n=n, k=k, depth=depth)
        self.done = read_checkpoint(resume_token, asdict(self.spec)) if resume_token else {}
        self.limit = budget
        self.used = 0
        self.checkpoint_path = checkpoint_path

    def run(self, n_units: int, unit_cost: int, run_unit, prior=None) -> SearchOutcome:
        """run_unit(u) returns unit u's results.

        `prior` is the earlier stage's outcome: its nodes are added to the
        reported `nodes_used` but never charged to the budget, and an
        incomplete prior makes this stage incomplete too.
        """
        complete = prior is None or prior.complete
        completed: list[tuple[int, list]] = []
        for unit in range(n_units):
            found = self.done.get(unit)
            if found is None:
                if self.limit is not None and self.used >= self.limit:
                    complete = False
                    break
                self.used += unit_cost
                found = run_unit(unit)
            completed.append((unit, found))
        token = None
        if not complete and self.checkpoint_path:
            _write_atomic(self.checkpoint_path, checkpoint_text(asdict(self.spec), completed))
            token = self.checkpoint_path
        return SearchOutcome(
            spec=self.spec,
            results=[r for _, found in completed for r in found],
            complete=complete,
            nodes_used=self.used + (prior.nodes_used if prior is not None else 0),
            resume_token=token,
        )


@dataclass
class HadamardEnumeration(SearchOutcome):
    """All dephased Hadamards for one (n, k), bucketed by their invariant multisets."""

    buckets: list[list[int]] = field(default_factory=list)  # matrix indices grouped by equal Haagerup multiset

    @property
    def matrices(self) -> list[np.ndarray]:
        """The results, n x n exponent matrices."""
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
    node plus one per vertex its clique walk tries.  On budget exhaustion a
    checkpoint is written only if `checkpoint_path` is given; a run resumed
    from it (resume_token) returns every matrix an uninterrupted run returns.
    """
    loop = _UnitLoop("hadamards", n, k, budget, checkpoint_path, resume_token)
    orth, _ = _difference_tables(n, k)
    # row 0 is candidate 0, the all-ones first column (all exponents 0): orthogonal to every other row
    cols = _digit_matrix(np.concatenate(([0], orth)), n, k)
    adj = _orbit_bits(0, cols, k)

    def matrices_from(unit: int) -> list[np.ndarray]:
        first = unit + 1
        later = adj[first] >> (first + 1) << (first + 1)
        adj[first] = 0  # a unit reads only the rows above its first column: drop this one for good
        rest = cliques(adj, n - 2, loop, start=later)
        if not rest:  # most units: 1,428 of the 1,930 at k = 12
            return []
        members = np.empty((len(rest), n), dtype=np.intp)
        members[:, :2] = 0, first
        members[:, 2:] = rest
        mats = np.zeros((len(rest), n, n), dtype=np.int16)  # column j of a matrix is the digit row cols[members[j]]
        mats[:, 1:] = cols[members].transpose(0, 2, 1)
        return list(mats)

    outcome = loop.run(len(cols) - 1, 1, matrices_from)
    mats = np.array(outcome.results, dtype=np.int16).reshape(-1, n, n)  # one array for the stage; the units' are freed
    outcome.results = list(mats)
    return HadamardEnumeration(**vars(outcome), buckets=_haagerup_buckets(mats, k))


def _haagerup_buckets(matrices: np.ndarray | list[np.ndarray], k: int) -> list[list[int]]:
    """Matrix indices grouped by equal Haagerup multiset, groups in order of first appearance.

    For an exponent matrix e the Haagerup invariants are the roots
    zeta^(e_ij - e_rj + e_rs - e_is), so each multiset is the histogram over
    0..k-1 of those n^4 exponents mod k: exact, with no snapping grid.  Swapping
    i with r, or j with s, negates the exponent, and it is 0 when i = r or
    j = s; so only the C(n, 2)^2 exponents with i < r and j < s are computed,
    and the full histogram is 2 (h[x] + h[-x]) plus n^4 - (n(n-1))^2 at x = 0.
    Matrices are processed in chunks to bound the C(n, 2)^2-wide batch, and
    the histograms are grouped by `np.unique` over their rows.
    """
    if not len(matrices):
        return []
    matrices = np.asarray(matrices, dtype=np.int16)
    n = matrices.shape[1]
    upper, lower = np.triu_indices(n, 1)
    hists = np.empty((len(matrices), k // 2 + 1), dtype=np.min_scalar_type(n**4))
    for lo in range(0, len(matrices), _BUCKET_CHUNK):
        batch = matrices[lo:lo + _BUCKET_CHUNK]
        # diff[b, p, j] = e_ij - e_rj over the row pairs p = (i, r) with i < r
        diff = batch[:, upper, :] - batch[:, lower, :]
        half = _row_histogram(((diff[..., upper] - diff[..., lower]) % k).reshape(len(batch), -1), k)
        full = 2 * (half + half[:, -np.arange(k) % k])
        full[:, 0] += n**4 - (n * (n - 1)) ** 2
        hists[lo:lo + len(batch)] = full[:, :k // 2 + 1]  # full[x] = full[-x], so these entries decide it
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
    or those powers permuted, which indexes the digit-permuted column.
    """
    idx = np.einsum("umrc,r->umc", mats[:, :, 1:, :], weights)
    later = np.sort(idx[:, 1:], axis=2).reshape(len(idx), (idx.shape[1] - 1) * idx.shape[2])
    return np.concatenate([np.sort(idx[:, 0, 1:], axis=1), later], axis=1)


def _extend(loop: _UnitLoop, prior: SearchOutcome, tuples: list[tuple]) -> SearchOutcome:
    """One unit per tuple (H1, ...): the tuple plus each further matrix unbiased to all of it.

    The new matrix's columns are exactly unbiased to every column of the
    tuple and exactly orthogonal to one another.  Each is unbiased to the
    all-ones column of H1, so candidates are positions in the base set:
    `base` holds the digit rows of its members in increasing candidate
    order, and sets of them are Python-int bitsets over those positions.

    Permuting the digit positions (rows 1..n-1 of every matrix) keeps every
    orthogonality and unbiasedness, so it maps a tuple's extensions onto the
    extensions of the permuted tuple.  The units are joined into orbits by
    the n - 2 adjacent transpositions of digit positions, matched by the
    sorted column sets the step reads (`_column_keys`); a permuted tuple that
    is not in the list is no edge, so any list of tuples may be given.  Only
    the least unit of each orbit, its representative, is solved: its
    extensions are cached as cliques of base positions, and every unit maps
    its representative's cliques through its own digit permutation and sorts
    them into the order a direct solve gives.  Only the first H1 column of
    each representative gets a full base-set row; the tuple's other columns
    are checked against the candidates it leaves.  A representative that a
    resumed checkpoint already holds is solved again inside the first unit
    of its orbit that needs it.
    """
    n, k = loop.spec.n, loop.spec.k
    # a candidate's difference to the all-ones column is itself, so the base set is the unbiased hits
    _, base_idx = _difference_tables(n, k)
    base = _digit_matrix(base_idx, n, k)
    weights = k ** np.arange(n - 1, dtype=np.int64)
    mats = np.array(tuples, dtype=np.int64).reshape(len(tuples), len(tuples[0]) if tuples else 1, n, n)
    keys = _column_keys(mats, weights)
    unit_of = {key.tobytes(): unit for unit, key in enumerate(keys)}
    images = []
    for i in range(n - 2):  # swapping digit positions i and i + 1 swaps their weights
        swapped = weights.copy()
        swapped[[i, i + 1]] = weights[[i + 1, i]]
        images.append([unit_of.get(key.tobytes(), -1) for key in _column_keys(mats, swapped)])
    parent, via = (forest.tolist() for forest in _orbit_forest(len(tuples), *images))
    reps = [unit for unit in range(len(tuples)) if parent[unit] < 0]
    # distinct first H1 columns of the representatives; which[r] locates representative r's among them
    firsts, which = np.unique(keys[reps, 0], return_inverse=True)
    unbiased = _difference_bits(n, _digit_matrix(firsts, n, k), base, k)
    which = dict(zip(reps, which.tolist()))
    solved: dict[int, np.ndarray] = {}

    def solve(rep: int) -> np.ndarray:
        """The representative's extensions, as cliques of base positions in lexicographic order."""
        cand = _members(unbiased[which[rep]])
        rest = _difference_bits(n, _digit_matrix(keys[rep, 1:], n, k), base[cand], k)
        cand = cand[_members(reduce(and_, rest, (1 << len(cand)) - 1))]
        if len(cand) < n:  # no n-clique can come of fewer candidates
            return np.empty((0, n), dtype=np.int64)
        cols = base[cand]
        adj = _difference_bits(0, cols, cols, k)
        return cand[np.array(cliques(adj, n), dtype=np.int64).reshape(-1, n)]

    def extensions(unit: int) -> list[tuple]:
        rep, swaps = unit, []
        while parent[rep] >= 0:
            swaps.append(via[rep])
            rep = parent[rep]
        if rep not in solved:
            solved[rep] = solve(rep)
        found = solved[rep]
        if not len(found):
            return []
        perm = list(range(n - 1))  # the unit's digits are the representative's digits[..., perm]
        for i in reversed(swaps):  # from the representative down to the unit
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        mapped = np.empty_like(weights)
        mapped[perm] = weights
        found = np.sort(np.searchsorted(base_idx, base[found] @ mapped), axis=1)
        found = found[np.lexsort(found.T[::-1])]
        return [(*tuples[unit], _exponent_matrix(base[members])) for members in found]

    return loop.run(len(tuples), n, extensions, prior=prior)


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
    return _extend(loop, hadamards, [(h1,) for h1 in hadamards.matrices])


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
