import errno
import gc
import os
import re
import stat
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, islice, permutations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from mubtools import search as search_mod
from mubtools.catalog import load_fixture
from mubtools.constructions import prime_mub_set
from mubtools.core import (
    Basis,
    InadmissibleParameterError,
    haagerup_invariants,
    is_complex_hadamard,
    is_unbiased_pair,
)
from mubtools.cyclotomic import RootVector, _norm_sq_is, _row_histogram, is_orthogonal, is_unbiased_exact
from mubtools.io import RootMatrix
from mubtools.search import (
    EnumerationBudgetError,
    SearchOutcome,
    _difference_bits,
    _difference_tables,
    _digit_matrix,
    _exponent_matrix,
    _haagerup_buckets,
    _multiset_blocks,
    _orbit_bits,
    _orbit_forest,
    _orbit_hits,
    _UnitLoop,
    cliques,
    mub_quartet_search,
    mub_triplet_search,
    root_hadamard_enumerate,
    unbiased_vector_enumerate,
)

TOL = 1e-10


def to_complex(exps: np.ndarray, k: int) -> np.ndarray:
    return RootMatrix(len(exps), k, np.asarray(exps)).to_complex()


def same_basis_projectively(a: np.ndarray, b: np.ndarray, tol=1e-9) -> bool:
    """Columns agree up to per-column phases and a permutation."""
    overlaps = np.abs(a.conj().T @ b) * a.shape[0] ** 0  # already normalized
    hits = np.abs(overlaps - 1.0) < tol
    return bool(hits.any(axis=0).all() and hits.any(axis=1).all())


class TestUnbiasedVectorEnumerate:
    def test_n6_k12_gaussians(self):
        vecs = unbiased_vector_enumerate(6, 12)
        assert len(vecs) == 12
        assert all(v.exponents[0] == 0 for v in vecs)

    def test_n2_k4(self):
        vecs = unbiased_vector_enumerate(2, 4)
        assert {v.exponents for v in vecs} == {(0, 1), (0, 3)}

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError, match="census"):
            unbiased_vector_enumerate(9, 24)


def _full_haagerup_buckets(matrices: list[np.ndarray], k: int) -> list[list[int]]:
    """Oracle for `_haagerup_buckets`: the histogram over all n^4 invariant exponents of each matrix."""
    groups: dict[bytes, list[int]] = {}
    for lo in range(0, len(matrices), 512):
        batch = np.stack(matrices[lo:lo + 512]).astype(np.int16)
        # diff[b, i, r, j] = e_ij - e_rj; the invariant exponent is diff[i, r, j] - diff[i, r, s]
        diff = batch[:, :, None, :] - batch[:, None, :, :]
        exps = (diff[..., :, None] - diff[..., None, :]) % k
        for i, hist in enumerate(_row_histogram(exps.reshape(len(batch), -1), k), start=lo):
            groups.setdefault(hist.tobytes(), []).append(i)
    return list(groups.values())


class TestHadamardEnumerate:
    def test_n6_k3_contains_fixture(self):
        enum = root_hadamard_enumerate(6, 3)
        assert enum.complete
        assert len(enum.matrices) > 0
        assert len(enum.buckets) == 1
        lexleast = min(enum.matrices, key=lambda m: tuple(m.ravel()))
        assert np.allclose(to_complex(lexleast, 3), load_fixture("S"))

    def test_n6_k4_contains_dita0(self):
        enum = root_hadamard_enumerate(6, 4)
        assert enum.complete and len(enum.buckets) == 1
        lexleast = min(enum.matrices, key=lambda m: tuple(m.ravel()))
        assert np.allclose(to_complex(lexleast, 4), load_fixture("DITA0"))

    def test_n4_k2_real_hadamard_single_bucket(self):
        enum = root_hadamard_enumerate(4, 2)
        assert enum.complete
        assert len(enum.buckets) == 1
        assert all(is_complex_hadamard(to_complex(m, 2), TOL) for m in enum.matrices)

    def test_n2_k9870_large_squarefree_order(self):
        # 9870 = 2 * 3 * 5 * 7 * 47: Phi_9870 is dense, of degree 2,256
        enum = root_hadamard_enumerate(2, 9870)
        assert enum.complete
        assert [m.tolist() for m in enum.matrices] == [[[0, 0], [0, 4935]]]

    def test_emitted_matrices_pass_float_predicates(self):
        for n, k in ((3, 3), (6, 3), (6, 4), (4, 2)):
            enum = root_hadamard_enumerate(n, k)
            for m in enum.matrices:
                assert is_complex_hadamard(to_complex(m, k), TOL)

    def test_completeness_against_bruteforce_n3_k3(self):
        # oracle: all 3^(2*3) exponent grids with first row and column zero,
        # checked for unitarity numerically, counted as column sets
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        found = set()
        for e11 in range(3):
            for e12 in range(3):
                for e21 in range(3):
                    for e22 in range(3):
                        exps = np.array([[0, 0, 0], [0, e11, e12], [0, e21, e22]])
                        m = roots[exps] / np.sqrt(3)
                        if np.abs(m.conj().T @ m - np.eye(3)).max() < 1e-9:
                            cols = tuple(sorted(tuple(exps[:, j]) for j in range(3)))
                            found.add(cols)
        enum = root_hadamard_enumerate(3, 3)
        ours = {tuple(sorted(tuple(m[:, j]) for j in range(3))) for m in enum.matrices}
        assert ours == found

    @pytest.mark.parametrize("n,k", [(6, 3), (6, 4), (4, 4), (5, 5), (4, 12), (6, 6)])
    def test_buckets_match_float_invariant_multisets(self, n, k):
        # oracle: group by the snapped floating Haagerup multisets, in order of first appearance
        enum = root_hadamard_enumerate(n, k)
        groups: dict = {}
        for i, m in enumerate(enum.matrices):
            inv = haagerup_invariants(to_complex(m, k))
            groups.setdefault(frozenset(inv.items()), []).append(i)
        assert enum.buckets == list(groups.values())

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 5), (6, 3), (6, 4), (6, 12), (6, 24)])
    def test_buckets_match_full_invariant_histograms(self, n, k):
        matrices = root_hadamard_enumerate(n, k).matrices
        assert _haagerup_buckets(matrices, k) == _full_haagerup_buckets(matrices, k)

    def test_buckets_of_no_matrices(self):
        none = np.empty((0, 6, 6), dtype=np.int16)
        assert _haagerup_buckets(none, 12) == _full_haagerup_buckets(none, 12) == []

    def test_outcome_type(self):
        enum = root_hadamard_enumerate(4, 4)
        assert isinstance(enum, SearchOutcome)
        assert enum.matrices is enum.results
        assert enum.verdict == "non-empty"

    def test_determinism(self):
        a = root_hadamard_enumerate(6, 4)
        b = root_hadamard_enumerate(6, 4)
        assert len(a.matrices) == len(b.matrices)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.matrices, b.matrices))
        assert a.buckets == b.buckets

    def test_budget_and_resume_roundtrip(self, tmp_path):
        full = root_hadamard_enumerate(6, 4)
        token = str(tmp_path / "had.checkpoint.json")
        partial = root_hadamard_enumerate(6, 4, budget=400, checkpoint_path=token)
        assert not partial.complete
        assert partial.resume_token == token
        resumed = root_hadamard_enumerate(6, 4, resume_token=token)
        assert resumed.complete
        union = {m.tobytes() for m in partial.matrices} | {m.tobytes() for m in resumed.matrices}
        assert union == {m.tobytes() for m in full.matrices}


class TestTripletSearch:
    def test_n2_k4_pauli_pair(self):
        outcome = mub_triplet_search(2, 4)
        assert outcome.complete and len(outcome.results) == 1
        h1, h2 = outcome.results[0]
        m1 = to_complex(h1, 4)
        m2 = to_complex(h2, 4)
        x_eigen = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        y_eigen = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
        assert same_basis_projectively(m1, x_eigen)
        assert same_basis_projectively(m2, y_eigen)

    def test_n3_k3_contains_prime_construction(self):
        outcome = mub_triplet_search(3, 3)
        assert outcome.complete and len(outcome.results) > 0
        mubs = prime_mub_set(3)
        targets = [np.asarray(b.matrix) for b in mubs.bases[1:]]
        hit = False
        for h1, h2 in outcome.results:
            m1 = to_complex(h1, 3)
            m2 = to_complex(h2, 3)
            for a, b in ((0, 1), (0, 2), (1, 2)):
                if (same_basis_projectively(m1, targets[a]) and same_basis_projectively(m2, targets[b])) or (
                    same_basis_projectively(m1, targets[b]) and same_basis_projectively(m2, targets[a])
                ):
                    hit = True
        assert hit

    def test_triplets_are_mub_numerically(self):
        outcome = mub_triplet_search(3, 3)
        for h1, h2 in outcome.results:
            b1 = Basis(to_complex(h1, 3))
            b2 = Basis(to_complex(h2, 3))
            for basis in (b1, b2):
                assert is_complex_hadamard(basis.matrix, TOL)
            ok, dev = is_unbiased_pair(b1, b2, TOL)
            assert ok, dev


class TestQuartetSearch:
    def test_n3_k3_complete_set_found(self):
        triplets = mub_triplet_search(3, 3)
        outcome = mub_quartet_search(3, 3, triplets=triplets)
        assert outcome.complete
        assert outcome.verdict == "non-empty"
        triplet_keys = {(h1.tobytes(), h2.tobytes()) for h1, h2 in triplets.results}
        for h1, h2, h3 in outcome.results:
            assert (h1.tobytes(), h2.tobytes()) in triplet_keys
            bases = [Basis(to_complex(h, 3)) for h in (h1, h2, h3)]
            for i, j in combinations(range(3), 2):
                ok, dev = is_unbiased_pair(bases[i], bases[j], TOL)
                assert ok, dev

    def test_n5_k5_complete_set_exists(self):
        outcome = mub_quartet_search(5, 5)
        assert outcome.complete
        assert outcome.verdict == "non-empty"

    def test_budget_exhaustion_is_inconclusive(self, tmp_path):
        token = str(tmp_path / "quartets.checkpoint.json")
        outcome = mub_quartet_search(5, 5, budget=8, checkpoint_path=token)
        assert not outcome.complete
        assert outcome.verdict == "inconclusive"
        assert outcome.resume_token == token

    def test_biased_pair_extends_to_nothing(self, monkeypatch):
        """A hand-made (H1, H2) whose H2 is not unbiased to H1 leaves fewer than n candidates,
        so its unit ends before the clique walk, with no quartet."""
        triplets = mub_triplet_search(3, 6)
        h1 = triplets.results[0][0]
        h2 = (h1 + np.array([[0], [0], [3]], dtype=np.int16)) % 6  # diag(1, 1, -1) H1
        assert not is_unbiased_pair(Basis(to_complex(h1, 6)), Basis(to_complex(h2, 6)), TOL)[0]

        def no_clique_walk(*args, **kwargs):
            raise AssertionError("the unit reached the clique walk")

        monkeypatch.setattr(search_mod, "cliques", no_clique_walk)
        outcome = mub_quartet_search(3, 6, triplets=replace(triplets, results=np.stack([h1, h2])[None]))
        assert outcome.complete
        assert len(outcome.results) == 0
        assert outcome.verdict == "empty"

    @pytest.mark.parametrize("n, k, count", [(3, 3, 2), (3, 6, 2), (4, 4, 6), (5, 5, 72), (4, 8, 6)])
    def test_quartets_are_the_unbiased_triplet_pairs(self, n, k, count):
        """A quartet (H1, H2, H3) is two triplets (H1, H2) and (H1, H3) with H2 and H3 unbiased.

        The expected list is built from the triplets alone: for each triplet (H1, H2), in order,
        every triplet (H1, H2') with the same H1, in triplet order, whose H2' is float-unbiased to H2.
        """
        triplets = mub_triplet_search(n, k)
        outcome = mub_quartet_search(n, k, triplets=triplets)
        found = [(h1, h2, to_complex(h2, k)) for h1, h2 in triplets.results]
        expected = [(h1, h2, g2) for h1, h2, u in found for g1, g2, v in found
                    if np.array_equal(g1, h1) and np.allclose(np.abs(u.conj().T @ v) ** 2, 1 / n, atol=1e-9)]
        assert outcome.complete and len(outcome.results) == count
        assert [[m.tobytes() for m in q] for q in outcome.results] == [[m.tobytes() for m in q] for q in expected]


def _upper_csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the CSR form: each row's neighbours above it, from the upper triangle of a bool matrix."""
    rows = [np.flatnonzero(adj[i, i + 1:]) + i + 1 for i in range(len(adj))]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
    return indptr, np.concatenate([np.empty(0, dtype=np.int64), *rows])


def _bitsets(adj: np.ndarray) -> list[int]:
    """The rows of a bool matrix as Python-int bitsets (bit j of row i is adj[i, j]), for the reference walker."""
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adj]


def _random_graph(seed: int, m: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((m, m)) < density, 1)
    return upper | upper.T


class TestCliques:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        m = 11
        adj = _random_graph(seed, m, 0.6)
        for size in range(6):
            expected = [list(c) for c in combinations(range(m), size)
                        if all(adj[a, b] for a, b in combinations(c, 2))]
            assert cliques(adj, size).tolist() == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_bitset_rows_with_start_mask_match_induced_subgraph(self, seed):
        """The reference walker's bitset rows, given a start mask, list the cliques of the induced subgraph;
        `cliques` over the sorted neighbour arrays, given a start set, lists those whose least vertex is in it."""
        rng = np.random.default_rng(200 + seed)
        m = 13
        adj = _random_graph(200 + seed, m, 0.6)
        rows, csr = _bitsets(adj), _upper_csr(adj)
        assert all(rows[i] >> j & 1 == adj[i, j] for i in range(m) for j in range(m))
        assert [csr[1][csr[0][i]:csr[0][i + 1]].tolist() for i in range(m)] == \
            [[j for j in range(i + 1, m) if adj[i, j]] for i in range(m)]
        chosen = np.flatnonzero(rng.random(m) < 0.7)
        sub = adj[np.ix_(chosen, chosen)]
        for size in range(6):
            everything = [list(c) for c in combinations(range(m), size)
                          if all(adj[a, b] for a, b in combinations(c, 2))]
            induced = [[int(chosen[i]) for i in c] for c in cliques(sub, size).tolist()]
            assert induced == [c for c in everything if set(c) <= set(chosen.tolist())]
            mask = sum(1 << int(v) for v in chosen)
            assert _recursive_cliques(adj, size, SimpleNamespace(used=0), mask) == induced
            if size:
                assert cliques(csr, size, chosen).tolist() == [c for c in everything if c[0] in chosen]

    @pytest.mark.parametrize("m, density", [(0, 0.5), (1, 0.5), (2, 1.0), (5, 0.5), (8, 0.9), (13, 0.6),
                                            (20, 0.35), (30, 0.2), (40, 0.1), (40, 0.2)])
    def test_matches_recursive_walker_at_every_budget(self, m, density):
        """`cliques` lists the reference walker's cliques and counts its vertices tried, per start vertex,
        at every size and start set.

        Split into units by the first vertex, as the Hadamard stage splits its work, a unit loop at
        every budget B completes whole units only: a prefix of the full list, at least one unit,
        and fewer nodes over B than the last unit it ran.
        """
        rng = np.random.default_rng(300 + m + int(100 * density))
        adj = _random_graph(300 + m + int(100 * density), m, density)
        rows, csr = _bitsets(adj), _upper_csr(adj)
        random_start = np.flatnonzero(rng.random(m) < 0.7)
        for size in range(6):
            for graph, start in ((adj, None), (csr, random_start), (csr, np.empty(0, dtype=np.intp))):
                starts = np.arange(m) if start is None else start
                expected, counts = ([[]], [0] * len(starts)) if size == 0 else ([], [])
                for v in [] if size == 0 else starts.tolist():
                    walk = SimpleNamespace(used=0)  # the depth-first walk of v's unit, over v's neighbours above it
                    later = rows[v] >> (v + 1) << (v + 1)
                    expected += [[v, *rest] for rest in _recursive_cliques(adj, size - 1, walk, later)]
                    counts.append(walk.used)
                nodes = np.zeros(len(starts), dtype=np.int64)
                assert cliques(graph, size, start, nodes).tolist() == expected, size
                assert nodes.tolist() == counts, size
                assert cliques(graph, size, start).tolist() == expected, size
            if size == 0 or m == 0:
                continue
            unit_nodes = []

            def unit(units):
                (first,) = units  # each unit is a group of its own
                nodes = np.ones(1, dtype=np.int64)
                found = cliques(csr, size, np.array([first]), nodes)
                unit_nodes.append(int(nodes[0]))
                return {first: (found, int(nodes[0]))}

            full = _UnitLoop("hadamards", 2, 2, None, None, None).run(list(range(m)), unit)
            assert full.complete and full.results.tolist() == cliques(adj, size).tolist()
            for limit in range(1, full.nodes_used + 1):
                unit_nodes.clear()
                outcome = _UnitLoop("hadamards", 2, 2, limit, None, None).run(list(range(m)), unit)
                assert outcome.results.tolist() == full.results[:len(outcome.results)].tolist(), (size, limit)
                assert unit_nodes and outcome.nodes_used == sum(unit_nodes), (size, limit)
                if not outcome.complete:
                    assert 0 <= outcome.nodes_used - limit < unit_nodes[-1], (size, limit)

    def test_empty_graph(self):
        empty = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        for graph in (empty, np.zeros((0, 0), dtype=bool)):
            assert cliques(graph, 0).tolist() == [[]]
            for size in (1, 2, 5):
                assert cliques(graph, size).shape == (0, size)


def test_cliques_frees_its_walk():
    """Once `cliques` returns, nothing it made holds the graph: no cycle keeps it alive until a full collection."""
    indptr, indices = _upper_csr(np.ones((4, 4), dtype=bool))
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getrefcount(indptr), sys.getrefcount(indices)
        assert cliques((indptr, indices), 2).tolist() == [list(c) for c in combinations(range(4), 2)]
        assert (sys.getrefcount(indptr), sys.getrefcount(indices)) == before
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n,k", [(2, 8), (3, 6), (4, 4), (5, 5), (6, 4), (6, 12)])
def test_hadamard_blocks_at_the_minimum_limit(n, k, monkeypatch):
    """With a block limit of one candidate test, every unit is enumerated on its own; the matrices, buckets
    and node counts are unchanged, unbudgeted and at a budget that stops halfway."""
    full = root_hadamard_enumerate(n, k)
    half = root_hadamard_enumerate(n, k, budget=max(1, full.nodes_used // 2))
    monkeypatch.setattr(search_mod, "_BLOCK", 1)
    for ours, theirs in ((root_hadamard_enumerate(n, k), full),
                         (root_hadamard_enumerate(n, k, budget=max(1, full.nodes_used // 2)), half)):
        assert [m.tobytes() for m in ours.matrices] == [m.tobytes() for m in theirs.matrices]
        assert (ours.buckets, ours.nodes_used, ours.complete) == (theirs.buckets, theirs.nodes_used, theirs.complete)


def _recursive_cliques(adj, size, nodes, start=None):
    """Reference for `cliques`: the walker that recurses into every vertex, leaves and empty masks too,
    adding one to `nodes.used` per vertex it tries; `start` is a bitset of the vertices it draws from."""
    rows = _bitsets(adj)
    out: list[list[int]] = []

    def extend(chosen: list[int], mask: int) -> None:
        if len(chosen) == size:
            out.append(chosen)
            return
        while mask:  # the lowest set bit first, so the cliques come out in lexicographic order
            low = mask & -mask
            nxt = low.bit_length() - 1
            mask ^= low  # now only the vertices above nxt
            nodes.used += 1
            extend(chosen + [nxt], mask & rows[nxt])

    extend([], (1 << len(rows)) - 1 if start is None else start)
    return out


def _dense_table(n: int, k: int, target: int) -> np.ndarray:
    """Oracle for the kernels: the verdict of every one of the k^(n-1) difference vectors, by candidate index."""
    table = np.zeros(k ** (n - 1), dtype=bool)
    table[_orbit_hits(n, k, target)] = True
    return table


def _kernel_lookups(n: int, k: int) -> list[tuple]:
    """(target, rows, cols, (indptr, indices), upper) from both kernels, on the lists the stages give them;
    `upper` marks the orbit kernel's rows, which hold only the columns above their own position."""
    orth, unb = _difference_tables(n, k)
    orth_rows = _digit_matrix(orth, n, k)
    hadamard_cols = _digit_matrix(np.concatenate(([0], orth)), n, k)  # the Hadamard stage's list
    base = _digit_matrix(unb, n, k)
    lookups = [(target, rows, cols, _difference_bits(target, rows, cols, k), False)
               for target, rows, cols in ((0, orth_rows, orth_rows), (n, orth_rows, base), (0, base, base),
                                          (n, hadamard_cols, base))]
    # both lists are closed under digit permutations, so the orbit kernel gives their rows against themselves
    lookups += [(target, cols, cols, _orbit_bits(target, cols, k), True)
                for target in (0, n) for cols in (hadamard_cols, base)]
    every = _digit_matrix(np.arange(k ** (n - 1)), n, k)  # misses too, and pairs when a hit array is empty
    lookups += [(target, every[:3], every, _difference_bits(target, every[:3], every, k), False) for target in (0, n)]
    return lookups


# n = 2 has a single digit, so every digit orbit has one member; (3, 4) has no orthogonal difference vector.
@pytest.mark.parametrize("n,k", [(2, 8), (4, 4), (6, 3), (3, 6), (6, 4), (5, 12), (6, 12), (3, 4)])
def test_difference_bits_match_per_pair_lookup(n, k):
    tables = {target: _dense_table(n, k, target) for target in (0, n)}
    weights = k ** np.arange(n - 1)
    for target, rows, cols, (indptr, indices), upper in _kernel_lookups(n, k):
        assert len(indptr) == len(rows) + 1 and indptr[0] == 0 and indptr[-1] == len(indices)
        for i, r in enumerate(rows):
            expected = np.flatnonzero(tables[target][((cols.astype(int) - r) % k) @ weights])
            if upper:
                expected = expected[expected > i]
            assert indices[indptr[i]:indptr[i + 1]].tolist() == expected.tolist()


@pytest.mark.parametrize("n,k", [(4, 4), (3, 6), (6, 4), (5, 12), (3, 4)])
def test_difference_bits_are_decided_by_membership(n, k, monkeypatch):
    """With a margin that lets every pair past the float prescreen, the exact membership alone gives the same hits."""
    expected = [[a.tolist() for a in hits] for *_, hits, _ in _kernel_lookups(n, k)]
    monkeypatch.setattr(search_mod, "_PRESCREEN_MARGIN", np.inf)
    assert [[a.tolist() for a in hits] for *_, hits, _ in _kernel_lookups(n, k)] == expected


def _one_orbit(cols: np.ndarray, row: int) -> np.ndarray:
    """Positions of the rows of `cols` with the same digit multiset as cols[row]."""
    ordered = np.sort(cols, axis=1)
    return np.flatnonzero((ordered == ordered[row]).all(axis=1))


def test_orbit_bits_of_a_union_of_orbits():
    orth, _ = _difference_tables(6, 12)
    cols = _digit_matrix(np.concatenate(([0], orth)), 6, 12)
    orbits = np.concatenate([_one_orbit(cols, 0), _one_orbit(cols, 1), _one_orbit(cols, len(cols) - 1)])
    union = cols[np.sort(orbits)]
    assert len(union) > 3
    indptr, indices = _difference_bits(0, union, union, 12)
    dense = np.zeros((len(union), len(union)), dtype=bool)
    dense[np.repeat(np.arange(len(union)), np.diff(indptr)), indices] = True
    assert [a.tolist() for a in _orbit_bits(0, union, 12)] == [a.tolist() for a in _upper_csr(dense)]
    assert [a.tolist() for a in _orbit_bits(0, cols[:0], 12)] == [[0], []]


@pytest.mark.parametrize("how", ["a row missing", "every other row", "an orbit and a stray row",
                                 "decreasing order", "a row twice"])
def test_orbit_bits_of_a_list_not_closed_under_digit_permutations(how):
    orth, _ = _difference_tables(6, 12)
    cols = _digit_matrix(np.concatenate(([0], orth)), 6, 12)
    orbit = _one_orbit(cols, 1)
    assert len(orbit) > 1
    stray = _difference_bits(0, cols[orbit[:1]], cols, 12)[1][-1]  # the last column orthogonal to orbit[0]
    rows = {
        "a row missing": np.delete(cols, orbit[-1], axis=0),
        "every other row": cols[::2],
        # the stray row is orthogonal to a member of the orbit, so the list's rows are not all empty
        "an orbit and a stray row": cols[np.sort(np.append(orbit, stray))],
        "decreasing order": cols[::-1],
        "a row twice": np.insert(cols, 1, cols[1], axis=0),
    }[how]
    with pytest.raises(ValueError):
        _orbit_bits(0, rows, 12)


# totals C(k + d - 1, d): 1, 1, 1, 5, 10, 210 and 4368; (5, 1), (3, 3), (7, 4) and (12, 5) at 7 end on a full block
@pytest.mark.parametrize("k,d,block", [(4, 0, 7), (1, 1, 7), (1, 4, 7), (5, 1, 5), (3, 3, 5), (7, 4, 7),
                                       (12, 5, 7), (12, 5, 10), (12, 5, 1 << 15)])
def test_multiset_blocks_match_itertools(k, d, block, monkeypatch):
    monkeypatch.setattr(search_mod, "_BLOCK", block)
    reference = combinations_with_replacement(range(k), d)
    blocks = list(_multiset_blocks(k, d))
    assert len(blocks) == -(-comb(k + d - 1, d) // block)  # no empty block after a full one
    for got in blocks:
        expected = list(islice(reference, block))
        assert got.dtype == np.int16 and got.shape == (len(expected), d)
        assert got.tolist() == [list(t) for t in expected]
    assert next(reference, None) is None


@pytest.mark.parametrize("n,k", [(4, 4), (3, 6), (6, 3), (3, 30), (2, 210)])
def test_norm_test_matches_cyclotomic_predicates(n, k):
    digits = _digit_matrix(np.arange(k ** (n - 1)), n, k)
    approx = np.abs(1.0 + np.exp(2j * np.pi * digits / k).sum(axis=1)) ** 2
    ones = RootVector(k, (0,) * n)
    vectors = [RootVector(k, (0, *row)) for row in digits]
    orth = [is_orthogonal(ones, v) for v in vectors]
    unb = [is_unbiased_exact(ones, v) for v in vectors]
    assert any(orth)
    for target, expected in ((0, orth), (n, unb)):
        assert _norm_sq_is(digits, k, target, approx).tolist() == expected
        # an approximation equal to the target sends every row through the exact test
        assert _norm_sq_is(digits, k, target, np.full(len(digits), float(target))).tolist() == expected


def _scan_hits(n: int, k: int, target: int) -> np.ndarray:
    """Brute-force oracle for `_orbit_hits`: the chunked scan over every dephased vector it replaced."""
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    m_total = k ** (n - 1)
    hits = []
    for lo in range(0, m_total, 1 << 19):
        idx = np.arange(lo, min(lo + (1 << 19), m_total), dtype=np.int64)
        digits = _digit_matrix(idx, n, k)
        hits.append(idx[_norm_sq_is(digits, k, target, np.abs(1.0 + roots[digits].sum(axis=1)) ** 2)])
    return np.concatenate(hits)


# (n-1)! reaches 1.2e17 at (20, 2): a hit expansion through all permutations could not finish these
_ORBIT_HIT_COUNTS = {(7, 12, 0): 15540, (13, 3, 13): 72072, (20, 2, 0): 92378}


@pytest.mark.parametrize(
    "n,k", [(2, 4), (3, 6), (4, 4), (4, 12), (5, 5), (6, 6), (6, 12), (7, 12), (13, 3), (20, 2)]
)
def test_orbit_hits_match_full_scan(n, k, monkeypatch):
    for target in (0, n):
        hits = _orbit_hits(n, k, target)
        expected = _scan_hits(n, k, target)
        assert np.array_equal(hits, expected)
        if (n, k, target) in _ORBIT_HIT_COUNTS:
            assert len(hits) == _ORBIT_HIT_COUNTS[n, k, target]
        # seven representatives per block: the hits never depend on where a block ends
        with monkeypatch.context() as patch:
            patch.setattr(search_mod, "_BLOCK", 7)
            assert np.array_equal(_orbit_hits(n, k, target), expected)


@pytest.mark.parametrize("n,k", [(6, 12), (6, 24)])
def test_difference_tables_match_full_scan(n, k):
    for hits, target in zip(_difference_tables(n, k), (0, n)):
        assert np.array_equal(hits, _scan_hits(n, k, target))
        assert not hits.flags.writeable


def test_hadamard_stage_keeps_no_dense_table():
    """The verdicts are kept as their hit arrays alone: about 0.2 MB at k = 24, where two bool tables over
    every difference vector took 16 MB, and the stage's working set stays at a few chunks and its sorted
    neighbour arrays."""
    search_mod._difference_tables.cache_clear()
    tracemalloc.start()
    try:
        had = root_hadamard_enumerate(6, 24)
        assert len(had.matrices) == 7584
        del had
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 << 20
    assert peak < 12 << 20


def _result_bytes(results) -> list[bytes]:
    return [np.asarray(r).tobytes() for r in results]


@pytest.mark.parametrize("n,k", [(3, 3), (5, 5), (6, 3)])
def test_resume_matches_uninterrupted_run(n, k, tmp_path):
    had = root_hadamard_enumerate(n, k)
    trip = mub_triplet_search(n, k, hadamards=had)
    quart = mub_quartet_search(n, k, triplets=trip)
    stages = [
        (lambda **kw: root_hadamard_enumerate(n, k, **kw), had,
         lambda o: (o.matrices, o.buckets, o.complete)),
        (lambda **kw: mub_triplet_search(n, k, hadamards=had, **kw), trip,
         lambda o: (o.results, o.verdict)),
        (lambda **kw: mub_quartet_search(n, k, triplets=trip, **kw), quart,
         lambda o: (o.results, o.verdict)),
    ]
    path = str(tmp_path / "run.checkpoint.json")
    for run, full, answer in stages:
        want = answer(full)
        for budget in range(1, full.nodes_used + 1):
            outcome = run(budget=budget, checkpoint_path=path)
            if not outcome.complete:
                assert outcome.resume_token == path
                outcome = run(resume_token=path)
            got = answer(outcome)
            assert _result_bytes(got[0]) == _result_bytes(want[0]), (budget, full.spec)
            assert got[1:] == want[1:], (budget, full.spec)


@pytest.mark.parametrize("run, budget, runs", [
    (lambda **kw: root_hadamard_enumerate(6, 4, **kw), 20, 100),  # 1,972 nodes; some units cost more than 20
    (lambda **kw: mub_quartet_search(5, 5, **kw), 8, 24),  # 120 nodes of its own, after 120 of earlier stages
], ids=["hadamards-6-4", "quartets-5-5"])
def test_budgeted_resume_loop_finishes(run, budget, runs, tmp_path):
    """Resumed again and again at one budget, a search completes within a bounded number of runs,
    with the results and verdict of an uninterrupted run: every run completes at least one unit."""
    want = run()
    path = str(tmp_path / "run.checkpoint.json")
    outcome = run(budget=budget, checkpoint_path=path)
    count = 1
    while not outcome.complete and count < runs:
        outcome = run(budget=budget, checkpoint_path=path, resume_token=path)
        count += 1
    assert outcome.complete, count
    assert _result_bytes(outcome.results) == _result_bytes(want.results)
    assert outcome.verdict == want.verdict


def test_library_writes_no_checkpoint_unless_asked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outcomes = [
        root_hadamard_enumerate(6, 4, budget=400),
        mub_triplet_search(5, 5, budget=10),  # this stage alone costs 30 nodes
        mub_quartet_search(5, 5, budget=8),
    ]
    assert all(not o.complete and o.resume_token is None for o in outcomes)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_checkpoint_write_leaves_no_temporary_file(failing, tmp_path, monkeypatch):
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, failing, no_space)
    with pytest.raises(OSError):
        root_hadamard_enumerate(6, 4, budget=5, checkpoint_path=str(tmp_path / "run.checkpoint.json"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("run", [
    lambda budget: root_hadamard_enumerate(6, 4, budget=budget),
    lambda budget: mub_triplet_search(6, 4, budget=budget),
    lambda budget: mub_quartet_search(6, 4, budget=budget),
], ids=["hadamards", "triplets", "quartets"])
@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(run, budget):
    """No unit runs under a budget below 1, so a resume loop at that budget could never finish."""
    with pytest.raises(InadmissibleParameterError, match="budget"):
        run(budget)


def test_unit_loop_runs_each_group_once_with_the_units_the_checkpoint_lacks(tmp_path):
    """A group runs once per run, when the loop reaches its first pending unit, with its pending units only;
    a group the checkpoint holds whole never runs, and each unit is charged its own nodes."""
    group_of = [0, 1, 0, 2, 1, 2, 2, 3, 3]  # the groups interleave
    calls = []

    def run_group(units):
        calls.append(units)
        return {unit: (np.empty((0, 2, 2), dtype=np.int16), unit + 1) for unit in units}

    path = str(tmp_path / "run.checkpoint.json")
    partial = _UnitLoop("hadamards", 2, 2, 7, path, None).run(group_of, run_group)
    assert calls == [[0, 2], [1, 4], [3, 5, 6]]  # units 0..3 cost 1 + 2 + 3 + 4 nodes; the budget stops at unit 4
    assert not partial.complete and partial.nodes_used == 10
    calls.clear()
    resumed = _UnitLoop("hadamards", 2, 2, None, None, path).run(group_of, run_group)
    assert calls == [[4], [5, 6], [7, 8]]  # group 0 is held whole
    assert resumed.complete and resumed.nodes_used == sum(range(5, 10))


def test_hadamard_resume_from_inside_a_block(tmp_path, monkeypatch):
    """A resumed Hadamard run that starts inside a block enumerates the rest of that block, then the blocks
    of a fresh run, and gives the matrices, buckets and nodes of an uninterrupted run."""
    n, k = 6, 12
    blocks = []
    monkeypatch.setattr(search_mod, "cliques", lambda adj, size, start=None, nodes=None:
                        blocks.append(start.tolist()) or cliques(adj, size, start, nodes))
    full = root_hadamard_enumerate(n, k)
    fresh = blocks[:]
    path = str(tmp_path / "run.checkpoint.json")
    partial = root_hadamard_enumerate(n, k, budget=full.nodes_used // 3, checkpoint_path=path)
    cut = len(_UnitLoop("hadamards", n, k, None, None, path).done) + 1  # unit u's first column is u + 1
    within = [block for block in fresh if block[0] < cut <= block[-1]]
    assert within  # the case this test is about: the partial run stopped inside a block
    blocks.clear()
    resumed = root_hadamard_enumerate(n, k, resume_token=path)
    assert blocks == [[c for c in within[0] if c >= cut], *fresh[fresh.index(within[0]) + 1:]]
    assert [m.tobytes() for m in resumed.matrices] == [m.tobytes() for m in full.matrices]
    assert (resumed.buckets, resumed.complete) == (full.buckets, True)
    assert partial.nodes_used + resumed.nodes_used == full.nodes_used


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_checkpoint_path_that_is_not_a_regular_file_is_left_alone(tmp_path):
    """Writing a checkpoint over a pipe (or a device) would replace it with a regular file: it is refused."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match=re.escape(f"not a regular file: {fifo}")):
        root_hadamard_enumerate(3, 3, budget=1, checkpoint_path=str(fifo))
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def _reference_extend(loop: _UnitLoop, prior: SearchOutcome, tuples: np.ndarray) -> SearchOutcome:
    """Reference for `_extend`: every unit solved on its own, with full base-set rows for every H1 column."""
    n, k = loop.spec.n, loop.spec.k
    # a candidate's difference to the all-ones column is itself, so the base set is the unbiased hits
    base = _digit_matrix(_difference_tables(n, k)[1], n, k)
    h1 = np.array([t[0] for t in tuples], dtype=np.int16).reshape(-1, n, n)
    h1_cols = h1[:, 1:, 1:].transpose(0, 2, 1).reshape(-1, n - 1)
    # distinct columns by candidate index; which[u] locates unit u's H1 columns among them
    _, first_at, which = np.unique(h1_cols @ k ** np.arange(n - 1), return_index=True, return_inverse=True)
    indptr, indices = _difference_bits(n, h1_cols[first_at], base, k)
    unbiased = [set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in range(len(first_at))]
    which = which.reshape(len(tuples), n - 1)

    def extensions(units: list[int]) -> dict[int, tuple[np.ndarray, int]]:
        (unit,) = units  # each unit is a group of its own
        shape = (-1, tuples.shape[1] + 1, n, n)
        cand = sorted(set.intersection(*(unbiased[i] for i in which[unit])))
        for mat in tuples[unit][1:]:
            indptr, indices = _difference_bits(n, mat[1:].T, base[cand], k)
            keep = set(range(len(cand))).intersection(*(indices[indptr[i]:indptr[i + 1]].tolist()
                                                        for i in range(len(indptr) - 1)))
            cand = [cand[i] for i in sorted(keep)]
        if len(cand) < n:  # no n-clique can come of fewer candidates
            return {unit: (np.empty(0, dtype=np.int16).reshape(shape), n)}
        cols = base[cand]
        indptr, indices = _difference_bits(0, cols, cols, k)
        adj = np.zeros((len(cand), len(cand)), dtype=bool)
        adj[np.repeat(np.arange(len(cand)), np.diff(indptr)), indices] = True
        found = [(*tuples[unit], _exponent_matrix(cols[members])) for members in cliques(adj, n).tolist()]
        return {unit: (np.array(found, dtype=np.int16).reshape(shape), n)}

    return loop.run(list(range(len(tuples))), extensions, prior=prior)


def _assert_same_outcome(ours: SearchOutcome, theirs: SearchOutcome) -> None:
    assert [_result_bytes(r) for r in ours.results] == [_result_bytes(r) for r in theirs.results]
    assert (ours.nodes_used, ours.complete) == (theirs.nodes_used, theirs.complete)


def _reference_stage(depth: str, n: int, k: int, prior: SearchOutcome, tuples: np.ndarray, budget=None):
    return _reference_extend(_UnitLoop(depth, n, k, budget, None, None), prior, tuples)


@pytest.mark.parametrize("n,k", [(3, 3), (3, 6), (4, 4), (4, 8), (5, 5), (6, 3), (6, 4), (6, 12)])
def test_extend_matches_unit_by_unit_reference(n, k):
    """Solving one unit per digit-permutation orbit gives the results, in order, the nodes and the
    completeness of solving every unit, at every stage and at a budget that stops halfway."""
    had = root_hadamard_enumerate(n, k)
    trip = mub_triplet_search(n, k, hadamards=had)
    _assert_same_outcome(trip, _reference_stage("triplets", n, k, had, had.matrices[:, None]))
    quart = mub_quartet_search(n, k, triplets=trip)
    _assert_same_outcome(quart, _reference_stage("quartets", n, k, trip, trip.results))
    for run, depth, prior, tuples in (
        (lambda b: mub_triplet_search(n, k, budget=b, hadamards=had), "triplets", had, had.matrices[:, None]),
        (lambda b: mub_quartet_search(n, k, budget=b, triplets=trip), "quartets", trip, trip.results),
    ):
        budget = max(1, n * len(tuples) // 2)
        _assert_same_outcome(run(budget), _reference_stage(depth, n, k, prior, tuples, budget))


def _not_closed(tuples: np.ndarray, how: str) -> np.ndarray:
    return {"every other": tuples[::2], "reversed": tuples[::-1],
            "duplicated": np.concatenate((tuples[:3], tuples[1:2], tuples[3:]))}[how]


@pytest.mark.parametrize("how", ["every other", "reversed", "duplicated"])
@pytest.mark.parametrize("n,k", [(4, 8), (5, 5), (6, 12)])
def test_extend_of_a_list_not_closed_under_digit_permutations(n, k, how):
    """A caller's list need not hold every digit permutation of its tuples, nor hold each once, nor in order."""
    had = root_hadamard_enumerate(n, k)
    hadamards = _not_closed(had.matrices, how)
    trip = mub_triplet_search(n, k, hadamards=replace(had, results=hadamards))
    _assert_same_outcome(trip, _reference_stage("triplets", n, k, had, hadamards[:, None]))
    full = mub_triplet_search(n, k, hadamards=had)
    triplets = _not_closed(full.results, how)
    quart = mub_quartet_search(n, k, triplets=replace(full, results=triplets))
    _assert_same_outcome(quart, _reference_stage("quartets", n, k, full, triplets))


def _digit_orbit(t: tuple) -> tuple:
    """Brute-force orbit label of a tuple (H1, ...): the least of its column-set keys over every
    permutation of rows 1..n-1."""
    n = len(t[0])

    def key(mats):
        return tuple(tuple(sorted(map(tuple, m[1:, j:].T))) for j, m in zip((1, *([0] * (len(mats) - 1))), mats))

    return min(key([m[[0, *(p + 1 for p in perm)]] for m in t]) for perm in permutations(range(n - 1)))


@pytest.mark.parametrize("depth", ["triplets", "quartets"])
def test_resume_solves_a_representative_the_checkpoint_holds(depth, tmp_path, monkeypatch):
    """At (5, 5) the first unit of each stage is the least of its digit-permutation orbit, and later units
    of that orbit have results.  A run that stops after the first unit leaves them pending; the resumed run
    solves each representative once, the held one too, and returns the answer of an uninterrupted run."""
    n, k = 5, 5
    had = root_hadamard_enumerate(n, k)
    trip = mub_triplet_search(n, k, hadamards=had)
    run, tuples = {
        "triplets": (lambda **kw: mub_triplet_search(n, k, hadamards=had, **kw), had.matrices[:, None]),
        "quartets": (lambda **kw: mub_quartet_search(n, k, triplets=trip, **kw), trip.results),
    }[depth]
    want = run()
    extended = {tuple(_result_bytes(r[:-1])) for r in want.results}
    assert [u for u in range(1, len(tuples))  # the case this test is about
            if _digit_orbit(tuples[u]) == _digit_orbit(tuples[0]) and tuple(_result_bytes(tuples[u])) in extended]
    path = str(tmp_path / "run.checkpoint.json")
    partial = run(budget=n, checkpoint_path=path)  # one unit costs n nodes
    assert not partial.complete and len(partial.results) > 0
    assert {tuple(_result_bytes(r[:-1])) for r in partial.results} == {tuple(_result_bytes(tuples[0]))}
    walks = []
    monkeypatch.setattr(search_mod, "cliques", lambda *args, **kwargs: walks.append(1) or cliques(*args, **kwargs))
    resumed = run(resume_token=path)
    # one clique walk per orbit: every unit here has results, so every representative reaches the walk
    assert resumed.complete and len(walks) == len({_digit_orbit(t) for t in tuples})
    assert [_result_bytes(r) for r in resumed.results] == [_result_bytes(r) for r in want.results]


def test_orbit_forest_spans_the_components():
    """Every tree of `_orbit_forest` is one connected component, rooted at its least element, and every
    parent edge is an edge of the map it names, in one direction or the other."""
    rng = np.random.default_rng(7)
    for count in (0, 1, 5, 40):
        maps = [np.where(rng.random(count) < 0.3, -1, rng.integers(0, max(count, 1), count)) for _ in range(3)]
        parent, via = _orbit_forest(count, *maps)
        label = list(range(count))  # union-find oracle: the least element of each component

        def find(i):
            while label[i] != i:
                i = label[i]
            return i

        for image in maps:
            for i, j in enumerate(image):
                if j >= 0:
                    a, b = sorted((find(i), find(int(j))))
                    label[b] = a
        for i in range(count):
            root = i
            for _ in range(count):
                if parent[root] < 0:
                    break
                p, g = parent[root], via[root]
                assert maps[g][root] == p or maps[g][p] == root
                root = p
            assert root == find(i)
        assert sum(p < 0 for p in parent) == len({find(i) for i in range(count)})


@pytest.mark.parametrize("n, k, counts", [(6, 12, (2184, 480, 0)), (3, 3, (1, 2, 2)), (3, 4, (0, 0, 0))])
def test_each_stage_gives_one_int16_array(n, k, counts, tmp_path):
    """Every stage's results are one int16 array, (count, n, n) Hadamards or (count, m, n, n) tuples of m
    matrices, an empty stage and a stage with no unit included, and so are a budgeted run's and a resumed run's."""
    had = root_hadamard_enumerate(n, k)
    trip = mub_triplet_search(n, k, hadamards=had)
    quart = mub_quartet_search(n, k, triplets=trip)
    assert had.matrices is had.results
    for outcome, count, shape in zip((had, trip, quart), counts, ((n, n), (2, n, n), (3, n, n))):
        assert isinstance(outcome.results, np.ndarray)
        assert outcome.results.dtype == np.int16 and outcome.results.shape == (count, *shape)
    path = str(tmp_path / "run.checkpoint.json")
    partial = mub_quartet_search(n, k, budget=1, checkpoint_path=path, triplets=trip)
    resumed = mub_quartet_search(n, k, resume_token=partial.resume_token, triplets=trip)  # (3, 4): a fresh run
    for outcome in (partial, resumed):
        assert outcome.results.dtype == np.int16 and outcome.results.shape[1:] == (3, n, n)
    assert np.array_equal(resumed.results, quart.results)
