from itertools import combinations

import numpy as np
import pytest

from mubtools.catalog import load_fixture
from mubtools.constructions import prime_mub_set
from mubtools.core import Basis, Tolerance, haagerup_invariants, is_complex_hadamard, is_unbiased_pair
from mubtools.cyclotomic import RootVector, is_orthogonal, is_unbiased_exact
from mubtools.io import RootMatrix
from mubtools.search import (
    EnumerationBudgetError,
    _bitsets,
    _difference_bits,
    _difference_tables,
    _digit_matrix,
    _NodeBudget,
    _norm_sq_is,
    _orbit_hits,
    cliques,
    mub_quartet_search,
    mub_triplet_search,
    root_hadamard_enumerate,
    unbiased_vector_enumerate,
)

TOL = Tolerance(eq_tol=1e-10, dedupe_tol=1e-6)


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
            inv = haagerup_invariants(to_complex(m, k), TOL)
            groups.setdefault(frozenset(inv.items()), []).append(i)
        assert enum.buckets == list(groups.values())

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
        assert outcome.complete and outcome.results
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


class TestCliques:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        m = 11
        upper = np.triu(rng.random((m, m)) < 0.6, 1)
        adj = upper | upper.T
        for size in range(6):
            expected = [list(c) for c in combinations(range(m), size)
                        if all(adj[a, b] for a, b in combinations(c, 2))]
            assert cliques(adj, size) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_aborts_when_budget_runs_out(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = 10
        upper = np.triu(rng.random((m, m)) < 0.7, 1)
        adj = upper | upper.T
        counter = _NodeBudget(None)
        full = cliques(adj, 4, counter)
        assert full
        for limit in range(counter.used):
            assert cliques(adj, 4, _NodeBudget(limit)) is None
        assert cliques(adj, 4, _NodeBudget(counter.used)) == full

    @pytest.mark.parametrize("seed", range(6))
    def test_bitset_rows_with_start_mask_match_induced_subgraph(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = 13
        upper = np.triu(rng.random((m, m)) < 0.6, 1)
        adj = upper | upper.T
        rows = _bitsets(adj)
        assert all(rows[i] >> j & 1 == adj[i, j] for i in range(m) for j in range(m))
        chosen = np.flatnonzero(rng.random(m) < 0.7)
        start = sum(1 << int(v) for v in chosen)
        sub = adj[np.ix_(chosen, chosen)]
        for size in range(6):
            expected = [[int(chosen[i]) for i in c] for c in cliques(sub, size)]
            assert expected == [list(c) for c in combinations(chosen.tolist(), size)
                                if all(adj[a, b] for a, b in combinations(c, 2))]
            assert cliques(rows, size, start=start) == expected


# (5, 12) and (6, 12) split the digits into two lookup groups (3 + 1 and 3 + 2); the others use one
@pytest.mark.parametrize("n,k", [(4, 4), (6, 3), (3, 6), (6, 4), (5, 12), (6, 12)])
def test_difference_bits_match_per_pair_lookup(n, k):
    orth, unb = _difference_tables(n, k)
    orth_rows = _digit_matrix(np.flatnonzero(orth), n, k)
    base = _digit_matrix(np.flatnonzero(unb), n, k)
    weights = k ** np.arange(n - 1)
    for table, rows, cols in ((orth, orth_rows, orth_rows), (unb, orth_rows, base), (orth, base, base)):
        bits = _difference_bits(table, rows, cols, k)
        assert len(bits) == len(rows)
        for r, row_bits in zip(rows, bits):
            expected = table[((cols.astype(int) - r) % k) @ weights]
            assert row_bits == sum(1 << int(j) for j in np.flatnonzero(expected))


@pytest.mark.parametrize("n,k", [(4, 4), (3, 6), (6, 3)])
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
def test_orbit_hits_match_full_scan(n, k):
    for target in (0, n):
        hits = _orbit_hits(n, k, target)
        assert np.array_equal(hits, _scan_hits(n, k, target))
        if (n, k, target) in _ORBIT_HIT_COUNTS:
            assert len(hits) == _ORBIT_HIT_COUNTS[n, k, target]


@pytest.mark.parametrize("n,k", [(6, 12), (6, 24)])
def test_difference_tables_match_full_scan(n, k):
    orth, unb = _difference_tables(n, k)
    m_total = k ** (n - 1)
    for table, target in ((orth, 0), (unb, n)):
        expected = np.zeros(m_total, dtype=bool)
        expected[_scan_hits(n, k, target)] = True
        assert np.array_equal(table, expected)


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


def test_library_writes_no_checkpoint_unless_asked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outcomes = [
        root_hadamard_enumerate(6, 4, budget=400),
        mub_triplet_search(5, 5, budget=100),
        mub_quartet_search(5, 5, budget=8),
    ]
    assert all(not o.complete and o.resume_token is None for o in outcomes)
    assert list(tmp_path.iterdir()) == []
