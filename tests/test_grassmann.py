import numpy as np
import pytest

from mubtools.catalog import f6
from mubtools.constructions import fourier, prime_mub_set
from mubtools.core import Basis
from mubtools.grassmann import (
    basis_frame,
    basis_projector,
    bloch_embed,
    chordal_distance_sq,
    chordal_distance_sq_overlap,
    distance_table,
    gell_mann_basis,
    hs_distance_sq,
    spread_objective,
    spread_upper_bound,
)


def haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_unit(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestGellMannFrame:
    def test_orthonormal_traceless_hermitian(self):
        for n in range(2, 7):
            frame = gell_mann_basis(n)
            assert frame.shape == (n * n - 1, n, n)
            for mat in frame:
                assert abs(np.trace(mat)) < 1e-14
                assert np.abs(mat - mat.conj().T).max() < 1e-14
            gram = 0.5 * np.einsum("aij,bji->ab", frame, frame).real
            assert np.abs(gram - np.eye(n * n - 1)).max() < 1e-12


class TestBlochEmbed:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            for _ in range(10):
                e = bloch_embed(random_unit(n, rng))
                assert abs(np.linalg.norm(e) - 1) < 1e-12

    def test_qubit_north_pole(self):
        e = bloch_embed(np.array([1.0, 0.0]))
        assert np.allclose(e, [0.0, 0.0, 1.0], atol=1e-14)

    def test_orthogonal_vectors_simplex_angle(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 6):
            u = haar(n, rng)
            dot = float(bloch_embed(u[:, 0]) @ bloch_embed(u[:, 1]))
            assert dot == pytest.approx(-1 / (n - 1), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            bloch_embed(np.array([1.0, 1.0]))


class TestHsDistance:
    def test_zero_on_equal(self):
        a = np.diag([0.2, 0.8])
        assert hs_distance_sq(a, a) == 0

    def test_orthogonal_pure_projectors(self):
        p1 = np.diag([1.0, 0.0])
        p2 = np.diag([0.0, 1.0])
        assert hs_distance_sq(p1, p2) == pytest.approx(1.0)

    def test_maximally_mixed_vs_pure_qubit(self):
        rho = np.eye(2) / 2
        pure = np.diag([1.0, 0.0])
        assert hs_distance_sq(rho, pure) == pytest.approx(0.25)


class TestBasisProjector:
    def test_idempotent_and_trace(self):
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            p = basis_projector(Basis(haar(n, rng)))
            assert np.abs(p @ p - p).max() < 1e-9
            assert abs(np.trace(p) - (n - 1)) < 1e-9

    def test_fixes_own_bloch_vectors(self):
        rng = np.random.default_rng(3)
        basis = Basis(haar(4, rng))
        p = basis_projector(basis)
        for j in range(4):
            e = bloch_embed(basis.matrix[:, j])
            assert np.abs(p @ e - e).max() < 1e-10

    def test_frame_rank_and_column_sum(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 6):
            frame = basis_frame(Basis(haar(n, rng)))
            assert np.linalg.matrix_rank(frame, tol=1e-9) == n - 1
            assert np.abs(frame.sum(axis=1)).max() < 1e-12

    def test_standard_qubit_axis(self):
        p = basis_projector(Basis.standard(2))
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.allclose(p, expected, atol=1e-14)

    def test_mub_planes_totally_orthogonal_n3(self):
        p1 = basis_projector(Basis.standard(3))
        p2 = basis_projector(fourier(3))
        assert np.abs(p1 @ p2).max() < 1e-12


class TestChordalDistance:
    def test_zero_on_equal(self):
        p = basis_projector(fourier(4))
        assert chordal_distance_sq(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_standard_fourier_six(self):
        d2 = chordal_distance_sq(basis_projector(Basis.standard(6)), basis_projector(fourier(6)))
        assert d2 == pytest.approx(5.0, abs=1e-12)

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            a, b = Basis(haar(n, rng)), Basis(haar(n, rng))
            d_trace = chordal_distance_sq(basis_projector(a), basis_projector(b))
            d_overlap = chordal_distance_sq_overlap(a, b)
            assert abs(d_trace - d_overlap) < 1e-9

    def test_bounds_and_mub_extremality(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            mub_d = chordal_distance_sq_overlap(Basis.standard(n), fourier(n))
            assert mub_d == pytest.approx(n - 1, abs=1e-10)
            for _ in range(20):
                d = chordal_distance_sq_overlap(Basis(haar(n, rng)), Basis(haar(n, rng)))
                assert 0 <= d <= n - 1
            # a column-permuted, rephased copy spans the same plane; rounding once put D2 below 0 here
            copy = Basis(fourier(n).matrix[:, rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n)))
            assert 0 <= chordal_distance_sq_overlap(fourier(n), copy) < 1e-12
        # F6(pi, pi) has the columns of the Fourier matrix, up to order and phases
        assert 0 <= chordal_distance_sq_overlap(fourier(6), Basis(f6(np.pi, np.pi))) < 1e-12

    def test_left_invariance(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            a, b, u = haar(n, rng), haar(n, rng), haar(n, rng)
            d1 = chordal_distance_sq_overlap(Basis(a), Basis(b))
            d2 = chordal_distance_sq_overlap(Basis(u @ a), Basis(u @ b))
            assert abs(d1 - d2) < 1e-10


class TestDistanceTable:
    def test_prime3_complete_set(self):
        mubs = prime_mub_set(3)
        table = distance_table(list(mubs.bases))
        off = table[~np.eye(4, dtype=bool)]
        assert np.abs(off - 2.0).max() < 1e-9
        # a complete family of mutually orthogonal planes cannot exceed n+1 members
        assert len(mubs.bases) <= 3 + 1

    def test_single_pair_consistency(self):
        a = Basis.standard(4)
        b = fourier(4)
        table = distance_table([a, b])
        assert table[0, 1] == pytest.approx(
            chordal_distance_sq(basis_projector(a), basis_projector(b)), abs=1e-12
        )

    def test_requires_two(self):
        with pytest.raises(ValueError):
            distance_table([Basis.standard(3)])

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(8)
        for n in range(2, 8):
            for m in (3, 4, 5):
                bases = [Basis(haar(n, rng)) for _ in range(m)]
                projs = [basis_projector(b) for b in bases]
                table = distance_table(bases)
                for i, j in np.ndindex(m, m):
                    if i != j:
                        assert abs(table[i, j] - chordal_distance_sq(projs[i], projs[j])) < 1e-12
                assert np.array_equal(table, table.T)
                assert np.all(np.diag(table) == 0.0)

    def test_rejects_non_unitary_and_mixed_dimensions(self):
        with pytest.raises(ValueError, match="not unitary"):
            distance_table([Basis.standard(3), Basis(np.full((3, 3), 0.5)), fourier(3)])
        with pytest.raises(ValueError, match="mixed dimensions"):
            distance_table([Basis.standard(3), fourier(4)])


class TestSpreadObjective:
    def test_complete_set_n3(self):
        mubs = prime_mub_set(3)
        assert spread_objective(list(mubs.bases)) == pytest.approx(12.0, abs=1e-9)
        assert spread_upper_bound(3, 4) == 12.0

    def test_identical_pair_zero(self):
        assert spread_objective([Basis.standard(4), Basis.standard(4)]) == pytest.approx(0.0, abs=1e-12)

    def test_three_mub_bases_n6(self, assembled6):
        circulant = next(
            b for b in assembled6.bases if "gaussian:circulant" in b.label
        )
        bases = [Basis.standard(6), fourier(6), circulant]
        assert spread_objective(bases) == pytest.approx(15.0, abs=1e-8)
