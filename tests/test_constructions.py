from itertools import combinations

import numpy as np
import pytest

from mubtools.constructions import (
    fourier,
    ks_uncolourable,
    peres_rays,
    prime_mub_set,
    real_mub_set_dim4,
    real_unbiased_census,
    weyl_pair,
)
from mubtools.core import Basis, is_complex_hadamard, is_unbiased_pair, overlap_squares


class TestWeylPair:
    def test_n2_is_pauli(self):
        x, z, q = weyl_pair(2)
        assert np.allclose(x, [[0, 1], [1, 0]])
        assert np.allclose(z, [[1, 0], [0, -1]])
        assert q == pytest.approx(-1)

    def test_commutation_relation(self):
        for n in (2, 3, 5, 6, 8):
            x, z, q = weyl_pair(n)
            assert np.abs(x @ z - q * (z @ x)).max() < 1e-12

    def test_q_primitive_for_n6(self):
        _, _, q = weyl_pair(6)
        assert all(abs(q**k - 1) > 0.5 for k in range(1, 6))
        assert abs(q**6 - 1) < 1e-12

    def test_orders(self):
        for n in (2, 3, 5, 6):
            x, z, _ = weyl_pair(n)
            assert np.abs(np.linalg.matrix_power(x, n) - np.eye(n)).max() < 1e-12
            assert np.abs(np.linalg.matrix_power(z, n) - np.eye(n)).max() < 1e-12
            for k in range(n):
                m = x @ np.linalg.matrix_power(z, k)
                assert np.abs(m.conj().T @ m - np.eye(n)).max() < 1e-12
                assert np.abs(np.linalg.matrix_power(m, 2 * n) - np.eye(n)).max() < 1e-10

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            weyl_pair(1)


class TestFourier:
    def test_n2(self):
        assert np.allclose(fourier(2).matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_eigenbasis_of_shift(self):
        for n in range(2, 9):
            x, _, q = weyl_pair(n)
            f = fourier(n).matrix
            for b in range(n):
                assert np.abs(x @ f[:, b] - q**b * f[:, b]).max() < 1e-12

    def test_flat_overlaps_with_standard(self):
        for n in range(2, 9):
            s = overlap_squares(Basis.standard(n), fourier(n))
            assert np.abs(s - 1 / n).max() < 1e-12

    def test_hadamard(self):
        assert is_complex_hadamard(fourier(6).matrix)


class TestPrimeMubSet:
    def test_p2_has_three_bases(self):
        mubs = prime_mub_set(2)
        assert len(mubs) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                ok, _ = is_unbiased_pair(mubs.bases[i], mubs.bases[j])
                assert ok

    def test_p5_all_pairs_unbiased(self):
        mubs = prime_mub_set(5)
        assert len(mubs) == 6
        for i in range(6):
            for j in range(i + 1, 6):
                ok, dev = is_unbiased_pair(mubs.bases[i], mubs.bases[j])
                assert ok, (i, j, dev)

    def test_p7_entries_are_pth_roots(self):
        mubs = prime_mub_set(7)
        roots = np.exp(2j * np.pi * np.arange(7) / 7)
        for basis in mubs.bases[1:]:
            scaled = basis.matrix * np.sqrt(7)
            gaps = np.abs(scaled[:, :, None] - roots[None, None, :]).min(axis=2)
            assert gaps.max() < 1e-9

    def test_composites_rejected(self):
        for bad in (4, 6, 9, 1, 0, -7, 25, 27):
            with pytest.raises(ValueError, match="prime"):
                prime_mub_set(bad)


class TestRealDimension3:
    def test_four_sign_classes(self):
        census = real_unbiased_census(3)
        assert len(census.representatives) == 4

    def test_dots_never_zero(self):
        census = real_unbiased_census(3)
        off = census.pairwise_dots[~np.eye(8, dtype=bool)]
        assert np.all((np.abs(np.abs(off) - 1) < 1e-12) | (np.abs(np.abs(off) - 1 / 3) < 1e-12))

    def test_verdict(self):
        census = real_unbiased_census(3)
        assert not census.mub_pair_exists
        assert "no real MUB pair" in census.verdict

    def test_other_dims_rejected(self):
        with pytest.raises(ValueError):
            real_unbiased_census(4)


class TestRealDimension4:
    def test_three_unbiased_bases(self):
        result = real_mub_set_dim4()
        for i in range(3):
            basis = result.bases[i]
            assert basis.unitarity_defect() < 1e-12
            for j in range(i + 1, 3):
                s = np.abs(result.bases[i].matrix.conj().T @ result.bases[j].matrix) ** 2
                assert np.abs(s - 0.25).max() < 1e-12

    def test_vertex_count(self):
        result = real_mub_set_dim4()
        assert result.vertices.shape == (24, 4)
        # 12 distinct rays, each doubled
        rays = set()
        for v in result.vertices:
            key = tuple(np.round(v * np.sign(v[np.nonzero(v)[0][0]]), 9))
            rays.add(key)
        assert len(rays) == 12


class TestKochenSpecker:
    def test_peres_rays_shape(self):
        rays = peres_rays()
        assert rays.shape == (24, 4)
        assert np.abs(np.linalg.norm(rays, axis=1) - 1).max() < 1e-12

    def test_pair_of_dual_24cells_uncolourable(self):
        result = ks_uncolourable(peres_rays())
        assert result.uncolourable
        assert len(result.contexts) == 24
        assert result.colouring is None

    def test_single_basis_colourable(self):
        result = ks_uncolourable(np.eye(4))
        assert not result.uncolourable
        assert sum(result.colouring) == 1

    def test_two_disjoint_bases_colourable(self):
        d4 = real_mub_set_dim4()
        vectors = np.vstack([np.real(d4.bases[0].matrix.T), np.real(d4.bases[1].matrix.T)])
        result = ks_uncolourable(vectors)
        assert not result.uncolourable
        assert len(result.contexts) == 2

    def test_matches_brute_force_colouring_on_ray_subsets(self):
        """The verdict, contexts and colouring against all 2^m colourings of subsets of the Peres rays.

        A subset is some random rays, pruned until each lies in a context of the
        subset; uncolourable ones need 19 or more rays, so up to 20 are kept.
        """
        rays = peres_rays()
        all_contexts = ks_uncolourable(rays).contexts
        rng = np.random.default_rng(3)
        wanted = {False: 20, True: 2}
        for _ in range(2000):
            keep = set(rng.choice(len(rays), int(rng.integers(8, 22)), replace=False).tolist())
            while keep != (inside := {i for c in all_contexts if set(c) <= keep for i in c}):
                keep = inside
            if not keep or len(keep) > 20:
                continue
            vecs = rays[sorted(keep)]
            result = ks_uncolourable(vecs)
            if not wanted[result.uncolourable]:
                continue
            wanted[result.uncolourable] -= 1
            m = len(vecs)
            orth = np.abs(vecs @ vecs.T) < 1e-9
            contexts = [q for q in combinations(range(m), 4) if all(orth[i, j] for i, j in combinations(q, 2))]
            colourings = np.arange(2**m, dtype=np.uint32)
            valid = np.ones(2**m, dtype=bool)
            for q in contexts:
                ones = colourings & np.uint32(sum(1 << i for i in q))
                valid &= (ones != 0) & (ones & (ones - 1) == 0)  # exactly one ray of the context is 1
            assert sorted(result.contexts) == contexts
            assert result.uncolourable == (not valid.any())
            if result.colouring is not None:
                assert valid[sum(c << i for i, c in enumerate(result.colouring))]
            if not any(wanted.values()):
                break
        assert wanted == {False: 0, True: 0}

    def test_uncovered_vector_rejected(self):
        vectors = np.vstack([np.eye(4), [[0.3, 0.5, 0.2, 0.7]]])
        with pytest.raises(ValueError, match="no complete orthogonal quadruple"):
            ks_uncolourable(vectors)
