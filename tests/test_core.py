import numpy as np
import pytest

from mubtools.catalog import bjorck_c, bjorck_d, f6, h4, load_fixture
from mubtools.constructions import fourier
from mubtools.core import (
    Basis,
    INEQUIVALENT,
    PROBABLY_EQUIVALENT,
    Tolerance,
    dephase,
    equivalent_heuristic,
    haagerup_invariants,
    is_complex_hadamard,
    is_unbiased_pair,
    overlap_squares,
    unitarity_defect,
)


def haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.eq_tol == 1e-10 and tol.dedupe_tol == 1e-6

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=1e-5, dedupe_tol=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=-1.0)


class TestOverlapSquares:
    def test_standard_vs_standard_is_identity(self):
        for n in (2, 3, 6):
            s = overlap_squares(Basis.standard(n), Basis.standard(n))
            assert np.allclose(s, np.eye(n), atol=1e-14)

    def test_standard_vs_fourier6_flat(self):
        s = overlap_squares(Basis.standard(6), fourier(6))
        assert np.abs(s - 1 / 6).max() < 1e-14

    def test_standard_vs_h4_flat(self):
        s = overlap_squares(Basis.standard(4), Basis(h4(np.pi / 3)))
        assert np.abs(s - 1 / 4).max() < 1e-14

    def test_doubly_stochastic_for_random_unitaries(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 6):
            s = overlap_squares(Basis(haar(n, rng)), Basis(haar(n, rng)))
            assert np.abs(s.sum(axis=0) - 1).max() < 1e-10
            assert np.abs(s.sum(axis=1) - 1).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            overlap_squares(Basis.standard(2), Basis.standard(3))

    def test_non_unitary_names_offender(self):
        bad = Basis(np.ones((3, 3)), label="lopsided")
        with pytest.raises(ValueError, match="lopsided"):
            overlap_squares(bad, Basis.standard(3))


class TestUnbiasedPair:
    def test_standard_fourier5(self):
        ok, dev = is_unbiased_pair(Basis.standard(5), fourier(5))
        assert ok and dev <= 1e-12

    def test_standard_standard_false(self):
        for n in (2, 5):
            ok, dev = is_unbiased_pair(Basis.standard(n), Basis.standard(n))
            assert not ok
            assert abs(dev - (1 - 1 / n)) < 1e-14

    def test_fourier6_vs_bjorck(self):
        ok, _ = is_unbiased_pair(fourier(6), Basis(bjorck_c(), label="bjorck"))
        assert ok

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = Basis(haar(4, rng)), Basis(haar(4, rng))
        ok1, d1 = is_unbiased_pair(a, b)
        ok2, d2 = is_unbiased_pair(b, a)
        assert ok1 == ok2 and abs(d1 - d2) < 1e-12


class TestIsComplexHadamard:
    def test_fourier6(self):
        assert is_complex_hadamard(fourier(6).matrix)

    def test_identity_is_not(self):
        assert not is_complex_hadamard(np.eye(4, dtype=complex))

    def test_fixture_families(self):
        assert is_complex_hadamard(load_fixture("S"))
        assert is_complex_hadamard(load_fixture("DITA0"))


class TestUnitarityDefect:
    def test_exact_unitary(self):
        assert unitarity_defect(np.eye(3)) == 0.0
        assert Basis(fourier(5).matrix).unitarity_defect() < 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e308 + 1e308j])
    def test_overflow_gives_inf_without_a_warning(self, entry):
        m = np.eye(2, dtype=complex)
        m[0, 0] = entry
        assert not np.isfinite(unitarity_defect(m))
        assert not np.isfinite(Basis(m).unitarity_defect())


class TestDephase:
    def test_fixed_point_on_fourier(self):
        f = fourier(6).matrix
        assert np.allclose(dephase(f), f, atol=1e-14)

    def test_removes_row_phase(self):
        f = fourier(6).matrix.copy()
        f[1, :] *= 1j
        assert np.allclose(dephase(f), fourier(6).matrix, atol=1e-14)

    def test_bjorck_dephased_still_involves_d(self):
        out = dephase(bjorck_c())
        assert is_complex_hadamard(out)
        # entries cannot all be roots of unity of small order: d is not one
        scaled = out * np.sqrt(6)
        roots24 = np.exp(2j * np.pi * np.arange(24) / 24)
        gaps = np.abs(scaled[:, :, None] - roots24[None, None, :]).min(axis=2)
        assert gaps.max() > 0.05
        d = bjorck_d()
        near_d = np.abs(np.abs(scaled.ravel()[:, None] - np.array([d, np.conj(d), -d, -np.conj(d)])[None, :]).min(axis=1))
        assert (near_d < 1e-12).any()

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = f6(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        once = dephase(m)
        assert np.allclose(dephase(once), once, atol=1e-13)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            dephase(np.eye(3, dtype=complex))


class TestHaagerupInvariants:
    def test_fourier2_multiset_is_plus_minus_one(self):
        inv = haagerup_invariants(fourier(2).matrix)
        assert set(inv) == {complex(1, 0), complex(-1, 0)}
        assert sum(inv.values()) == 2**4

    def test_invariance_under_equivalence_ops(self):
        rng = np.random.default_rng(17)
        m = f6(0.0, 0.0)
        reference = haagerup_invariants(m)
        for _ in range(120):
            rows = rng.permutation(6)
            cols = rng.permutation(6)
            dr = np.exp(2j * np.pi * rng.uniform(size=6))
            dc = np.exp(2j * np.pi * rng.uniform(size=6))
            t = (dr[:, None] * m[rows][:, cols]) * dc[None, :]
            assert haagerup_invariants(t) == reference

    def test_f6_vs_bjorck_differ(self):
        assert haagerup_invariants(f6(0, 0)) != haagerup_invariants(bjorck_c())


class TestEquivalentHeuristic:
    def test_f6_vs_s_inequivalent(self):
        assert equivalent_heuristic(f6(0, 0), load_fixture("S")) == INEQUIVALENT

    def test_dephase_probably_equivalent(self):
        m = bjorck_c()
        assert equivalent_heuristic(m, dephase(m)) == PROBABLY_EQUIVALENT

    def test_h4_zero_vs_pi_recorded(self):
        # both are real Hadamards of order 4; the invariant screen cannot
        # separate them, and indeed they are equivalent
        assert equivalent_heuristic(h4(0.0), h4(np.pi)) == PROBABLY_EQUIVALENT


class TestConjugateBasis:
    def test_involution_and_unbiasedness_preserved(self):
        from mubtools.core import conjugate_basis

        f = fourier(5)
        cc = conjugate_basis(conjugate_basis(f))
        assert np.array_equal(cc.matrix, f.matrix)
        ok, _ = is_unbiased_pair(Basis.standard(5), conjugate_basis(f))
        assert ok
