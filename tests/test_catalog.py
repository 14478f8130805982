import numpy as np
import pytest

from mubtools.catalog import (
    FAMILIES,
    beauchamp_nicoara,
    bjorck_c,
    bjorck_d,
    bn_admissible,
    f6,
    f6_transpose,
    family_matrix,
    h4,
    load_fixture,
)
from mubtools.cli import main
from mubtools.constructions import fourier
from mubtools.core import InadmissibleParameterError, Tolerance, haagerup_invariants, is_complex_hadamard
from mubtools.io import RootMatrix
from mubtools.search import root_hadamard_enumerate

TOL9 = Tolerance(eq_tol=1e-9, dedupe_tol=1e-6)

# admissibility boundary of the hermitian one-parameter family
THETA_EDGE = np.arccos((np.sqrt(3) - 1) / 2)

# the lexicographically least exponent matrices of the complete (6, 3) and (6, 4) searches
LEAST_GRIDS = {
    "S": [[0, 0, 0, 0, 0, 0], [0, 1, 0, 2, 1, 2], [0, 1, 2, 0, 2, 1],
          [0, 2, 2, 1, 1, 0], [0, 2, 1, 2, 0, 1], [0, 0, 1, 1, 2, 2]],
    "DITA0": [[0, 0, 0, 0, 0, 0], [0, 0, 2, 3, 1, 2], [0, 2, 0, 3, 2, 1],
              [0, 3, 2, 1, 2, 0], [0, 2, 3, 1, 0, 2], [0, 1, 1, 2, 3, 3]],
}


def multisets_close(a, b, tol=1e-5):
    """Tolerant multiset comparison for invariants computed from different float paths."""
    va = np.sort_complex(np.repeat(np.fromiter(a.keys(), dtype=complex), list(a.values())))
    vb = np.sort_complex(np.repeat(np.fromiter(b.keys(), dtype=complex), list(b.values())))
    return len(va) == len(vb) and np.abs(va - vb).max() < tol


class TestH4:
    def test_zero_is_real_hadamard(self):
        m = h4(0.0)
        assert np.abs(m.imag).max() == 0
        assert np.abs(np.abs(m) - 0.5).max() < 1e-15
        assert is_complex_hadamard(m)

    def test_hadamard_for_random_phases(self):
        rng = np.random.default_rng(1)
        for phi in rng.uniform(0, 2 * np.pi, size=100):
            assert np.abs(h4(phi).conj().T @ h4(phi) - np.eye(4)).max() < 1e-12


class TestF6:
    def test_zero_point_is_fourier(self):
        assert np.allclose(f6(0, 0), fourier(6).matrix, atol=1e-15)
        assert np.allclose(f6_transpose(0, 0), fourier(6).matrix, atol=1e-15)

    def test_hadamard_on_random_phases(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
            assert is_complex_hadamard(f6(p1, p2))
            assert is_complex_hadamard(f6_transpose(p1, p2))

    def test_displayed_entry(self):
        p1, p2 = 0.7, 1.9
        q = np.exp(2j * np.pi / 6)
        assert f6(p1, p2)[3, 1] == pytest.approx(q**3 * np.exp(1j * p1) / np.sqrt(6))

    def test_transpose_matches_entrywise(self):
        rng = np.random.default_rng(3)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        assert np.array_equal(f6_transpose(p1, p2), f6(p1, p2).T)


class TestBjorck:
    def test_d_satisfies_quadratic(self):
        d = bjorck_d()
        assert abs(d * d - (1 - np.sqrt(3)) * d + 1) < 1e-14

    def test_d_unimodular(self):
        assert abs(abs(bjorck_d()) - 1) < 1e-14

    def test_d_value(self):
        # oracle: evaluate the closed form with mpmath-free double precision
        s3 = 3.0**0.5
        assert bjorck_d() == pytest.approx(complex((1 - s3) / 2, (s3 / 2) ** 0.5), abs=1e-12)
        assert bjorck_d().real == pytest.approx(-0.36602540, abs=5e-9)
        assert bjorck_d().imag == pytest.approx(0.93060486, abs=5e-9)

    def test_is_hadamard(self):
        assert is_complex_hadamard(bjorck_c(), TOL9)

    def test_circulant_columns(self):
        c = bjorck_c()
        col0 = c[:, 0]
        for j in range(6):
            assert np.array_equal(c[:, j], np.roll(col0, j))


class TestBeauchampNicoara:
    def test_admissible_arc_yields_hadamards(self):
        for theta in np.linspace(THETA_EDGE + 1e-3, 2 * np.pi - THETA_EDGE - 1e-3, 25):
            m, (x, z, t) = beauchamp_nicoara(np.exp(1j * theta))
            assert is_complex_hadamard(m, TOL9)
            for val in (x, z, t):
                assert abs(abs(val) - 1) < 1e-10

    def test_hermitian_up_to_scale(self):
        m, _ = beauchamp_nicoara(np.exp(1j * 2.0))
        assert np.abs(m - m.conj().T).max() < 1e-12

    def test_interval_around_one_excluded(self):
        for theta in (0.0, 0.3, -0.5, THETA_EDGE - 0.05):
            with pytest.raises(InadmissibleParameterError):
                beauchamp_nicoara(np.exp(1j * theta))
        assert not bn_admissible(1.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(InadmissibleParameterError, match="unimodular"):
            beauchamp_nicoara(1.2)

    def test_branches_equivalent(self):
        y = np.exp(1j * 2.2)
        plus, _ = beauchamp_nicoara(y, branch=+1)
        minus, _ = beauchamp_nicoara(y, branch=-1)
        assert multisets_close(haagerup_invariants(plus), haagerup_invariants(minus))

    def test_arc_ends_match_bjorck_invariants(self):
        reference = haagerup_invariants(bjorck_c())
        for theta in (THETA_EDGE, 2 * np.pi - THETA_EDGE):
            m, _ = beauchamp_nicoara(np.exp(1j * theta))
            assert multisets_close(haagerup_invariants(m), reference)


class TestFixtures:
    def test_s_entries_are_third_roots(self):
        scaled = load_fixture("S") * np.sqrt(6)
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        gaps = np.abs(scaled[:, :, None] - roots[None, None, :]).min(axis=2)
        assert gaps.max() < 1e-12

    def test_dita0_entries_are_fourth_roots(self):
        scaled = load_fixture("DITA0") * np.sqrt(6)
        roots = np.exp(2j * np.pi * np.arange(4) / 4)
        gaps = np.abs(scaled[:, :, None] - roots[None, None, :]).min(axis=2)
        assert gaps.max() < 1e-12

    def test_fixtures_are_hadamard(self):
        assert is_complex_hadamard(load_fixture("S"), TOL9)
        assert is_complex_hadamard(load_fixture("DITA0"), TOL9)

    @pytest.mark.parametrize("name, k, count", [("S", 3, 12), ("DITA0", 4, 72)])
    def test_fixture_is_least_search_matrix(self, name, k, count):
        """Each named matrix is the lexicographically least matrix of the complete (6, k) search."""
        outcome = root_hadamard_enumerate(6, k)
        assert outcome.complete and len(outcome.matrices) == count and len(outcome.buckets) == 1
        least = min(outcome.matrices, key=lambda m: tuple(m.ravel()))
        assert least.tolist() == LEAST_GRIDS[name]
        assert np.array_equal(load_fixture(name), RootMatrix(6, k, np.array(LEAST_GRIDS[name])).to_complex())

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            load_fixture("nope")


class TestFamilyPoint:
    """`family_matrix` evaluates a family at a parameter point, checking the name and the arity."""

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="parameter"):
            family_matrix("H4", (0.1, 0.2))
        with pytest.raises(ValueError, match="parameter"):
            family_matrix("S", (0.1,))
        with pytest.raises(ValueError, match="unknown family"):
            family_matrix("H5", (0.1,))

    def test_family_matrix_dispatch(self):
        assert np.allclose(family_matrix("F6", (0, 0)), fourier(6).matrix)
        assert np.array_equal(family_matrix("H4", (0.3,)), h4(0.3))
        assert np.array_equal(family_matrix("F6_transpose", (0.3, 1.1)), f6_transpose(0.3, 1.1))
        assert np.array_equal(family_matrix("S"), load_fixture("S"))
        assert is_complex_hadamard(family_matrix("BJORCK_C"))
        assert np.array_equal(family_matrix("BN", (2.5,)), beauchamp_nicoara(np.exp(2.5j))[0])
        for name, (dim, names, _) in FAMILIES.items():
            params = (0.0,) * len(names) if name != "BN" else (2.5,)
            assert family_matrix(name, params).shape == (dim, dim)

    def test_dita_only_at_zero(self):
        assert is_complex_hadamard(family_matrix("DITA", (0.0,)))
        with pytest.raises(InadmissibleParameterError):
            family_matrix("DITA", (0.4,))


class TestScanColumns:
    """`scan` takes its parameter columns and grid order from the family table."""

    def _scan(self, tmp_path, *argv):
        out = tmp_path / "scan.csv"
        assert main(["scan", *argv, "--csv", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        return header, [row.split(",") for row in rows]

    def test_f6_grid(self, tmp_path):
        header, rows = self._scan(tmp_path, "f6", "--points", "2")
        assert header == "phi1,phi2,admissible,hadamard_defect,d2_to_standard,extension_score"
        pi = format(np.pi, ".12g")
        assert [row[:3] for row in rows] == [
            ["0", "0", "1"], ["0", pi, "1"], [pi, "0", "1"], [pi, pi, "1"]]

    def test_bn_grid(self, tmp_path):
        header, rows = self._scan(tmp_path, "bn", "--points", "3")
        assert header == "theta,admissible,hadamard_defect,d2_to_standard,extension_score"
        thirds = [format(t, ".12g") for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        assert [row[:2] for row in rows] == [[thirds[0], "0"], [thirds[1], "1"], [thirds[2], "1"]]
