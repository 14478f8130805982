import json

import numpy as np
import pytest

from mubtools.catalog import (
    FamilyPoint,
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
from mubtools.constructions import fourier
from mubtools.core import InadmissibleParameterError, Tolerance, haagerup_invariants, is_complex_hadamard
from mubtools.search import root_hadamard_enumerate

TOL9 = Tolerance(eq_tol=1e-9, dedupe_tol=1e-6)

# admissibility boundary of the hermitian one-parameter family
THETA_EDGE = np.arccos((np.sqrt(3) - 1) / 2)


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
        """Each shipped fixture is the lexicographically least matrix of the complete (6, k) search."""
        from importlib import resources

        payload = json.loads(resources.files("mubtools").joinpath(f"fixtures/{name}.json").read_text())
        outcome = root_hadamard_enumerate(6, k)
        assert outcome.complete and len(outcome.matrices) == count
        least = min(outcome.matrices, key=lambda m: tuple(m.ravel()))
        assert payload["k"] == k
        assert payload["exponents"] == least.tolist()
        search = payload["provenance"]["search"]
        assert (search["matrices_found"], search["haagerup_buckets"]) == (count, len(outcome.buckets))

    def test_corrupted_fixture_fails_exact_verification(self, tmp_path, monkeypatch):
        from importlib import resources

        payload = json.loads(resources.files("mubtools").joinpath("fixtures/S.json").read_text())
        payload["exponents"][3][4] = (payload["exponents"][3][4] + 1) % 3
        (tmp_path / "fixtures").mkdir()
        (tmp_path / "fixtures" / "S.json").write_text(json.dumps(payload))
        monkeypatch.setattr(resources, "files", lambda package: tmp_path)
        with pytest.raises(ValueError, match="failed exact verification"):
            load_fixture("S")

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            load_fixture("nope")


class TestFamilyPoint:
    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="parameter"):
            FamilyPoint("H4", (0.1, 0.2))
        with pytest.raises(ValueError, match="unknown family"):
            FamilyPoint("H5", (0.1,))

    def test_family_matrix_dispatch(self):
        assert np.allclose(family_matrix(FamilyPoint("F6", (0, 0))), fourier(6).matrix)
        assert is_complex_hadamard(family_matrix(FamilyPoint("BJORCK_C")))
        assert is_complex_hadamard(family_matrix(FamilyPoint("BN", (2.5,))))

    def test_dita_only_at_zero(self):
        assert is_complex_hadamard(family_matrix(FamilyPoint("DITA", (0.0,))))
        with pytest.raises(InadmissibleParameterError):
            family_matrix(FamilyPoint("DITA", (0.4,)))
