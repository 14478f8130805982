import numpy as np
import pytest

from mubtools.biunimodular import (
    BJORCK,
    GAUSSIAN,
    CensusResult,
    _new_solutions,
    _ScrambledHalton,
    assemble_bases,
    autocorrelation,
    census_distance_report,
    dft,
    is_biunimodular,
    newton_census,
    root_census,
)
from mubtools.catalog import bjorck_c
from mubtools.constructions import fourier
from mubtools.core import Basis, Tolerance, is_unbiased_pair

TOL9 = Tolerance(eq_tol=1e-9, dedupe_tol=1e-6)


class TestDft:
    def test_delta_goes_flat(self):
        x = np.zeros(6, dtype=complex)
        x[0] = 1
        assert np.allclose(dft(x), np.ones(6) / np.sqrt(6))

    def test_all_ones(self):
        out = dft(np.ones(5, dtype=complex))
        expected = np.zeros(5, dtype=complex)
        expected[0] = np.sqrt(5)
        assert np.allclose(out, expected, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_double_transform_reverses_index(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        twice = dft(dft(x))
        reversed_x = x[(-np.arange(7)) % 7]
        assert np.allclose(twice, reversed_x, atol=1e-12)


class TestIsBiunimodular:
    def test_gauss_sequence(self):
        n = 6
        x = np.exp(2j * np.pi * (n + 1) * np.arange(n) ** 2 / (2 * n))
        ok, dev = is_biunimodular(x)
        assert ok and dev < 1e-12

    def test_all_ones_fails(self):
        # transform is (sqrt(6), 0, ..., 0): the peak overshoots by sqrt(6)-1
        ok, dev = is_biunimodular(np.ones(6, dtype=complex))
        assert not ok and dev == pytest.approx(np.sqrt(6) - 1)

    def test_bjorck_column(self):
        x = bjorck_c()[:, 0] * np.sqrt(6)
        ok, _ = is_biunimodular(x, TOL9)
        assert ok


class TestAutocorrelation:
    def test_all_ones(self):
        gamma = autocorrelation(np.ones(6, dtype=complex))
        assert np.allclose(gamma, np.ones(6))

    def test_census_members_delta(self, census6):
        for seq in census6.sequences:
            gamma = autocorrelation(seq.as_array())
            assert abs(gamma[0] - 1) < 1e-9
            assert np.abs(gamma[1:]).max() < 1e-9

    def test_random_unimodular_not_delta(self):
        rng = np.random.default_rng(2)
        x = np.exp(2j * np.pi * rng.uniform(size=6))
        gamma = autocorrelation(x)
        assert np.abs(gamma[1:]).max() > 0.01


class TestNewtonCensus:
    def test_counts_and_split(self, census6):
        assert census6.count == 48
        assert census6.count_by_kind() == {GAUSSIAN: 12, BJORCK: 36}
        assert census6.metadata["status"] == "ok"

    def test_solver_postcondition(self, census6):
        for seq in census6.sequences:
            ok, dev = is_biunimodular(seq.as_array(), TOL9)
            assert ok, dev

    def test_sorted_and_deduplicated(self, census6):
        phases = [tuple(s.phases()) for s in census6.sequences]
        assert phases == sorted(phases)
        for i in range(len(phases)):
            for j in range(i + 1, len(phases)):
                gap = np.abs((np.array(phases[i]) - phases[j] + np.pi) % (2 * np.pi) - np.pi).max()
                assert gap > 1e-6

    def test_cyclic_shifts_orthogonal(self, census6):
        for seq in census6.sequences:
            x = seq.as_array()
            for shift in range(1, 6):
                assert abs(np.vdot(x, np.roll(x, shift))) < 1e-9

    def test_agrees_with_root_census_on_gaussians(self, census6):
        exact = root_census(6, 12)
        exact_sets = {tuple(np.round(s.phases(), 6)) for s in exact.sequences}
        newton_gauss = {
            tuple(np.round(s.phases(), 6)) for s in census6.sequences if s.kind == GAUSSIAN
        }
        assert exact_sets == newton_gauss

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            newton_census(4)

    def test_quotient_counts_recorded(self, census6):
        counts = census6.metadata["counts_under_quotients"]
        assert counts["fixed_first_entry"] == 48
        assert counts["up_to_shift"] < 48
        assert counts["up_to_shift_and_conjugation"] <= counts["up_to_shift"]
        assert counts == census6.quotient_counts()

    def test_bjorck_entry_tags_recorded(self, census6):
        tags = census6.metadata["bjorck_entry_tags"]
        assert sum(tags.values()) == 36 * 6
        assert tags.get("d-times-root12", 0) > 0


class TestScrambledHalton:
    @pytest.mark.parametrize("d", [2, 4, 5, 6])
    def test_matches_scipy_bit_for_bit(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for seed in range(6):
            ours = _ScrambledHalton(d, seed)
            # the call the census made before it stopped importing scipy
            reference = qmc.Halton(d=d, scramble=True, seed=seed)
            for take in (512, 1, 300, 1024, 7):
                assert ours.random(take).tobytes() == reference.random(take).tobytes()

    def test_points_lie_in_unit_cube_and_differ_by_seed(self):
        a = _ScrambledHalton(5, 0).random(2048)
        assert a.min() >= 0.0 and a.max() < 1.0
        assert not np.array_equal(a, _ScrambledHalton(5, 1).random(2048))


def test_new_solutions_matches_pairwise_loop():
    """The batched dedupe keeps exactly the rows a one-by-one scan would keep."""
    rng = np.random.default_rng(5)
    tol = 1e-6
    centres = rng.uniform(0, 2 * np.pi, (12, 5))
    centres[0, 0] = 2 * np.pi - 1e-8  # a near-duplicate across the 2 pi wrap
    for trial in range(20):
        picks = rng.integers(0, len(centres), 60)
        sols = (centres[picks] + rng.uniform(-2e-7, 2e-7, (60, 5))) % (2 * np.pi)
        pool = sols[:0] if trial % 2 else centres[:3]
        kept = list(pool)
        expected = []
        for i, sol in enumerate(sols):
            if all(np.abs((sol - k + np.pi) % (2 * np.pi) - np.pi).max() > tol for k in kept):
                kept.append(sol)
                expected.append(i)
        assert _new_solutions(sols, pool, tol) == expected


class TestRootCensus:
    def test_n6_k12_twelve_gaussians(self):
        census = root_census(6, 12)
        assert census.count == 12
        assert all(s.kind == GAUSSIAN for s in census.sequences)

    def test_n2_k4(self):
        census = root_census(2, 4)
        entries = {tuple(np.round(s.as_array(), 9)) for s in census.sequences}
        assert entries == {(1, 1j), (1, -1j)}

    def test_n2_k10000_large_order(self):
        # a large order: Phi_10000 = Phi_10(x^1000) has degree 4,000
        census = root_census(2, 10000)
        entries = {tuple(np.round(s.as_array(), 9)) for s in census.sequences}
        assert entries == {(1, 1j), (1, -1j)}

    def test_n3_matches_newton(self):
        exact = root_census(3, 3)
        newton = newton_census(3, restarts=3000, seed=5)
        assert exact.count == newton.count
        exact_sets = {tuple(np.round(s.phases(), 6)) for s in exact.sequences}
        newton_sets = {tuple(np.round(s.phases(), 6)) for s in newton.sequences}
        assert exact_sets == newton_sets


class TestAssembleBases:
    def test_sixteen_bases(self, assembled6):
        assert len(assembled6.bases) == 16
        assert assembled6.metadata["bases_found"] == 16

    def test_each_vector_in_exactly_two(self, assembled6):
        member = assembled6.metadata["membership_per_vector"]
        assert member == {"min": 2, "max": 2}

    def test_circulant_split(self, assembled6):
        circ = [b for b in assembled6.bases if b.label.endswith("circulant")]
        gauss_circ = [b for b in circ if f":{GAUSSIAN}:" in b.label]
        assert len(circ) == 8
        assert len(gauss_circ) == 2

    def test_all_unbiased_to_standard_and_fourier(self, assembled6):
        std, fb = Basis.standard(6), fourier(6)
        for basis in assembled6.bases:
            assert basis.unitarity_defect() < 1e-9
            for other in (std, fb):
                ok, dev = is_unbiased_pair(other, basis, Tolerance(1e-8, 1e-6))
                assert ok, (basis.label, dev)

    def test_empty_census_rejected(self):
        empty = CensusResult(n=6, sequences=(), bases=(), metadata={})
        with pytest.raises(ValueError):
            assemble_bases(empty)


class TestDistanceReport:
    def test_pattern(self, assembled6):
        report = census_distance_report(assembled6)
        stats = report.stats
        assert np.allclose(stats["gaussian_square_sides"], 2.0, atol=1e-3)
        assert np.allclose(stats["gaussian_square_diagonals"], 4.0, atol=1e-3)
        lo, hi = stats["gaussian_vs_nongaussian"]
        assert lo == pytest.approx(4.62, abs=0.01) and hi == pytest.approx(4.62, abs=0.01)
        lo, hi = stats["sixplet_cross"]
        assert lo == pytest.approx(3.71, abs=0.01) and hi == pytest.approx(3.71, abs=0.01)
        assert stats["within_sixplet_max"] == pytest.approx(4.64, abs=0.01)
        assert stats["global_max"] < 4.9
        assert stats["isometric_sixplets"]

    def test_summary_mentions_key_values(self, assembled6):
        text = "\n".join(census_distance_report(assembled6).summary_lines())
        for token in ("2.000", "3.71", "4.62", "4.64"):
            assert token in text

    def test_requires_assembled(self, census6):
        with pytest.raises(ValueError, match="assemble"):
            census_distance_report(census6)


class TestSerialization:
    def test_roundtrip(self, assembled6):
        payload = assembled6.to_dict()
        back = CensusResult.from_dict(payload)
        assert back.n == assembled6.n
        assert back.count == assembled6.count
        for a, b in zip(back.sequences, assembled6.sequences):
            assert a.kind == b.kind
            assert np.allclose(a.as_array(), b.as_array())
        assert len(back.bases) == len(assembled6.bases)
        for a, b in zip(back.bases, assembled6.bases):
            assert a.label == b.label
            assert np.allclose(a.matrix, b.matrix)
