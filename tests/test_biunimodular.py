import tracemalloc

import numpy as np
import pytest

from mubtools import biunimodular as bu
from mubtools import io as mio
from mubtools.biunimodular import (
    BJORCK,
    GAUSSIAN,
    BiuniSequence,
    CensusResult,
    _new_solutions,
    _newton_solve,
    _ScrambledHalton,
    assemble_bases,
    autocorrelation,
    census_distance_report,
    classify_sequence,
    dft,
    entry_structure,
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

    def test_census_missing_an_image_is_not_closed(self):
        """At n = 7 seed 2 stabilizes one sequence short of the 532 every other seed 0-40 finds: a shift
        image and a conjugate image of its members are absent, so its status cannot be 'ok'."""
        census = newton_census(7, 20000, 2)
        assert census.count == 531
        assert census.metadata["status"] == "not closed"

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


def _sequence(*phases):
    """A hand-built census member with x_0 = 1 and the given phases."""
    return BiuniSequence(entries=(1.0 + 0j, *np.exp(1j * np.array(phases))), kind=BJORCK)


def _census_of(*sequences):
    return CensusResult(n=len(sequences[0].entries), sequences=sequences, bases=(), metadata={})


class TestQuotientCounts:
    @pytest.mark.parametrize(
        "n, seed, counts",
        [(6, 0, (48, 8, 24, 5)), (6, 1, (48, 8, 24, 5)), (6, 2, (48, 8, 24, 5)), (6, 6, (48, 8, 24, 5))]
        + [(3, seed, (6, 2, 3, 1)) for seed in range(5)]
        + [(5, seed, (20, 4, 10, 2)) for seed in range(5)],
    )
    def test_counts_do_not_depend_on_the_seed(self, n, seed, counts):
        census = newton_census(n, 20000, seed)
        recorded = census.metadata["counts_under_quotients"]
        assert tuple(recorded.values()) == counts
        assert list(recorded) == ["fixed_first_entry", "up_to_shift", "up_to_conjugation",
                                  "up_to_shift_and_conjugation"]

    def test_shift_image_across_the_phase_wrap(self):
        # x = (1, e^{i}, e^{i(1 + 1e-15)}) shifts to (1, e^{i 1e-15}, e^{-i}); the stored
        # member holds that first phase at 2 pi - 1e-15
        x = _sequence(1.0, 1.0 + 1e-15)
        y = _sequence(-1e-15, -1.0)
        assert y.phases()[0] > 2 * np.pi - 1e-14
        counts = _census_of(x, y).quotient_counts()
        assert counts == {"fixed_first_entry": 2, "up_to_shift": 1, "up_to_conjugation": 2,
                          "up_to_shift_and_conjugation": 1}

    def test_tol_decides_the_match(self):
        # the shift image of x is (1, e^{0.8i}, e^{-0.3i}); the member sits 1e-7 from it
        census = _census_of(_sequence(0.3, 1.1), _sequence(0.8 + 1e-7, -0.3))
        assert census.quotient_counts(1e-6)["up_to_shift"] == 1
        assert census.quotient_counts(1e-9)["up_to_shift"] == 2

    def test_empty_census(self):
        assert set(root_census(6, 5).quotient_counts().values()) == {0}

    def test_one_entry_census(self):
        # n = 1: the sequence (1) has no free phase, and it is its own shift and conjugate
        census = root_census(1, 3)
        assert census.quotient_counts() == {"fixed_first_entry": 1, "up_to_shift": 1, "up_to_conjugation": 1,
                                            "up_to_shift_and_conjugation": 1}
        assert [b.label for b in assemble_bases(census).bases] == ["census-basis-00:gaussian:circulant"]

    def test_closed_orbits_of_a_full_census(self, census6):
        # every shift and conjugation image of the 48 is itself a census member
        shift, conj = bu._image_maps(census6, 1e-6)
        assert sorted(shift) == list(range(48)) and sorted(conj) == list(range(48))


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


def _one_shot_within(a, b, tol):
    """The whole (len(a), len(b), n - 1) gap tensor at once, as `_within` built it before it went in blocks."""
    return np.abs((a[:, None, :] - b[None, :, :] + np.pi) % (2 * np.pi) - np.pi).max(axis=2) <= tol


@pytest.mark.parametrize("block", [1, 7, 50, bu.search_mod._BLOCK])
def test_within_in_blocks_matches_one_shot_mask(block, monkeypatch):
    monkeypatch.setattr(bu.search_mod, "_BLOCK", block)
    rng = np.random.default_rng(3)
    tol = 1e-6
    b = rng.uniform(0, 2 * np.pi, (40, 5))
    b[0, 0] = 2 * np.pi - 1e-8  # a match across the 2 pi wrap
    a = (b[rng.integers(0, 40, 90)] + rng.uniform(-2e-6, 2e-6, (90, 5))) % (2 * np.pi)
    expected = _one_shot_within(a, b, tol)
    assert expected.any() and not expected.all()
    assert np.array_equal(bu._within(a, b, tol), expected)
    for rows, cols in ((a[:0], b), (a, b[:0]), (a[:0], b[:0])):
        mask = bu._within(rows, cols, tol)
        assert mask.shape == (len(rows), len(cols)) and mask.dtype == bool


def test_within_zero_width_rows_are_equal():
    assert np.array_equal(bu._within(np.zeros((2, 0)), np.zeros((3, 0)), 1e-6), np.ones((2, 3), dtype=bool))


def test_within_memory_is_one_block():
    """The n = 7 image-map shape: 2 x 531 images against 531 sequences of 6 phases (a 27 MB tensor at once)."""
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 2 * np.pi, (1062, 6)), rng.uniform(0, 2 * np.pi, (531, 6))
    tracemalloc.start()
    try:
        bu._within(a, b, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _pairwise_new_solutions(sols, pool, tol):
    """The one-by-one scan: a row is new when it is farther than tol from the pool and every earlier new row."""
    kept = np.asarray(pool)
    expected = []
    for i, sol in enumerate(sols):
        if (np.abs((sol - kept + np.pi) % (2 * np.pi) - np.pi).max(axis=1) > tol).all():
            kept = np.vstack([kept, sol])
            expected.append(i)
    return expected


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
        assert _new_solutions(sols, pool, tol) == _pairwise_new_solutions(sols, pool, tol)

    # a chain: a-b and b-c within tol, a-c not; the scan keeps a and c, merging clusters would keep a alone
    chain = np.full((3, 5), 1.0)
    chain[:, 2] += np.array([0.0, 0.8, 1.6]) * tol
    assert _pairwise_new_solutions(chain, chain[:0], tol) == [0, 2]
    assert _new_solutions(chain, chain[:0], tol) == [0, 2]
    assert _new_solutions(chain, chain[1:2], tol) == []

    # 2,000 rows, about the census's first batch, in clusters whose spread straddles tol
    centres = rng.uniform(0, 2 * np.pi, (48, 5))
    sols = (centres[rng.integers(0, 48, 2000)] + rng.uniform(-1e-6, 1e-6, (2000, 5))) % (2 * np.pi)
    for pool in (sols[:0], centres[::4]):
        expected = _pairwise_new_solutions(sols, pool, tol)
        assert len(expected) > len(centres) - len(pool)  # some clusters keep more than one row
        assert _new_solutions(sols, pool, tol) == expected


def _parent_newton_census(n, restarts, seed, tol=bu.DEFAULT_TOL):
    """Reference census, batch by batch: 512-row batches, one unsliced residual call per Armijo
    halving, one `_within` call per fresh row, lstsq for the whole batch when one solve fails.
    `newton_census` must reproduce its bytes."""
    batch_size = 512

    def residual_system(phi, dft_matrix, n):
        x = np.concatenate([np.ones((len(phi), 1), dtype=complex), np.exp(1j * phi)], axis=1)
        xt = x @ dft_matrix
        r = np.abs(xt[:, 1:]) ** 2 - 1.0
        return r, x, xt

    def phase_jacobian(x, xt, q_table, n):
        return -(2.0 / np.sqrt(n)) * np.imag(np.conj(xt[:, 1:, None]) * x[:, None, 1:] * q_table[None, :, :])

    def new_solutions(sols, pool, tol):
        fresh = np.nonzero(~bu._within(sols, pool, tol).any(axis=1))[0]
        new = []
        for i in fresh:
            if not bu._within(sols[i : i + 1], sols[new], tol).any():
                new.append(int(i))
        return new

    q = np.exp(2j * np.pi / n)
    a = np.arange(n)
    dft_matrix = q ** np.outer(a, a) / np.sqrt(n)
    q_table = q ** np.outer(np.arange(1, n), np.arange(1, n))

    sampler = _ScrambledHalton(n - 1, seed)
    pool = np.empty((0, n - 1))
    last_new = -1
    used = 0
    rank_deficient = 0
    stabilized = False

    while used < restarts:
        take = min(batch_size, restarts - used)
        phi = sampler.random(take) * 2 * np.pi
        start_index = used
        used += take

        active = np.ones(take, dtype=bool)
        for _ in range(bu.NEWTON_MAX_ITERATIONS):
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            r, x, xt = residual_system(phi[idx], dft_matrix, n)
            done = np.abs(r).max(axis=1) <= bu.NEWTON_RESIDUAL_TOL
            if done.any():
                active[idx[done]] = False
                keep = ~done
                idx, r, x, xt = idx[keep], r[keep], x[keep], xt[keep]
            if len(idx) == 0:
                continue
            jac = phase_jacobian(x, xt, q_table, n)
            try:
                step = np.linalg.solve(jac, -r[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.stack(
                    [np.linalg.lstsq(jac[i], -r[i], rcond=None)[0] for i in range(len(idx))]
                )
            f0 = 0.5 * np.sum(r * r, axis=1)
            t = np.ones(len(idx))
            accepted = np.zeros(len(idx), dtype=bool)
            for _ in range(40):
                trial = np.nonzero(~accepted)[0]
                if len(trial) == 0:
                    break
                r_new, _, _ = residual_system(
                    phi[idx[trial]] + t[trial, None] * step[trial], dft_matrix, n
                )
                f_new = 0.5 * np.sum(r_new * r_new, axis=1)
                ok = f_new <= f0[trial] * (1.0 - 0.5 * t[trial])
                accepted[trial[ok]] = True
                t[trial[~ok]] *= 0.5
            dead = ~accepted | (t < 1e-12)
            move = accepted & ~dead
            phi[idx[move]] = (phi[idx[move]] + t[move, None] * step[move]) % (2 * np.pi)
            active[idx[dead]] = False
        # anything still active hit the iteration cap: discard

        r, x, xt = residual_system(phi, dft_matrix, n)
        rows = np.nonzero(np.abs(r).max(axis=1) <= bu.NEWTON_RESIDUAL_TOL)[0]
        jac = phase_jacobian(x[rows], xt[rows], q_table, n)
        rank_deficient += int(np.sum(np.linalg.svd(jac, compute_uv=False)[:, -1] < 1e-6))
        sols = phi[rows] % (2 * np.pi)
        new = new_solutions(sols, pool, tol.dedupe_tol)
        if new:
            pool = np.concatenate([pool, sols[new]])
            last_new = start_index + int(rows[new[-1]])
        floor = min(restarts, 2048)  # never stabilize off a tiny sample
        if len(pool) and used >= floor and used >= 2 * (last_new + 1):
            stabilized = True
            break

    if len(pool) and not stabilized:
        stabilized = used >= 2 * (last_new + 1)

    order = sorted(range(len(pool)), key=lambda i: tuple(pool[i]))
    sequences = []
    for i in order:
        entries = np.concatenate([[1.0 + 0j], np.exp(1j * pool[i])])
        sequences.append(BiuniSequence(entries=tuple(entries), kind=classify_sequence(entries)))

    status = "ok"
    if rank_deficient:
        status = "not zero-dimensional"
    elif not stabilized:
        status = "unconverged census"
    structure = {}
    for seq in sequences:
        if seq.kind == BJORCK:
            for tag in entry_structure(seq.as_array()):
                structure[tag] = structure.get(tag, 0) + 1
    metadata = {
        "n": n,
        "method": "newton",
        "seed": seed,
        "restart_budget": restarts,
        "restarts_used": used,
        "newton_residual_tol": bu.NEWTON_RESIDUAL_TOL,
        "max_iterations": bu.NEWTON_MAX_ITERATIONS,
        "dedupe_tol": tol.dedupe_tol,
        "rank_deficient_solutions": rank_deficient,
        "last_new_solution_at_restart": last_new,
        "bjorck_entry_tags": structure,
        "status": status,
    }
    result = CensusResult(n=n, sequences=tuple(sequences), bases=(), metadata=metadata)
    metadata["counts_under_quotients"] = result.quotient_counts(tol.dedupe_tol)
    return result


class TestNewtonLoop:
    @pytest.mark.parametrize(
        "n, restarts, seed",
        [(6, 20000, 0), (6, 20000, 1), (6, 20000, 2), (6, 20000, 6), (3, 3000, 5), (5, 4000, 1)],
    )
    def test_bytes_match_the_batch_by_batch_loop(self, n, restarts, seed):
        expected = mio.dumps(_parent_newton_census(n, restarts, seed).to_dict())
        assert mio.dumps(newton_census(n, restarts, seed).to_dict()) == expected

    @pytest.mark.parametrize("batch_size", [256, 1024])
    def test_batch_size_does_not_move_the_bytes(self, monkeypatch, batch_size):
        expected = mio.dumps(newton_census(6, 20000, 0).to_dict())
        monkeypatch.setattr(bu, "NEWTON_BATCH_SIZE", batch_size)
        census = newton_census(6, 20000, 0)
        assert census.metadata["restarts_used"] == 2048
        assert mio.dumps(census.to_dict()) == expected

    def test_rank_deficient_status_wins_over_unconverged(self, monkeypatch):
        """A converged start with a rank-deficient Jacobian marks the census 'not zero-dimensional',
        even when the budget also ran out before the count stabilized."""
        plain = newton_census(6, 20, 0)
        assert plain.metadata["status"] == "unconverged census"
        assert plain.metadata["rank_deficient_solutions"] == 0
        svd = np.linalg.svd

        def first_row_singular(a, *args, **kwargs):
            values = svd(a, *args, **kwargs).copy()
            values[:1, -1] = 0.0
            return values

        monkeypatch.setattr(np.linalg, "svd", first_row_singular)
        census = newton_census(6, 20, 0)
        assert census.metadata["rank_deficient_solutions"] == 1
        assert census.metadata["status"] == "not zero-dimensional"
        assert census.sequences == plain.sequences

    def test_singular_jacobian_leaves_other_rows_alone(self, monkeypatch):
        """A start whose Jacobian is exactly singular does not change the steps of the rest of its batch.

        At phi = 0 every x~_a (a >= 1) is a rounding error of about 1e-16, not
        exactly 0, so its solve succeeds; the wrapper zeroes that row's Jacobian
        to make it exactly singular.
        """
        n = 6
        dft_matrix = fourier(n).matrix
        q_table = np.exp(2j * np.pi / n) ** np.outer(np.arange(1, n), np.arange(1, n))
        jacobian = bu._phase_jacobian

        def zero_at_origin(x, xt, q_table):
            jac = jacobian(x, xt, q_table)
            jac[(x == 1).all(axis=1)] = 0.0
            return jac

        monkeypatch.setattr(bu, "_phase_jacobian", zero_at_origin)
        starts = _ScrambledHalton(n - 1, 0).random(64) * 2 * np.pi
        alone = starts.copy()
        _newton_solve(alone, dft_matrix, q_table)
        mixed = np.concatenate([np.zeros((1, n - 1)), starts])
        _newton_solve(mixed, dft_matrix, q_table)
        assert mixed[0].tolist() == [0.0] * (n - 1)  # a zero step cannot pass the line search
        assert mixed[1:].tobytes() == alone.tobytes()
        r, _, _ = bu._phase_residual_system(alone, dft_matrix)
        assert (np.abs(r).max(axis=1) <= bu.NEWTON_RESIDUAL_TOL).sum() > 32


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

    def test_n6_k36_memory_is_one_block(self):
        """The k = 36 census streams its 658,008 digit multisets; holding them all took 66 MB."""
        root_census(6, 36)  # warm the caches (unit roots, cyclotomic remainders)
        tracemalloc.start()
        try:
            census = root_census(6, 36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census.count == 12
        assert peak < 8e6

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

    def test_circulant_label_is_a_shift_closed_column_set(self, assembled6):
        for basis in assembled6.bases:
            cols = basis.matrix
            closed = all(np.abs(np.abs(np.roll(cols[:, j], 1).conj() @ cols) - 1).min() < 1e-9 for j in range(6))
            assert basis.label.endswith(":circulant") == closed

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
        text = mio.dumps(assembled6.to_dict())
        back = CensusResult.from_dict(mio.loads(text))
        assert mio.dumps(back.to_dict()) == text
        assert back.n == assembled6.n
        assert back.count == assembled6.count
        for a, b in zip(back.sequences, assembled6.sequences):
            assert a.kind == b.kind
            assert np.array_equal(a.as_array(), b.as_array())
        assert len(back.bases) == len(assembled6.bases)
        for a, b in zip(back.bases, assembled6.bases):
            assert a.label == b.label
            assert np.array_equal(a.matrix, b.matrix)
