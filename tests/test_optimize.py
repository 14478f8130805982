import numpy as np
import pytest

from mubtools import optimize
from mubtools.catalog import h4
from mubtools.constructions import fourier
from mubtools.core import Basis, InadmissibleParameterError
from mubtools.grassmann import gram_deviations, spread_objective, spread_upper_bound
from mubtools.optimize import STOP_REASONS, expm, haar_unitary, maximize_spread, scan_family, spread_and_grads


def _einsum_gram_deviations(unitaries):
    """The 4-index form of the Gram blocks, kept as a reference for the flat kernel."""
    us = np.asarray(unitaries)
    g = np.einsum("iba,jbc->ijac", us.conj(), us)
    return g, np.abs(g) ** 2 - 1.0 / us.shape[-1]


def _einsum_spread_and_grads(unitaries):
    """The 4-index objective and Euclidean gradient, kept as a reference for the flat kernel."""
    us = np.asarray(unitaries)
    m, n, _ = us.shape
    g, dev = _einsum_gram_deviations(us)
    f = m * (m - 1) / 2 * (n - 1) - 0.5 * float(np.einsum("ijab,ijab->", dev, dev))
    # remove the diagonal pair terms from both the objective and the gradient
    diag = np.einsum("iiab,iiab->", dev, dev)
    f += 0.5 * float(diag)
    k = dev * g.conj()
    for i in range(m):
        k[i, i] = 0.0
    grads = -4.0 * np.einsum("jab,ijcb->iac", us, k)
    return f, grads


class TestSpreadAndGrads:
    def test_matches_module_objective(self):
        rng = np.random.default_rng(0)
        for n, m in ((2, 3), (3, 4), (6, 3)):
            us = np.stack([np.eye(n, dtype=complex)] + [haar_unitary(n, rng) for _ in range(m - 1)])
            f, _ = spread_and_grads(us)
            reference = spread_objective([Basis(u) for u in us])
            assert f == pytest.approx(reference, abs=1e-9)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        checked = 0
        for n in (2, 3, 4):
            for _ in range(34):
                m = int(rng.integers(2, 5))
                us = np.stack([haar_unitary(n, rng) for _ in range(m)])
                _, grads = spread_and_grads(us)
                i = int(rng.integers(m))
                h = np.zeros((n, n), dtype=complex)
                h[rng.integers(n), rng.integers(n)] = 1e-6 * (rng.standard_normal() + 1j * rng.standard_normal())
                up, down = us.copy(), us.copy()
                up[i] = us[i] + h
                down[i] = us[i] - h
                fd = (spread_and_grads(up)[0] - spread_and_grads(down)[0]) / 2
                analytic = float(np.real(np.trace(h.conj().T @ grads[i])))
                if abs(fd) > 1e-10:
                    assert abs(fd - analytic) / abs(fd) < 1e-5
                    checked += 1
        assert checked >= 90

    def test_invariance_under_common_unitary(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            us = np.stack([haar_unitary(n, rng) for _ in range(4)])
            f0, _ = spread_and_grads(us)
            w = haar_unitary(n, rng)
            f1, _ = spread_and_grads(np.einsum("ab,ibc->iac", w, us))
            assert abs(f0 - f1) < 1e-9


class TestFlatKernel:
    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (5, 4), (4, 6)])
    def test_matches_einsum_reference(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        us = np.stack([np.eye(n, dtype=complex)] + [haar_unitary(n, rng) for _ in range(m - 1)])
        g, dev = gram_deviations(us)
        g_ref, dev_ref = _einsum_gram_deviations(us)
        assert np.abs(g.reshape(m, n, m, n).transpose(0, 2, 1, 3) - g_ref).max() <= 1e-12
        assert np.abs(dev.reshape(m, n, m, n).transpose(0, 2, 1, 3) - dev_ref).max() <= 1e-12
        f, grads = spread_and_grads(us)
        f_ref, grads_ref = _einsum_spread_and_grads(us)
        assert abs(f - f_ref) <= 1e-12
        assert np.abs(grads - grads_ref).max() <= 1e-12

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (5, 4), (4, 6)])
    def test_loop_skews_match_projected_gradient(self, m, n):
        """With and without frozen slots, the skews from (G, K) are skew(U_i^dag grad_i) of the free slots."""
        rng = np.random.default_rng(20 * m + n)
        us = np.stack([np.eye(n, dtype=complex)] + [haar_unitary(n, rng) for _ in range(m - 1)])
        f_ref, grads_ref = _einsum_spread_and_grads(us)
        f, *gram = optimize._spread(us)
        assert abs(f - f_ref) <= 1e-12
        for lo in range(1, m + 1):  # slots 1 .. lo-1 frozen; lo = m leaves nothing free
            skews = optimize._ascent_skews(*gram, n, lo)
            p = us[lo:].conj().swapaxes(1, 2) @ grads_ref[lo:]
            assert skews.shape == (m - lo, n, n)
            assert np.abs(skews - 0.5 * (p - p.conj().swapaxes(1, 2))).max(initial=0.0) <= 1e-12


class TestExpm:
    def test_unitary_and_matches_eigendecomposition(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 6):
            z = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
            skews = 0.5 * (z - z.conj().swapaxes(1, 2))
            out = expm(skews)
            for a, u in zip(skews, out):
                assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-13
                # reference: diagonalize the normal matrix A itself, exp(A) = V exp(D) V^-1
                d, v = np.linalg.eig(a)
                reference = (v * np.exp(d)) @ np.linalg.inv(v)
                assert np.abs(u - reference).max() <= 1e-12

    def test_small_argument_series(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 1e-3 * 0.5 * (z - z.conj().T)
        series = np.eye(3) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
        assert np.abs(expm(a) - series).max() <= 1e-14


class TestMaximizeSpread:
    def test_long_run_stays_unitary(self):
        result = maximize_spread(6, 4, seed=0, iterations=4000)
        for basis in result.bases:
            assert basis.unitarity_defect() <= 1e-12

    def test_stop_reasons(self):
        reached = maximize_spread(2, 3, seed=0, target=3 - 1e-9)
        assert reached.stop_reason == "target" and reached.converged
        capped = maximize_spread(6, 4, seed=0, iterations=20)
        assert capped.stop_reason == "iteration-cap" and not capped.converged
        assert capped.trials == 20
        frozen = maximize_spread(2, 2, frozen=[np.eye(2)])
        assert frozen.stop_reason == "gradient" and frozen.converged
        assert frozen.trials == 0  # nothing is free, so no trial step is ever evaluated
        # a local maximum below the bound: backtracking halves the step to nothing, well before the cap
        stalled = maximize_spread(6, 4, seed=0, iterations=300)
        assert stalled.stop_reason == "step-underflow" and not stalled.converged
        assert stalled.trials < 300
        assert stalled.objective == pytest.approx(29.948750781, abs=1e-9)
        assert {r.stop_reason for r in (reached, capped, frozen, stalled)} == set(STOP_REASONS)

    def test_target_and_gradient_are_checked_before_the_cap(self, monkeypatch):
        """`trials` counts evaluated trial steps, and a run that reaches its target on its last
        allowed trial stops at the target, not at the cap."""
        calls = []
        spread = optimize._spread
        monkeypatch.setattr(optimize, "_spread", lambda us: calls.append(1) or spread(us))
        reached = maximize_spread(2, 3, seed=0, target=3 - 1e-9)
        assert reached.stop_reason == "target"
        assert reached.trials == len(calls) - 1  # every _spread call after the start is one trial
        tight = maximize_spread(2, 3, seed=0, target=3 - 1e-9, iterations=reached.trials)
        assert tight.stop_reason == "target" and tight.converged
        assert (tight.trials, tight.objective) == (reached.trials, reached.objective)

    def test_every_direction_ascends(self, monkeypatch):
        """<A, D> > 0 on every accepted state, and conjugate (not steepest) directions are taken."""
        steps = []

        def recording(a, previous):
            d, a_sq, slope = direction(a, previous)
            steps.append((a, d, a_sq, slope))
            return d, a_sq, slope

        direction = optimize._ascent_direction
        monkeypatch.setattr(optimize, "_ascent_direction", recording)
        result = maximize_spread(6, 4, seed=0, iterations=300)
        assert len(steps) == len(result.trajectory)
        for a, d, a_sq, slope in steps:
            assert a_sq == pytest.approx(float(np.vdot(a, a).real), rel=1e-12)
            assert slope == pytest.approx(float(np.vdot(a, d).real), rel=1e-12)
            assert slope > 0
            assert np.abs(d + d.conj().swapaxes(1, 2)).max() <= 1e-12  # D stays skew-Hermitian
        assert sum(d is not a for a, d, *_ in steps) > len(steps) // 2

    def test_a_non_ascent_conjugate_direction_restarts(self):
        """When the Polak-Ribiere+ direction points downhill, D falls back to the gradient skew A."""
        rng = np.random.default_rng(6)
        z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        a = 0.5 * (z - z.conj().swapaxes(1, 2))
        a_sq = float(np.vdot(a, a).real)
        # A_prev = -A gives beta = 2, and D_prev = -A makes A + beta D_prev = -A
        d, got_sq, slope = optimize._ascent_direction(a, (-a, a_sq, -a))
        assert d is a and slope == got_sq == a_sq
        # with D_prev = A the same beta keeps the conjugate direction 3 A
        d, _, slope = optimize._ascent_direction(a, (-a, a_sq, a))
        assert np.abs(d - 3 * a).max() <= 1e-12 and slope == pytest.approx(3 * a_sq)
        # beta is clipped at 0, which is steepest ascent
        d, _, slope = optimize._ascent_direction(a, (2 * a, 4 * a_sq, a))
        assert np.abs(d - a).max() == 0.0 and slope == pytest.approx(a_sq)

    def test_qubit_complete_set(self):
        result = maximize_spread(2, 3, seed=0, target=3 - 1e-9)
        assert result.objective == pytest.approx(3.0, abs=1e-7)

    def test_qutrit_complete_set_most_seeds(self):
        wins = sum(
            maximize_spread(3, 4, seed=seed, iterations=3000, target=12 - 1e-9).objective >= 12 - 1e-6
            for seed in range(20)
        )
        assert wins >= 18

    def test_monotone_trajectory(self):
        result = maximize_spread(4, 3, seed=3, iterations=500)
        assert len(result.trajectory) > 1
        assert np.all(np.diff(result.trajectory) > 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_trajectory_frozen_h4_half_pi(self, seed):
        """On the plateau below the bound, every accepted step must still raise the objective."""
        result = maximize_spread(4, 5, seed=seed, frozen=[h4(np.pi / 2)], iterations=3000, target=30 - 1e-7)
        assert len(result.trajectory) > 1
        assert np.all(np.diff(result.trajectory) > 0)

    def test_four_point_h4_scan_never_hits_the_cap(self, monkeypatch):
        """The 4-point extension scan of H4 ends every ascent at its target or in a step underflow,
        succeeds at phi = 0 and pi, and spends at most 1,500 trials in all."""
        results = []

        def recording(*args, **kwargs):
            results.append(maximize_spread(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(optimize, "maximize_spread", recording)
        grid = np.linspace(0.0, 2 * np.pi, 4, endpoint=False).reshape(-1, 1)
        rows = scan_family("H4", grid, [Basis.standard(4)], extension_m=5, seeds=(0, 1, 2), iterations=3000)
        assert len(results) == 8
        assert {r.stop_reason for r in results} == {"target", "step-underflow"}
        assert [i for i, row in enumerate(rows) if row.extension_score >= 30 - 1e-6] == [0, 2]
        assert sum(r.trials for r in results) <= 1500

    def test_upper_bound_never_exceeded(self):
        for seed in range(5):
            result = maximize_spread(3, 4, seed=seed, iterations=1500)
            assert result.objective <= result.upper_bound + 1e-9

    def test_n6_m4_stays_below_bound(self):
        best = max(maximize_spread(6, 4, seed=s, iterations=1500).objective for s in range(3))
        assert best < 30.0
        assert best > 20.0

    def test_frozen_h4_at_zero_extends(self):
        target = 30 - 1e-7
        best = max(
            maximize_spread(4, 5, seed=s, frozen=[h4(0.0)], target=target).objective for s in (0, 1)
        )
        assert best >= 30 - 1e-6

    def test_frozen_h4_at_half_pi_fails(self):
        target = 30 - 1e-7
        best = max(
            maximize_spread(4, 5, seed=s, frozen=[h4(np.pi / 2)], iterations=3000, target=target).objective
            for s in (0, 1)
        )
        assert best < 30 - 1e-3

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            maximize_spread(1, 3)
        with pytest.raises(ValueError):
            maximize_spread(3, 2, frozen=[np.eye(3)] * 3)


class TestScanFamily:
    def test_h4_extension_gate(self):
        grid = np.array([[0.0], [np.pi / 2], [np.pi]])
        rows = scan_family("H4", grid, [Basis.standard(4)], extension_m=5, seeds=(0, 1))
        target = spread_upper_bound(4, 5) - 1e-6
        assert rows[0].extension_score >= target
        assert rows[2].extension_score >= target
        assert rows[1].extension_score < target
        for row in rows:
            assert row.hadamard_defect < 1e-12

    def test_f6_zero_point_distance(self):
        rows = scan_family("F6", np.array([[0.0, 0.0]]), [Basis.standard(6)])
        assert rows[0].distances[0] == pytest.approx(5.0, abs=1e-10)

    def test_bn_scan_marks_inadmissible(self):
        grid = np.array([[0.0], [2.0], [np.pi]])
        rows = scan_family("BN", grid, [Basis.standard(6), fourier(6)])
        assert not rows[0].admissible and np.isnan(rows[0].hadamard_defect)
        for row in rows[1:]:
            assert row.admissible
            assert row.hadamard_defect < 1e-9

    def test_empty_against_and_seeds(self):
        rows = scan_family("H4", np.array([[0.0], [np.pi / 2]]), [])
        assert [row.distances for row in rows] == [(), ()]
        with pytest.raises(InadmissibleParameterError, match="seed"):
            scan_family("H4", np.array([[0.0]]), [], extension_m=5, seeds=())
