"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are fixed here, not configurable.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from mubtools.biunimodular import (
    BJORCK,
    GAUSSIAN,
    autocorrelation,
    census_distance_report,
    dft,
    newton_census,
    root_census,
)
from mubtools.catalog import beauchamp_nicoara, bjorck_c, bjorck_d, f6, f6_transpose, load_fixture
from mubtools.constructions import (
    fourier,
    ks_uncolourable,
    peres_rays,
    prime_mub_set,
    real_mub_set_dim4,
    real_unbiased_census,
)
from mubtools.core import Basis, is_complex_hadamard
from mubtools.cyclotomic import RootVector, is_orthogonal, is_unbiased_exact
from mubtools.grassmann import (
    basis_projector,
    chordal_distance_sq,
    chordal_distance_sq_overlap,
    spread_upper_bound,
)
from mubtools.optimize import haar_unitary, scan_family, spread_and_grads
from mubtools.search import mub_quartet_search, mub_triplet_search, root_hadamard_enumerate

TOL9 = 1e-9


def announce(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def exponents_to_complex_columns(exponent_matrix: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * exponent_matrix / 12) / np.sqrt(6)


def _column_set_is_circulant(cols: np.ndarray, tol: float = 1e-9) -> bool:
    for j in range(cols.shape[1]):
        shifted = np.roll(cols[:, j], 1)
        if not np.any(np.abs(np.abs(shifted.conj() @ cols) - 1) < tol):
            return False
    return True


def test_criterion_1_prime_constructions():
    start = time.perf_counter()
    worst = 0.0
    for p in (2, 3, 5, 7, 11, 13):
        mubs = prime_mub_set(p)
        assert len(mubs.bases) == p + 1
        for a, b in combinations(mubs.bases, 2):
            worst = max(worst, abs(chordal_distance_sq_overlap(a, b) - (p - 1)))
    elapsed = time.perf_counter() - start
    announce(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"prime complete sets p in 2..13 at pairwise D2 = p-1 "
        f"(worst deviation {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_gaussian_root_census():
    start = time.perf_counter()
    c12 = root_census(6, 12)
    t12 = time.perf_counter() - start
    start = time.perf_counter()
    c24 = root_census(6, 24)
    t24 = time.perf_counter() - start
    same = {tuple(np.round(s.phases(), 9)) for s in c12.sequences} == {
        tuple(np.round(s.phases(), 9)) for s in c24.sequences
    }
    announce(
        2,
        c12.count == 12 and c24.count == 12 and same and t24 < 600,
        f"root census: k=12 gives {c12.count}, k=24 gives {c24.count} "
        f"identical sequences ({t12:.2f}s / {t24:.1f}s)",
    )


def test_gaussian_root_census_k36():
    """k = 36 (36^5 = 60 M candidates, inside the enumeration guard) finds the same 12 sequences as k = 12."""
    c12 = root_census(6, 12)
    c36 = root_census(6, 36)
    assert c36.count == 12
    assert c36.metadata["candidates"] == 36**5
    assert {tuple(np.round(s.phases(), 9)) for s in c36.sequences} == {
        tuple(np.round(s.phases(), 9)) for s in c12.sequences
    }


def test_criterion_3_newton_census_three_seeds(census6):
    results = {11: census6}
    times = {11: float("nan")}
    for seed in (22, 33):
        start = time.perf_counter()
        results[seed] = newton_census(6, restarts=20000, seed=seed)
        times[seed] = time.perf_counter() - start
    ok = True
    for seed, census in results.items():
        counts = census.count_by_kind()
        ok &= census.count == 48
        ok &= counts.get(GAUSSIAN) == 12 and counts.get(BJORCK) == 36
        ok &= census.metadata["status"] == "ok"
    ok &= max(t for t in times.values() if t == t) < 600
    announce(
        3,
        ok,
        "multistart census stabilizes at 48 = 12 + 36 for seeds 11/22/33 "
        f"(seed 22: {times[22]:.1f}s, seed 33: {times[33]:.1f}s)",
    )


def test_criterion_4_sixteen_bases(assembled6):
    member = assembled6.metadata["membership_per_vector"]
    circulant = [b for b in assembled6.bases if b.label.endswith("circulant")]
    gauss_circ = [b for b in circulant if f":{GAUSSIAN}:" in b.label]
    ok = (
        len(assembled6.bases) == 16
        and member == {"min": 2, "max": 2}
        and len(circulant) == 8
        and len(gauss_circ) == 2
    )
    announce(
        4,
        ok,
        f"assembly: {len(assembled6.bases)} bases, membership {member}, "
        f"{len(gauss_circ)}+{len(circulant) - len(gauss_circ)} circulant",
    )


def test_criterion_5_distance_geometry(assembled6):
    stats = census_distance_report(assembled6).stats
    sides = np.asarray(stats["gaussian_square_sides"])
    diags = np.asarray(stats["gaussian_square_diagonals"])
    gvn = stats["gaussian_vs_nongaussian"]
    cross = stats["sixplet_cross"]
    ok = (
        np.abs(sides - 2.0).max() <= 1e-3
        and np.abs(diags - 4.0).max() <= 1e-3
        and abs(gvn[0] - 4.62) <= 0.01
        and abs(gvn[1] - 4.62) <= 0.01
        and abs(cross[0] - 3.71) <= 0.01
        and abs(cross[1] - 3.71) <= 0.01
        and abs(stats["within_sixplet_max"] - 4.64) <= 0.01
        and stats["global_max"] < 4.9
    )
    announce(
        5,
        ok,
        f"distance pattern: square sides {sides.mean():.4f}, diagonals {diags.mean():.4f}, "
        f"gaussian-vs-other {gvn[1]:.4f}, six-plet cross {cross[1]:.4f}, "
        f"within max {stats['within_sixplet_max']:.4f}, global max {stats['global_max']:.4f}",
    )


def test_criterion_6_no_quartets_at_desk_scale():
    start = time.perf_counter()
    hadamards = root_hadamard_enumerate(6, 12)
    triplets = mub_triplet_search(6, 12, hadamards=hadamards)
    quartets = mub_quartet_search(6, 12, triplets=triplets)
    elapsed = time.perf_counter() - start

    # the Fourier matrix (12th-root exponents 2ab) must appear among the
    # dephased Hadamards, with four partner bases of which two are circulant
    fourier_cols = frozenset(tuple((2 * a * b) % 12 for a in range(6)) for b in range(6))
    partners = [
        h2 for h1, h2 in triplets.results
        if frozenset(tuple(h1[:, j]) for j in range(6)) == fourier_cols
    ]
    circulant_partners = 0
    for h2 in partners:
        cols = exponents_to_complex_columns(h2)
        circulant_partners += _column_set_is_circulant(cols)

    ok = (
        hadamards.complete
        and triplets.complete
        and quartets.complete
        and quartets.verdict == "empty"
        and len(partners) == 4
        and circulant_partners == 2
        and (hadamards.nodes_used, triplets.nodes_used, quartets.nodes_used) == (53089, 66193, 69073)
        and elapsed < 7200
    )
    announce(
        6,
        ok,
        f"12th-root search: {len(hadamards.matrices)} Hadamards, "
        f"{len(triplets.results)} MUB triplets ({len(partners)} with the Fourier matrix, "
        f"{circulant_partners} circulant), {len(quartets.results)} quartets "
        f"(completed, {hadamards.nodes_used}/{triplets.nodes_used}/{quartets.nodes_used} nodes, {elapsed:.0f}s)",
    )


def test_no_quartets_at_k24():
    # extends criterion 6 from 12th to 24th roots: a complete run, no quartets
    hadamards = root_hadamard_enumerate(6, 24)
    triplets = mub_triplet_search(6, 24, hadamards=hadamards)
    quartets = mub_quartet_search(6, 24, triplets=triplets)
    assert len(hadamards.matrices) == 7584
    assert [len(b) for b in hadamards.buckets] == [300, 2160, 1080, 2160, 72, 720, 720, 360, 12]
    assert len(triplets.results) == 1920
    assert len(quartets.results) == 0 and quartets.verdict == "empty"
    assert hadamards.complete and triplets.complete and quartets.complete
    assert (hadamards.nodes_used, triplets.nodes_used, quartets.nodes_used) == (181669, 227173, 238693)


def test_no_quartets_at_k36():
    # the complete search at 36th roots: more Hadamards and buckets than at k = 24, the same triplet count
    hadamards = root_hadamard_enumerate(6, 36)
    triplets = mub_triplet_search(6, 36, hadamards=hadamards)
    quartets = mub_quartet_search(6, 36, triplets=triplets)
    assert len(hadamards.matrices) == 15864
    assert [len(b) for b in hadamards.buckets] == [300, 2160, 2160, 1080, 2160, 4320, 720, 72, 720, 720, 720, 720, 12]
    assert len(triplets.results) == 480
    assert len(quartets.results) == 0 and quartets.verdict == "empty"
    assert hadamards.complete and triplets.complete and quartets.complete
    assert (hadamards.nodes_used, triplets.nodes_used, quartets.nodes_used) == (376009, 471193, 474073)


def test_criterion_7_real_dimensions():
    start = time.perf_counter()
    census3 = real_unbiased_census(3)
    dim4 = real_mub_set_dim4()
    cross_ok = all(
        np.abs(np.abs(a.matrix.conj().T @ b.matrix) ** 2 - 0.25).max() < 1e-12
        for a, b in combinations(dim4.bases, 2)
    )
    ks = ks_uncolourable(peres_rays())
    elapsed = time.perf_counter() - start
    ok = (not census3.mub_pair_exists) and cross_ok and ks.uncolourable and elapsed < 1.0
    announce(
        7,
        ok,
        f"real spaces: no MUB pair in R^3, 24-cell bases at |dot|^2 = 1/4, "
        f"colouring obstruction over {len(ks.contexts)} contexts ({elapsed:.2f}s)",
    )


def test_criterion_8_h4_extension_gate():
    points = 360
    grid = np.linspace(0.0, 2 * np.pi, points, endpoint=False).reshape(-1, 1)
    rows = scan_family("H4", grid, [Basis.standard(4)], extension_m=5, seeds=(0, 1, 2), iterations=3000)
    threshold = spread_upper_bound(4, 5) - 1e-6
    successes = {i for i, row in enumerate(rows) if row.extension_score >= threshold}
    ok = successes == {0, points // 2}
    announce(
        8,
        ok,
        f"extension to five bases on the {points}-point grid succeeds exactly at "
        f"phi = 0 and pi (indices {sorted(successes)})",
    )


def test_criterion_9_family_verification():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        ok &= is_complex_hadamard(f6(p1, p2), TOL9)
        ok &= is_complex_hadamard(f6_transpose(p1, p2), TOL9)
    ok &= is_complex_hadamard(bjorck_c(), TOL9)
    edge = np.arccos((np.sqrt(3) - 1) / 2)
    for theta in np.linspace(edge + 1e-3, 2 * np.pi - edge - 1e-3, 40):
        ok &= is_complex_hadamard(beauchamp_nicoara(np.exp(1j * theta))[0], TOL9)
    ok &= is_complex_hadamard(load_fixture("S"), TOL9)
    ok &= is_complex_hadamard(load_fixture("DITA0"), TOL9)
    d = bjorck_d()
    quad = abs(d * d - (1 - np.sqrt(3)) * d + 1)
    ok &= quad < 1e-14
    announce(
        9,
        ok,
        f"catalog families all pass the Hadamard predicate at 1e-9; "
        f"d satisfies its quadratic to {quad:.1e}",
    )


def test_criterion_10_property_suites(census6):
    rng = np.random.default_rng(2024)
    ok = True

    # chordal distance: trace form vs overlap form, 1e3 random pairs
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a, b = Basis(haar_unitary(n, rng)), Basis(haar_unitary(n, rng))
        worst = max(
            worst,
            abs(chordal_distance_sq(basis_projector(a), basis_projector(b))
                - chordal_distance_sq_overlap(a, b)),
        )
    ok &= worst < 1e-9

    # projector idempotence and trace
    for n in (2, 3, 6):
        p = basis_projector(Basis(haar_unitary(n, rng)))
        ok &= np.abs(p @ p - p).max() < 1e-9
        ok &= abs(np.trace(p) - (n - 1)) < 1e-9

    # transform unitarity
    for _ in range(100):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ok &= abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)) < 1e-12 * max(1, np.linalg.norm(x))

    # delta autocorrelation on every census member
    for seq in census6.sequences:
        gamma = autocorrelation(seq.as_array())
        ok &= np.abs(gamma[1:]).max() < 1e-9

    # ascent direction against central finite differences
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
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
        if abs(fd) > 1e-10:
            ok &= abs(fd - float(np.real(np.trace(h.conj().T @ grads[i])))) / abs(fd) < 1e-5
            checked += 1
    ok &= checked > 50

    # exact cyclotomic verdicts vs floating-point predicates, 1e4 samples
    for k in (3, 4, 6, 8, 12, 24):
        for n in (4, 6):
            exps = rng.integers(0, k, size=(10**4 // 12, 2, n))
            for ea, eb in exps:
                a = RootVector(k, tuple(int(v) for v in ea))
                b = RootVector(k, tuple(int(v) for v in eb))
                ip = np.vdot(a.to_complex(normalized=True), b.to_complex(normalized=True))
                ok &= is_orthogonal(a, b) == (abs(ip) < 1e-9)
                ok &= is_unbiased_exact(a, b) == (abs(abs(ip) ** 2 - 1 / n) < 1e-9)

    announce(10, ok, "property suites: distance formulas, projectors, transform, "
                     "autocorrelation, gradients, exact-vs-float all hold")
