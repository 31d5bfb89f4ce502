"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test measures its criterion end to end, prints a single line with the
measured numbers against the required window, and then asserts.  Run with
``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import math
import time

import numpy as np

from grovermin import (
    GOLDSTEIN_PRICE,
    LJ_TRIMER,
    SHUBERT,
    GridLayout,
    GrowthConfig,
    MarkedSet,
    Objective,
    PivotConfig,
    Schedule,
    SearchSetup,
    StopRule,
    VariableSpec,
    build_fixed_core,
    dense_reference_operators,
    free_atom_objective,
    grid_brute_min,
    iterate,
    lj_growth,
    lj_pair,
    marked_probability,
    pivot_grover_search,
    refine_min,
    run_ensemble,
    square_layout,
    success_probability,
    uniform_superposition,
)
from grovermin.cli import appendix_demo, main

GP_LAYOUT = square_layout(["x1", "x2"], -3.2, 3.0, 5)
TRIMER_LAYOUT = GridLayout(
    [VariableSpec("B", 0.0001, 2.0, 5), VariableSpec("A", 0.0001, math.pi, 4)]
)
SHUBERT_BOX = [(-10.0, 10.0), (-10.0, 10.0)]
SHUBERT_MIN = -186.7309


def report(cid: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {cid}: {detail}"
    print(line)
    assert ok, line


def test_c1_two_qubit_demo_exactness():
    appendix_demo()  # warm the numpy kernels so the timing is the demo's own
    t0 = time.perf_counter()
    demo = appendix_demo()
    elapsed = time.perf_counter() - t0
    errors = [
        np.max(np.abs(np.array(demo["uniform"]) - 0.5)),
        np.max(np.abs(np.array(demo["p_s"]) - (np.full((4, 4), 0.5) - np.eye(4)))),
        np.max(np.abs(np.array(demo["p_t"]) - np.diag([-1.0, 1.0, 1.0, 1.0]))),
        np.max(np.abs(np.array(demo["final"]) - np.array([1.0, 0.0, 0.0, 0.0]))),
    ]
    worst = float(max(errors))
    ok = worst <= 1e-12 and elapsed < 1e-3
    report(
        "c1",
        ok,
        f"two-qubit demo componentwise error {worst:.1e} (<= 1e-12) "
        f"in {elapsed * 1e3:.3f} ms (< 1 ms)",
    )


def test_c2_gp_grid_optimum_and_ensemble():
    t0 = time.perf_counter()
    brute = grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT)
    setup = SearchSetup(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=None, target=3.0, max_rounds=40),
    )
    stats = run_ensemble(setup, 100, base_seed=0)
    elapsed = time.perf_counter() - t0
    found = sum(1 for r in stats.results if r.best_value == brute.value)
    median_total = stats.median_total_iterations
    exact = brute.value == 3.0 and brute.point == (0.0, -1.0)
    ok = (
        exact
        and found >= 90
        and 15 <= median_total <= 35
        and elapsed < 1.0
    )
    report(
        "c2",
        ok,
        f"grid minimum {brute.value} at {brute.point} (exact); "
        f"{found}/100 runs found it (>= 90); median total iterations "
        f"{median_total:g} (required [15, 35]); {elapsed:.2f} s (< 1 s)",
    )


def test_c3_trimer_grid_optimum_and_ensemble():
    t0 = time.perf_counter()
    brute = grid_brute_min(LJ_TRIMER, TRIMER_LAYOUT)
    setup = SearchSetup(
        LJ_TRIMER,
        TRIMER_LAYOUT,
        Schedule("incremental"),
        StopRule(stall_window=8),
        strict=True,
    )
    stats = run_ensemble(setup, 100, base_seed=0)
    elapsed = time.perf_counter() - t0
    bond, angle = brute.point
    value_ok = abs(brute.value - (-2.9094)) <= 0.0005
    point_ok = abs(bond - 1.0323) <= 0.0005 and abs(angle - 1.0472) <= 0.0005
    ok = (
        value_ok
        and point_ok
        and 14 <= stats.mean_rounds <= 28
        and stats.success_fraction >= 0.90
        and elapsed < 2.0
    )
    report(
        "c3",
        ok,
        f"grid minimum {brute.value:.4f} (-2.9094 +/- 0.0005) at "
        f"({bond:.4f}, {bond:.4f}, {angle:.4f}) as (bond, bond, angle); "
        f"mean rounds {stats.mean_rounds:.2f} (in [14, 28]); success "
        f"{stats.success_fraction:.0%} (>= 90%); {elapsed:.2f} s (< 2 s)",
    )


def test_c4_amplification_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    cases = 0
    for n in range(1, 11):
        size = 1 << n
        for m in sorted({1, 2, max(size // 8, 1), max(size // 4, 1)}):
            marked = MarkedSet.from_indices(
                n, rng.choice(size, size=m, replace=False)
            )
            for k in range(31):
                sim = marked_probability(iterate(uniform_superposition(n), marked, k), marked)
                ref = success_probability(m, size, k)
                worst = max(worst, abs(sim - ref))
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(
        "c4",
        ok,
        f"{cases} (n, m, k) cases; worst |simulated - sin^2((2k+1) theta)| "
        f"= {worst:.1e} (<= 1e-9); {elapsed:.2f} s (< 5 s)",
    )


def test_c5_dense_operator_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1414)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        size = 1 << n
        m = int(rng.integers(1, size + 1))
        marked = MarkedSet.from_indices(n, rng.choice(size, size=m, replace=False))
        p_s, p_t = dense_reference_operators(n, marked)
        state = uniform_superposition(n)
        fast = iterate(state, marked, 1)
        dense = p_s @ (p_t @ state.amplitudes)
        worst = max(worst, float(np.max(np.abs(fast.amplitudes - dense))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(
        "c5",
        ok,
        f"100 random marked sets on up to 6 qubits; worst fast-vs-dense "
        f"deviation {worst:.1e} (<= 1e-10); {elapsed:.2f} s (< 5 s)",
    )


def test_c6_lj_reference_energies():
    t0 = time.perf_counter()
    trimer = refine_min(LJ_TRIMER, [(0.5, 1.5), (0.5, math.pi)])
    core = build_fixed_core(3, 1.0)
    tetramer = refine_min(
        free_atom_objective(core), [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]
    )

    def bipyramid(a, h):
        # trigonal bipyramid: equatorial radius a, axial height h
        return (
            3 * lj_pair(math.sqrt(3.0) * a)
            + 6 * lj_pair(math.hypot(a, h))
            + lj_pair(2.0 * h)
        )

    pentamer = refine_min(
        Objective("lj5-bipyramid", 2, bipyramid), [(0.4, 0.8), (0.6, 1.0)]
    )
    elapsed = time.perf_counter() - t0
    errors = (
        abs(trimer.value - (-3.0)),
        abs(tetramer.value - (-6.0)),
        abs(pentamer.value - (-9.103852)),
    )
    ok = max(errors) <= 1e-3 and elapsed < 1.0
    report(
        "c6",
        ok,
        f"refined energies {trimer.value:.4f}/{tetramer.value:.4f}/"
        f"{pentamer.value:.6f} vs -3.0/-6.0/-9.103852, worst error "
        f"{max(errors):.1e} (<= 1e-3); {elapsed:.2f} s (< 1 s)",
    )


def test_c7_shubert_hybrid_ensemble():
    t0 = time.perf_counter()
    minima = []
    for child in np.random.SeedSequence(0).spawn(98):
        result = pivot_grover_search(
            SHUBERT, SHUBERT_BOX, 10, PivotConfig(), np.random.default_rng(child)
        )
        minima.append(result.best_value)
    elapsed = time.perf_counter() - t0
    minima = np.array(minima)
    within = float(np.mean(np.abs(minima - SHUBERT_MIN) <= 1e-2))
    bounded = bool(np.all((minima >= -186.74) & (minima <= -25.0)))
    ok = within >= 0.70 and bounded and elapsed < 60.0
    report(
        "c7",
        ok,
        f"{within:.0%} of 98 runs within 1e-2 of {SHUBERT_MIN} (>= 70%); "
        f"minima in [{minima.min():.4f}, {minima.max():.4f}] "
        f"(within [-186.74, -25]); {elapsed:.1f} s (< 60 s)",
    )


def test_c8_lj_growth_energies():
    t0 = time.perf_counter()
    result = lj_growth(
        5, GrowthConfig(), np.random.default_rng(np.random.SeedSequence(0))
    )
    elapsed = time.perf_counter() - t0
    four = next(s for s in result.stages if s.num_atoms == 4)
    five = next(s for s in result.stages if s.num_atoms == 5)
    atom = four.positions[3]
    atom_dist = float(np.linalg.norm(atom - np.array([0.0, 0.28444, 0.81344])))
    four_err = abs(four.energy - (-5.9926))
    five_err = abs(five.energy - (-9.0952))
    ok = four_err <= 0.05 and atom_dist <= 0.07 and five_err <= 0.05 and elapsed < 30.0
    report(
        "c8",
        ok,
        f"four-atom energy {four.energy:.4f} (|d|={four_err:.4f} <= 0.05); "
        f"atom at ({atom[0]:.3f}, {atom[1]:.3f}, {atom[2]:.3f}), "
        f"{atom_dist:.4f} from reference (<= 0.07); five-atom energy "
        f"{five.energy:.4f} (|d|={five_err:.4f} <= 0.05); {elapsed:.1f} s (< 30 s)",
    )


def test_c9_byte_identical_reruns(tmp_path, capsys):
    t0 = time.perf_counter()
    pairs = []
    for experiment in ("gp", "shubert-pivot"):
        for tag in ("a", "b"):
            out = tmp_path / experiment / tag
            assert main(["run", experiment, "--seed", "11", "--out", str(out)]) == 0
            pairs.append(out / "run_000.json")
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    gp_same = pairs[0].read_bytes() == pairs[1].read_bytes()
    pivot_same = pairs[2].read_bytes() == pairs[3].read_bytes()
    ok = gp_same and pivot_same and elapsed < 1.0
    report(
        "c9",
        ok,
        f"re-runs byte-identical (grid: {gp_same}, pivot: {pivot_same}); "
        f"{elapsed:.2f} s (< 1 s)",
    )


def test_c10_oracle_call_accounting():
    brute = grid_brute_min(LJ_TRIMER, TRIMER_LAYOUT)
    setup = SearchSetup(
        LJ_TRIMER,
        TRIMER_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=None, target=brute.value, max_rounds=60),
    )
    stats = run_ensemble(setup, 100, base_seed=0)
    budget = 3.0 * math.sqrt(512)
    ok = stats.mean_total_iterations <= budget and brute.num_evaluations == 512
    report(
        "c10",
        ok,
        f"mean total Grover iterations {stats.mean_total_iterations:.2f} "
        f"<= {budget:.2f}; exhaustive scan used {brute.num_evaluations} "
        f"evaluations (== 512)",
    )
