"""Threshold-descent search loop: schedules, stop rules, traces, ensembles."""

import json
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy.special import chdtrc

import grovermin.grover as grover
import grovermin.minsearch as minsearch
from grovermin import cli, encoding
from grovermin.encoding import GridLayout, RegisterTooLarge, VariableSpec, square_layout
from grovermin.grover import success_probability
from grovermin.minsearch import (
    BARITOMPA_ENTRIES,
    RoundRecord,
    Schedule,
    SearchSetup,
    SearchTrace,
    StopRule,
    adapted_grover_min,
    round_states,
    run_ensemble,
    spawn_rngs,
)
from grovermin.objectives import ENERGY_CAP, GOLDSTEIN_PRICE, LJ_TRIMER, Objective
from grovermin.statevector import MarkedSet, iterate, uniform_superposition

GP_LAYOUT = square_layout(["x", "y"], -3.2, 3.0, 5)


def lookup_objective(table):
    """Arity-1 objective over the integer grid 0..len(table)-1."""
    lookup = np.vectorize(lambda t: table[int(round(t))], otypes=[float])
    return Objective("lookup", 1, batch_fn=lookup)


def int_layout(num_qubits):
    levels = 1 << num_qubits
    return GridLayout([VariableSpec("t", 0.0, float(levels - 1), num_qubits)])


def test_baritompa_entries_frozen():
    assert BARITOMPA_ENTRIES[:8] == (0, 0, 0, 1, 1, 0, 1, 1)
    assert len(BARITOMPA_ENTRIES) == 24
    assert sum(BARITOMPA_ENTRIES) == 92
    assert sum(BARITOMPA_ENTRIES[:16]) == 23


def test_baritompa_schedule_extension():
    sched = Schedule("baritompa")
    assert sched.iterations(1) == 0
    assert sched.iterations(4) == 1
    assert sched.iterations(24) == 5
    assert sched.iterations(25) == 5  # reuses the last entry
    assert list(islice(sched.steps(), 23, 25)) == [(5, False), (5, True)]
    capped = Schedule.parse(list(BARITOMPA_ENTRIES))
    assert capped.iterations(24) == 5
    assert capped.iterations(25) is None
    assert list(capped.steps()) == [(k, False) for k in BARITOMPA_ENTRIES]


def test_incremental_schedule():
    sched = Schedule("incremental")
    assert [sched.iterations(r) for r in (1, 2, 3, 10)] == [1, 2, 3, 10]
    assert not any(extended for _, extended in islice(sched.steps(), 1000))


def test_constant_schedule():
    sched = Schedule("constant", constant=3)
    assert sched.iterations(1) == 3
    assert sched.iterations(99) == 3


def test_custom_schedule_exhausts():
    sched = Schedule("custom", entries=(0, 2))
    assert sched.iterations(1) == 0
    assert sched.iterations(2) == 2
    assert sched.iterations(3) is None


def test_schedule_parse():
    assert Schedule.parse("baritompa") == Schedule("baritompa")
    assert Schedule.parse("incremental") == Schedule("incremental")
    assert Schedule.parse("constant:7") == Schedule("constant", constant=7)
    assert Schedule.parse([0, 1, 2]) == Schedule("custom", entries=(0, 1, 2))
    with pytest.raises(ValueError, match="bad constant"):
        Schedule.parse("constant:x")
    with pytest.raises(ValueError, match="unknown schedule"):
        Schedule.parse("fibonacci")


def test_schedule_validation():
    with pytest.raises(ValueError, match="unknown schedule kind"):
        Schedule("geometric")
    with pytest.raises(ValueError, match=">= 0"):
        Schedule("constant", constant=-1)
    with pytest.raises(ValueError, match="at least one entry"):
        Schedule("custom", entries=())
    with pytest.raises(ValueError, match=">= 0"):
        Schedule("custom", entries=(1, -2))
    # Step counts are integers, and a bool is not one; the CLI's messages come
    # from these same checks.
    with pytest.raises(ValueError, match=r"count must be an integer, got 2\.5"):
        Schedule("constant", constant=2.5)
    with pytest.raises(ValueError, match="count must be an integer, got True"):
        Schedule("constant", constant=True)
    with pytest.raises(ValueError, match=r"entries must be integers, got \[1\.5, True\]"):
        Schedule("custom", entries=(1.5, True))
    with pytest.raises(ValueError, match=r"entries must be integers, got \[1, None\]"):
        Schedule.parse([1, None])
    assert Schedule("custom", entries=(np.int64(2),)).iterations(1) == 2
    with pytest.raises(ValueError, match="round_index"):
        Schedule("baritompa").iterations(0)


def test_stop_rule_validation():
    with pytest.raises(ValueError, match="stall_window"):
        StopRule(stall_window=0)
    with pytest.raises(ValueError, match="max_rounds"):
        StopRule(max_rounds=0)
    with pytest.raises(ValueError, match="stop needs stall_window or max_rounds"):
        StopRule(stall_window=None)
    # A target the grid never reaches would loop forever without a bound.
    with pytest.raises(ValueError, match="a target alone may never be reached"):
        StopRule(stall_window=None, target=-3.0)
    # Round counts are integers: 2.5 would stop after round 3 and True after 2.
    with pytest.raises(ValueError, match=r"max_rounds must be an integer >= 1, got 2\.5"):
        StopRule(max_rounds=2.5)
    with pytest.raises(ValueError, match="stall_window must be an integer >= 1, got True"):
        StopRule(stall_window=True)
    assert StopRule().stall_window == 8


def test_single_marked_round_is_certain():
    # after any first draw the strict marked set is {argmin} or empty, so one
    # amplification step on 4 cells lands on the minimum with probability 1
    layout = int_layout(2)
    objective = lookup_objective([5.0, 5.0, 1.0, 5.0])
    schedule = Schedule("custom", entries=(0, 1))
    stop = StopRule(stall_window=None, target=1.0, max_rounds=2)
    for seed in range(60):
        result = adapted_grover_min(
            objective, layout, schedule, stop, np.random.default_rng(seed), strict=True
        )
        assert result.best_value == 1.0
        assert result.best_index == 2
        assert result.converged
        assert result.num_rounds <= 2


def test_zero_iteration_rounds_sample_uniformly():
    layout = int_layout(3)
    objective = lookup_objective(list(range(8)))
    schedule = Schedule("custom", entries=(0,))
    stop = StopRule(stall_window=None, max_rounds=1)
    counts = np.zeros(8)
    for seed in range(4096):
        result = adapted_grover_min(
            objective, layout, schedule, stop, np.random.default_rng(seed)
        )
        counts[result.best_index] += 1
    statistic = np.sum((counts - counts.mean()) ** 2 / counts.mean())  # Pearson's
    assert chdtrc(len(counts) - 1, statistic) > 0.001


def test_trace_threshold_bookkeeping():
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=8),
        np.random.default_rng(42),
    )
    rounds = result.trace.rounds
    assert rounds[0].round == 1
    assert rounds[0].threshold_before == math.inf
    for i, (rec, step) in enumerate(zip(rounds, Schedule("baritompa").steps())):
        assert rec.round == i + 1
        assert rec.threshold_after == min(rec.threshold_before, rec.value)
        assert rec.iterations == Schedule("baritompa").iterations(rec.round)
        assert (rec.iterations, rec.extended) == step
        if i:
            assert rec.threshold_before == rounds[i - 1].threshold_after
    thresholds = [r.threshold_after for r in rounds]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


def test_round_record_is_immutable_and_written_as_an_object(tmp_path):
    fields = [
        "round", "iterations", "extended", "index", "value", "threshold_before", "threshold_after"
    ]
    assert list(RoundRecord.__annotations__) == fields
    record = RoundRecord(3, 1, False, 523, 3.0, 30.0, 3.0)
    assert record == RoundRecord(**dict(zip(fields, (3, 1, False, 523, 3.0, 30.0, 3.0))))
    with pytest.raises(AttributeError):
        record.value = 0.0
    # A record is a tuple, which a JSON writer would emit as a list: the
    # trace names each round's fields.
    result = adapted_grover_min(
        GOLDSTEIN_PRICE, GP_LAYOUT, Schedule("baritompa"), StopRule(), np.random.default_rng(5)
    )
    trace = cli.search_result_json(result, 0, 5, cli.DEFAULT_CONFIGS["gp"])
    cli.write_json(tmp_path / "run.json", trace)
    written = json.loads((tmp_path / "run.json").read_text())["rounds"]
    assert len(written) == result.num_rounds
    for rec, r in zip(written, result.trace.rounds):
        assert rec == {
            "round": r.round,
            "iterations": r.iterations,
            "extended": r.extended,
            "index": r.index,
            "value": r.value,
            "threshold": r.threshold_after,
        }


def _replayed(table, strict):
    layout = int_layout(3)
    values = np.array(table)
    result = adapted_grover_min(
        lookup_objective(table),
        layout,
        Schedule("constant", constant=1),
        StopRule(stall_window=None, max_rounds=12),
        np.random.default_rng(7),
        strict=strict,
    )
    return values, list(round_states(values, layout, result.trace, strict))


def test_marked_set_matches_threshold_rule():
    values, seen = _replayed([4.0, 7.0, 2.0, 9.0, 2.0, 5.0, 8.0, 3.0], strict=False)
    assert len(seen) == 12
    for record, marked, _ in seen:
        if math.isinf(record.threshold_before):
            assert marked.sum() == len(values)
        else:
            np.testing.assert_array_equal(marked, values <= record.threshold_before)


def test_strict_marking_excludes_threshold():
    values, seen = _replayed([4.0, 7.0, 2.0, 9.0, 2.0, 5.0, 8.0, 3.0], strict=True)
    assert len(seen) == 12
    for record, marked, _ in seen:
        if not math.isinf(record.threshold_before):
            np.testing.assert_array_equal(marked, values < record.threshold_before)


def test_best_value_is_sound():
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=8),
        np.random.default_rng(3),
    )
    assert result.best_value == GOLDSTEIN_PRICE(*result.best_point)
    assert result.best_point == GP_LAYOUT.decode(result.best_index)
    assert result.best_value == min(r.value for r in result.trace.rounds)


def test_search_decodes_only_its_best_point(monkeypatch):
    calls = []
    decode = GridLayout.decode

    def counted(self, index):
        calls.append(index)
        return decode(self, index)

    monkeypatch.setattr(GridLayout, "decode", counted)
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())
    round_counts = set()
    for seed in range(4):
        calls.clear()
        result = adapted_grover_min(
            GOLDSTEIN_PRICE,
            GP_LAYOUT,
            Schedule("baritompa"),
            StopRule(stall_window=8),
            np.random.default_rng(seed),
            values=values,
        )
        assert calls == [result.best_index]
        round_counts.add(result.num_rounds)
    assert len(round_counts) > 1 and min(round_counts) > 1


def test_stall_stop_on_flat_objective():
    layout = int_layout(2)
    objective = lookup_objective([2.5] * 4)
    result = adapted_grover_min(
        objective,
        layout,
        Schedule("constant", constant=1),
        StopRule(stall_window=3),
        np.random.default_rng(0),
    )
    # round 1 improves from inf, then 3 stalled rounds
    assert result.num_rounds == 4
    assert result.converged
    assert result.best_value == 2.5


def test_stall_resets_on_improvement():
    layout = int_layout(2)
    objective = lookup_objective([3.0, 2.0, 1.0, 4.0])
    result = adapted_grover_min(
        objective,
        layout,
        Schedule("constant", constant=0),
        StopRule(stall_window=5),
        np.random.default_rng(1),
    )
    stall = 0
    for rec in result.trace.rounds[:-1]:
        stall = 0 if rec.value < rec.threshold_before else stall + 1
        assert stall < 5
    assert result.converged


def test_target_stop_reports_converged():
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=None, target=3.0, max_rounds=40),
        np.random.default_rng(0),
    )
    assert result.best_value == 3.0
    assert result.converged
    assert result.trace.rounds[-1].value == 3.0


def test_max_rounds_reports_not_converged():
    layout = int_layout(2)
    objective = lookup_objective([2.5] * 4)
    result = adapted_grover_min(
        objective,
        layout,
        Schedule("constant", constant=1),
        StopRule(stall_window=None, max_rounds=5),
        np.random.default_rng(0),
    )
    assert result.num_rounds == 5
    assert not result.converged


def test_schedule_exhaustion_reports_not_converged():
    layout = int_layout(2)
    objective = lookup_objective([2.5] * 4)
    result = adapted_grover_min(
        objective,
        layout,
        Schedule("custom", entries=(1, 1)),
        StopRule(stall_window=10),
        np.random.default_rng(0),
    )
    assert result.num_rounds == 2
    assert not result.converged


def test_incremental_total_is_triangular():
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("incremental"),
        StopRule(stall_window=6),
        np.random.default_rng(9),
    )
    r = result.num_rounds
    assert result.total_iterations == r * (r + 1) // 2


def test_iterations_to_best_prefix():
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=8),
        np.random.default_rng(5),
    )
    assert result.iterations_to_best <= result.total_iterations
    first_best = next(
        r for r in result.trace.rounds if r.value == result.best_value
    )
    prefix = sum(
        r.iterations for r in result.trace.rounds if r.round <= first_best.round
    )
    assert result.iterations_to_best == prefix


def test_precomputed_values_change_nothing():
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())
    kwargs = dict(
        objective=GOLDSTEIN_PRICE,
        layout=GP_LAYOUT,
        schedule=Schedule("baritompa"),
        stop=StopRule(stall_window=8),
    )
    a = adapted_grover_min(rng=np.random.default_rng(21), **kwargs)
    b = adapted_grover_min(rng=np.random.default_rng(21), values=values, **kwargs)
    assert a.best_index == b.best_index
    assert [r.index for r in a.trace.rounds] == [r.index for r in b.trace.rounds]


def test_values_shape_checked():
    with pytest.raises(ValueError, match="values must have shape"):
        adapted_grover_min(
            GOLDSTEIN_PRICE,
            GP_LAYOUT,
            Schedule("baritompa"),
            StopRule(),
            np.random.default_rng(0),
            values=np.zeros(7),
        )


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        adapted_grover_min(
            GOLDSTEIN_PRICE,
            int_layout(3),
            Schedule("baritompa"),
            StopRule(),
            np.random.default_rng(0),
        )


def test_run_ensemble_matches_manual_spawn():
    # Each run of an ensemble is the search its spawned stream gives alone:
    # nothing carries over from run to run, not even through the memo of
    # class probabilities, so the runs are replayed in reverse after clearing it.
    schedules = [Schedule("baritompa"), Schedule("incremental"), Schedule.parse([0, 2, 1, 3])]
    stop = StopRule(stall_window=4, max_rounds=40)
    outcomes = set()
    for objective, layout in ((GOLDSTEIN_PRICE, GP_LAYOUT), (LJ_TRIMER, TIED_TRIMER_LAYOUT)):
        values = objective.batch(layout.all_points())
        for schedule in schedules:
            for strict in (False, True):
                setup = SearchSetup(objective, layout, schedule, stop, strict)
                stats_out = run_ensemble(setup, 5, base_seed=123)
                grover.class_probabilities.cache_clear()
                children = np.random.SeedSequence(123).spawn(5)
                for child, result in reversed(list(zip(children, stats_out.results))):
                    manual = adapted_grover_min(
                        objective, layout, schedule, stop, np.random.default_rng(child),
                        values=values, strict=strict,
                    )
                    assert manual == result
                    outcomes.add((schedule.kind, result.converged))
    # Round 1 always improves, so the 4-entry list runs out before 4 stalls.
    assert ("custom", False) in outcomes and ("baritompa", True) in outcomes


def test_schedule_steps_are_its_rounds():
    for schedule in (
        Schedule("baritompa"), Schedule("incremental"), Schedule("constant", constant=2),
        Schedule.parse([3, 0, 1]),
    ):
        steps = list(islice(schedule.steps(), 40))
        rounds = range(1, len(steps) + 1)
        assert [k for k, _ in steps] == [schedule.iterations(r) for r in rounds]
        assert [e for _, e in steps] == [schedule.kind == "baritompa" and r > 24 for r in rounds]
        assert len(steps) == (3 if schedule.kind == "custom" else 40)
    assert list(islice(Schedule("baritompa").steps(), 23, 26)) == [(5, False), (5, True), (5, True)]


def test_run_ensemble_statistics():
    setup = SearchSetup(
        GOLDSTEIN_PRICE, GP_LAYOUT, Schedule("baritompa"), StopRule(stall_window=8)
    )
    out = run_ensemble(setup, 20, base_seed=7)
    assert out.reference_value == 3.0
    assert 0.0 <= out.success_fraction <= 1.0
    assert sum(out.rounds_histogram.values()) == 20
    assert list(out.rounds_histogram) == sorted(out.rounds_histogram)
    rounds = [r.num_rounds for r in out.results]
    assert out.mean_rounds == pytest.approx(np.mean(rounds))
    assert out.median_rounds == pytest.approx(np.median(rounds))
    totals = [r.total_iterations for r in out.results]
    assert out.mean_total_iterations == pytest.approx(np.mean(totals))
    successes = [r for r in out.results if r.best_value == 3.0]
    assert out.success_fraction == len(successes) / 20


def test_run_ensemble_single_run_collapses():
    setup = SearchSetup(
        GOLDSTEIN_PRICE, GP_LAYOUT, Schedule("baritompa"), StopRule(stall_window=8)
    )
    out = run_ensemble(setup, 1, base_seed=11)
    only = out.results[0]
    assert out.mean_rounds == out.median_rounds == only.num_rounds
    assert out.mean_total_iterations == only.total_iterations


def test_run_ensemble_is_deterministic():
    setup = SearchSetup(
        GOLDSTEIN_PRICE, GP_LAYOUT, Schedule("baritompa"), StopRule(stall_window=8)
    )
    a = run_ensemble(setup, 8, base_seed=99)
    b = run_ensemble(setup, 8, base_seed=99)
    assert [r.best_index for r in a.results] == [r.best_index for r in b.results]
    assert a.rounds_histogram == b.rounds_histogram


def test_run_ensemble_validates_n_runs():
    setup = SearchSetup(
        GOLDSTEIN_PRICE, GP_LAYOUT, Schedule("baritompa"), StopRule(stall_window=8)
    )
    with pytest.raises(ValueError, match="n_runs"):
        run_ensemble(setup, 0, base_seed=0)


def test_spawn_rngs_splits_the_base_seed():
    rngs = spawn_rngs(123, 3)
    for child, rng in zip(np.random.SeedSequence(123).spawn(3), rngs):
        assert rng.integers(1 << 62) == np.random.default_rng(child).integers(1 << 62)
    # run i's stream does not depend on the number of runs
    assert spawn_rngs(5, 1)[0].random() == spawn_rngs(5, 4)[0].random()
    with pytest.raises(ValueError, match="n_runs"):
        spawn_rngs(0, 0)


def test_oversized_grid_refused_before_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register check")

    monkeypatch.setattr(GridLayout, "all_points", refuse)
    monkeypatch.setattr(Objective, "batch", refuse)
    # No search or ensemble can start on such a grid: building it is refused.
    with pytest.raises(RegisterTooLarge, match="26 qubits exceeds the register cap of 24"):
        square_layout(["x", "y"], -3.2, 3.0, 13)


def test_non_finite_values_rejected():
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())
    values[[3, 40]] = [np.nan, np.inf]
    with pytest.raises(ValueError, match="objective 'gp' gave 2 non-finite values"):
        adapted_grover_min(
            GOLDSTEIN_PRICE,
            GP_LAYOUT,
            Schedule("baritompa"),
            StopRule(stall_window=8),
            np.random.default_rng(0),
            values=values,
        )


def dense_grover_min(values, layout, schedule, stop, rng, strict=False):
    """Reference trace: each round builds the 2**n register, amplifies it and
    measures it with ``rng.choice`` over its renormalized Born probabilities."""
    n = layout.total_qubits
    threshold, stall, trace = math.inf, 0, SearchTrace()
    for round_index, (k, extended) in enumerate(schedule.steps(), 1):
        mask = values < threshold if strict else values <= threshold
        amps = iterate(uniform_superposition(n), MarkedSet(n, mask), k).amplitudes
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-10:
            amps = amps / np.sqrt(norm_sq)
        probs = np.abs(amps) ** 2
        idx = int(rng.choice(layout.size, p=probs / probs.sum()))
        value = float(values[idx])
        trace.rounds.append(
            RoundRecord(round_index, k, extended, idx, value, threshold, min(threshold, value))
        )
        stall = 0 if value < threshold else stall + 1
        threshold = min(threshold, value)
        if stop.target is not None and threshold <= stop.target:
            break
        if stop.stall_window is not None and stall >= stop.stall_window:
            break
        if stop.max_rounds is not None and round_index >= stop.max_rounds:
            break
    return trace


TRIMER_LAYOUT = GridLayout(
    [VariableSpec("B", 0.0001, 2.0, 5), VariableSpec("A", 0.0001, math.pi, 4)]
)
#: Every row with B = 0 or A = 0 is coincident, so half the grid ties at
#: ENERGY_CAP, and a threshold at the cap marks (or, strict, drops) all of it.
TIED_TRIMER_LAYOUT = GridLayout(
    [VariableSpec("B", 0.0, 2.0, 7), VariableSpec("A", 0.0, math.pi, 1)]
)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("schedule", ["baritompa", "incremental", "constant:2"])
def test_closed_form_search_matches_dense_reference(schedule, strict):
    schedule = Schedule.parse(schedule)
    stop = StopRule(stall_window=8, max_rounds=60)
    tied_rounds = 0
    for objective, layout in (
        (GOLDSTEIN_PRICE, GP_LAYOUT),
        (LJ_TRIMER, TRIMER_LAYOUT),
        (LJ_TRIMER, TIED_TRIMER_LAYOUT),
    ):
        values = objective.batch(layout.all_points())
        for seed in range(6):
            result = adapted_grover_min(
                objective, layout, schedule, stop, np.random.default_rng(seed),
                values=values, strict=strict,
            )
            reference = dense_grover_min(
                values, layout, schedule, stop, np.random.default_rng(seed), strict=strict
            )
            assert result.trace == reference
            assert result.total_iterations == sum(r.iterations for r in result.trace.rounds)
            tied_rounds += sum(
                r.iterations > 0 and r.threshold_before == ENERGY_CAP for r in reference.rounds
            )
    assert tied_rounds  # some amplified round marked against the tied cap


@pytest.mark.parametrize(
    "stop, converged",
    [
        (StopRule(stall_window=None, target=3.0, max_rounds=500), True),
        (StopRule(stall_window=None, max_rounds=7), False),
    ],
)
@pytest.mark.parametrize("schedule", ["baritompa", "incremental"])
def test_closed_form_search_matches_dense_reference_on_target_and_round_cap(
    schedule, stop, converged
):
    schedule = Schedule.parse(schedule)
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())  # grid minimum 3.0
    for seed in range(6):
        result = adapted_grover_min(
            GOLDSTEIN_PRICE, GP_LAYOUT, schedule, stop, np.random.default_rng(seed), values=values
        )
        reference = dense_grover_min(values, GP_LAYOUT, schedule, stop, np.random.default_rng(seed))
        assert result.trace == reference
        assert result.total_iterations == sum(r.iterations for r in result.trace.rounds)
        assert result.converged is converged
        if converged:
            assert result.best_value == 3.0
        else:
            assert result.num_rounds == 7


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "objective, layout, schedule",
    [
        (GOLDSTEIN_PRICE, GP_LAYOUT, "baritompa"),
        (LJ_TRIMER, TRIMER_LAYOUT, "incremental"),
        (LJ_TRIMER, TIED_TRIMER_LAYOUT, "baritompa"),
    ],
)
def test_round_states_follow_the_amplification_law(objective, layout, schedule, strict):
    values = objective.batch(layout.all_points())
    for seed in range(3):
        result = adapted_grover_min(
            objective,
            layout,
            Schedule.parse(schedule),
            StopRule(),
            np.random.default_rng(seed),
            values=values,
            strict=strict,
        )
        states = list(round_states(values, layout, result.trace, strict))
        assert [record for record, _, _ in states] == result.trace.rounds
        for record, marked, (a, b) in states:
            m, size = int(marked.sum()), layout.size
            expected = success_probability(m, size, record.iterations)
            assert abs(a * m - expected) < 1e-9
            assert abs(b * (size - m) - (1 - expected)) < 1e-9


def test_search_without_observer_builds_no_register(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("search built a dense register")

    monkeypatch.setattr(minsearch, "iterate", refuse)
    monkeypatch.setattr(minsearch, "uniform_superposition", refuse)
    result = adapted_grover_min(
        GOLDSTEIN_PRICE,
        GP_LAYOUT,
        Schedule("baritompa"),
        StopRule(stall_window=8),
        np.random.default_rng(4),
        strict=True,
    )
    assert result.num_rounds > 1


def test_search_without_observer_builds_no_marked_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("search built a MarkedSet")

    monkeypatch.setattr(minsearch, "MarkedSet", refuse)
    for strict in (False, True):
        result = adapted_grover_min(
            GOLDSTEIN_PRICE,
            GP_LAYOUT,
            Schedule("baritompa"),
            StopRule(stall_window=8),
            np.random.default_rng(4),
            strict=strict,
        )
        assert result.total_iterations > 0


@pytest.mark.parametrize("schedule", ["baritompa", "constant:1"])
def test_rounds_allocate_nothing_grid_sized_after_the_first_scan(monkeypatch, schedule):
    # The marked indices are refreshed only in a round with k > 0 whose
    # threshold moved since the last refresh.  Every other round (k = 0, or
    # no improvement since) must stay far below one byte per grid cell, and a
    # refresh after the first narrows the last set in place, a block of
    # marks at a time: 17 bytes per mark of one block, not of the set.  Each
    # round is measured up to its draw, and each draw (with the memo's table
    # rebuilds, under 10 KB) on its own.
    layout = square_layout(["x", "y"], -3.2, 3.0, 8)
    values = GOLDSTEIN_PRICE.batch(layout.all_points())
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 256)
    growth, draws = [], []
    real_sample = minsearch.sample

    def measured(*args):
        current, peak = tracemalloc.get_traced_memory()
        growth.append(peak - measured.current)
        tracemalloc.reset_peak()
        index = real_sample(*args)
        measured.current, peak = tracemalloc.get_traced_memory()
        draws.append(peak - current)
        tracemalloc.reset_peak()
        return index

    monkeypatch.setattr(minsearch, "sample", measured)
    schedule = Schedule.parse(schedule)
    unrefreshed = {"k = 0": 0, "stall": 0}
    for seed in range(4):
        growth.clear()
        draws.clear()
        tracemalloc.start()
        try:
            measured.current = tracemalloc.get_traced_memory()[0]
            result = adapted_grover_min(
                GOLDSTEIN_PRICE, layout, schedule, StopRule(stall_window=6),
                np.random.default_rng(seed), values=values,
            )
        finally:
            tracemalloc.stop()
        refreshed_at = None
        for r, grew in zip(result.trace.rounds, growth):
            # Nothing is listed at the infinite threshold, so the first
            # refresh is the grid scan at the first finite one.
            if r.iterations > 0 and r.threshold_before not in (refreshed_at, math.inf):
                if refreshed_at is not None:
                    last_count = np.count_nonzero(values <= refreshed_at)
                    assert grew < 17 * min(last_count, 256) + 4096, (r, grew, last_count)
                refreshed_at = r.threshold_before
            elif r.round > 1:  # round 1 also holds the search's set-up
                assert grew < layout.size // 4, (r, grew)
                unrefreshed["stall" if r.iterations else "k = 0"] += 1
        assert max(draws) < layout.size // 4
    assert unrefreshed["stall"]
    if schedule.kind == "baritompa":
        assert unrefreshed["k = 0"]


GP_8_8 = square_layout(["x", "y"], -3.2, 3.0, 8)
#: 9 qubits; the B = 0 cells (indices 0-15) are a run tied at ENERGY_CAP, and
#: every A = 0 cell holds it too.  Seed 7 of ``incremental`` amplifies a round
#: at the cap.
TIED_TRIMER_9 = GridLayout([VariableSpec("B", 0.0, 2.0, 5), VariableSpec("A", 0.0, math.pi, 4)])


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "schedule", ["incremental", "constant:1", [1, 0, 2]], ids=["incremental", "constant", "custom"]
)
def test_infinite_threshold_lists_no_cell(monkeypatch, schedule, strict):
    # Round 1 amplifies at the infinite threshold, where every cell is marked
    # and the draw from m = 0 is the uniform one m = N gives: neither helper
    # sees inf, and nothing of a byte per grid cell is allocated before the
    # first draw (a list of every cell is 8 bytes per cell).
    values = GOLDSTEIN_PRICE.batch(GP_8_8.all_points())
    thresholds, before_first_draw = [], []
    real_scan, real_narrow, real_sample = minsearch._scan, minsearch._narrow, minsearch.sample

    def scan(values, threshold, strict):
        thresholds.append(threshold)
        return real_scan(values, threshold, strict)

    def narrow(marks, values, threshold, strict):
        thresholds.append(threshold)
        return real_narrow(marks, values, threshold, strict)

    def sample(*args):
        if not before_first_draw:
            before_first_draw.append(tracemalloc.get_traced_memory()[1])
        return real_sample(*args)

    monkeypatch.setattr(minsearch, "_scan", scan)
    monkeypatch.setattr(minsearch, "_narrow", narrow)
    monkeypatch.setattr(minsearch, "sample", sample)
    schedule = Schedule.parse(schedule)
    for seed in range(4):
        before_first_draw.clear()
        rng = np.random.default_rng(seed)
        tracemalloc.start()
        try:
            result = adapted_grover_min(
                GOLDSTEIN_PRICE, GP_8_8, schedule, StopRule(stall_window=6), rng,
                values=values, strict=strict,
            )
        finally:
            tracemalloc.stop()
        first = result.trace.rounds[0]
        assert first.iterations > 0 and first.threshold_before == math.inf
        assert before_first_draw[0] < GP_8_8.size, before_first_draw
    assert thresholds and math.inf not in thresholds


@pytest.mark.parametrize("block_rows", [1, 7, 100])
@pytest.mark.parametrize(
    "objective, layout, schedule, seeds",
    [
        (GOLDSTEIN_PRICE, GP_8_8, "baritompa", 2),
        (GOLDSTEIN_PRICE, GP_8_8, "incremental", 2),  # round 1 lists no cell
        (GOLDSTEIN_PRICE, GP_8_8, "constant:1", 2),
        (LJ_TRIMER, TIED_TRIMER_9, "incremental", 8),
    ],
    ids=["gp-baritompa", "gp-incremental", "gp-constant", "lj-trimer-tied"],
)
def test_marking_in_blocks_leaves_every_search_unchanged(
    monkeypatch, objective, layout, schedule, seeds, block_rows
):
    # The default block holds each grid whole, so the default search marks
    # with one expression; a patched block reaches the search's scan and
    # narrowings and must change no result.
    if layout is GP_8_8 and block_rows == 1:
        layout = GP_LAYOUT  # 1024 one-cell blocks per scan, not 65536
    values = objective.batch(layout.all_points())

    def searches():
        return [
            adapted_grover_min(
                objective, layout, Schedule.parse(schedule), StopRule(stall_window=6),
                np.random.default_rng(seed), values=values, strict=strict,
            )
            for strict in (False, True)
            for seed in range(seeds)
        ]

    assert layout.size <= encoding.BLOCK_ROWS
    expected = searches()
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)
    blocks = []
    real_under = minsearch._under

    def spy(values, threshold, strict):
        blocks.append(len(values))
        return real_under(values, threshold, strict)

    monkeypatch.setattr(minsearch, "_under", spy)
    assert searches() == expected
    assert max(blocks) <= block_rows < len(blocks)
    if objective is LJ_TRIMER:
        assert np.all(values[:16] == ENERGY_CAP)
        assert any(
            r.iterations and r.threshold_before == ENERGY_CAP
            for result in expected
            for r in result.trace.rounds
        )


@pytest.mark.parametrize("block_rows", [1, 7, 100])
def test_block_helpers_match_the_whole_array_expressions(monkeypatch, block_rows):
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)
    marks = np.flatnonzero(values <= np.median(values))
    for threshold in (values.min() - 1.0, values.min(), np.median(values), math.inf):
        for strict in (False, True):
            mask = values < threshold if strict else values <= threshold
            scanned = minsearch._scan(values, threshold, strict)
            assert scanned.dtype == np.int64
            assert scanned.tolist() == np.flatnonzero(mask).tolist()
            narrowed = minsearch._narrow(marks.copy(), values, threshold, strict)
            assert narrowed.tolist() == marks[mask[marks]].tolist()
