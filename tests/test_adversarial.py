"""Adversarial spike-timing attacks: spaces, drivers, plans, engine, bounds.

Pins the PR's contracts end to end:

* the perturbation spaces propose exactly-one-move candidates and random
  moves over the event backend,
* the greedy driver walks margin plateaus, resamples subsampled worsening
  rounds, halts only on exhaustively-proven local minima, and runs the
  full budget (no early flip exit),
* :class:`AttackPlan` is a content-addressed, per-sample-shardable sweep
  cell whose streams derive statelessly from the plan identity,
* attack sweeps inherit store resume (zero re-searched cells), killed-worker
  shard recovery and executor/shard/worker bit-identity from the engine,
* the headline worst-case guarantee: at the pinned budgets the greedy
  attack's accuracy is *strictly below* the matched-budget random baseline
  for every supporting coder on both evaluators.
"""

import logging

import numpy as np
import pytest

from repro.execution import (
    ResultStore,
    SerialExecutor,
    WorkloadRef,
    evaluate_plans,
)
from repro.execution import engine as engine_module
from repro.execution.attack import (
    ATTACK_FINGERPRINT_SCHEMA,
    AttackPlan,
    build_attack_plans,
    evaluate_attack_plan,
    find_attack_train,
)
from repro.execution.engine import network_hash_for
from repro.execution.plan import shard_fingerprint
from repro.experiments import prepare_workload
from repro.experiments.config import (
    TEST_SCALE,
    AttackSweepConfig,
    MethodSpec,
    SweepConfig,
)
from repro.experiments.figures import run_figure
from repro.experiments.runner import run_sweep, run_sweeps
from repro.experiments.tables import run_table
from repro.noise.adversarial import (
    DeleteSpace,
    InsertSpace,
    ShiftSpace,
    as_events,
    beam_attack,
    classification_margins,
    greedy_attack,
    make_space,
    random_attack,
    run_attack_search,
    stack_trains,
)
from repro.snn.spikes import SpikeEvents

from dataclasses import replace


@pytest.fixture(scope="module")
def tiny_workload():
    return prepare_workload("mnist", scale=TEST_SCALE, seed=0)


def toy_train(times=(0, 2, 5), neurons=(1, 2, 0), counts=(2, 1, 1),
              num_steps=8, shape=(4,)):
    return SpikeEvents(
        np.asarray(times, dtype=np.int64),
        np.asarray(neurons, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        num_steps, shape,
    )


def wide_train(num_events=10, num_steps=12):
    """One spike per event slot -- a space larger than small candidate caps."""
    return SpikeEvents(
        np.arange(num_events, dtype=np.int64) % num_steps,
        np.arange(num_events, dtype=np.int64),
        np.ones(num_events, dtype=np.int64),
        num_steps, (num_events,),
    )


def spike_count_margin(trains):
    """Deterministic toy scorer: fewer spikes == lower margin."""
    return np.array([float(t.total_spikes()) for t in trains], dtype=np.float64)


def negated_spike_count(trains):
    """Toy scorer under which *every* deletion strictly worsens the margin."""
    return -spike_count_margin(trains)


# ---------------------------------------------------------------------------
# Perturbation spaces
# ---------------------------------------------------------------------------
class TestPerturbationSpaces:
    def test_delete_candidates_each_remove_one_spike(self):
        train = toy_train()
        candidates = DeleteSpace().candidates(train, np.random.default_rng(0), 64)
        assert len(candidates) == 3  # exhaustive: one per occupied slot
        assert all(c.total_spikes() == train.total_spikes() - 1 for c in candidates)
        assert all(c.num_steps == train.num_steps for c in candidates)

    def test_delete_on_empty_train_proposes_nothing(self):
        empty = toy_train(times=(), neurons=(), counts=())
        space = DeleteSpace()
        assert space.candidates(empty, np.random.default_rng(0), 8) == []
        assert space.random_move(empty, np.random.default_rng(0)).total_spikes() == 0

    def test_delete_random_move_removes_exactly_one(self):
        train = toy_train()
        moved = DeleteSpace().random_move(train, np.random.default_rng(3))
        assert moved.total_spikes() == train.total_spikes() - 1

    def test_shift_preserves_spike_count_and_window(self):
        train = toy_train()
        space = ShiftSpace(delta=2)
        candidates = space.candidates(train, np.random.default_rng(0), 64)
        assert candidates
        for candidate in candidates:
            assert candidate.total_spikes() == train.total_spikes()
            assert candidate.times.min() >= 0
            assert candidate.times.max() < train.num_steps
        moved = space.random_move(train, np.random.default_rng(1))
        assert moved.total_spikes() == train.total_spikes()

    def test_shift_on_empty_train_proposes_nothing(self):
        empty = toy_train(times=(), neurons=(), counts=())
        space = ShiftSpace(delta=2)
        assert space.candidates(empty, np.random.default_rng(0), 8) == []
        assert space.random_move(empty, np.random.default_rng(0)) == empty

    def test_shift_without_room_in_the_window_keeps_the_train(self):
        # A one-step window leaves no in-window shift for any spike.
        train = toy_train(times=(0,), neurons=(1,), counts=(1,), num_steps=1)
        space = ShiftSpace(delta=2)
        assert space.candidates(train, np.random.default_rng(0), 8) == []
        assert space.random_move(train, np.random.default_rng(0)) == train

    def test_shift_candidates_actually_move_a_spike(self):
        train = toy_train()
        candidates = ShiftSpace(delta=1).candidates(
            train, np.random.default_rng(0), 64
        )
        clean = train.to_dense().counts
        assert all(
            not np.array_equal(c.to_dense().counts, clean) for c in candidates
        )

    def test_shift_delta_validated(self):
        with pytest.raises(ValueError, match="delta"):
            ShiftSpace(delta=0)

    def test_insert_adds_one_spike_anywhere_on_the_grid(self):
        train = toy_train()
        space = InsertSpace()
        candidates = space.candidates(train, np.random.default_rng(0), 10_000)
        assert len(candidates) == train.num_steps * train.num_neurons
        assert all(c.total_spikes() == train.total_spikes() + 1 for c in candidates)
        forced = space.random_move(train, np.random.default_rng(2))
        assert forced.total_spikes() == train.total_spikes() + 1

    def test_candidate_caps_subsample_deterministically(self):
        train = wide_train()
        space = DeleteSpace()
        first = space.candidates(train, np.random.default_rng(7), 4)
        again = space.candidates(train, np.random.default_rng(7), 4)
        assert len(first) == 4
        assert all(a == b for a, b in zip(first, again))

    def test_make_space_dispatch(self):
        assert isinstance(make_space("delete"), DeleteSpace)
        assert isinstance(make_space("shift", shift_delta=3), ShiftSpace)
        assert make_space("shift", shift_delta=3).delta == 3
        assert isinstance(make_space("insert"), InsertSpace)
        with pytest.raises(ValueError, match="attack kind"):
            make_space("flip")


# ---------------------------------------------------------------------------
# Batched scoring plumbing
# ---------------------------------------------------------------------------
class TestScoringPlumbing:
    def test_stack_trains_assigns_batch_slots(self):
        a = toy_train()
        b = toy_train(times=(1,), neurons=(3,), counts=(2,))
        stacked = stack_trains([a, b])
        assert stacked.population_shape == (2, 4)
        assert stacked.num_steps == a.num_steps
        assert stacked.total_spikes() == a.total_spikes() + b.total_spikes()
        # Slot 1's events live past slot 0's neuron stride.
        dense = stacked.to_dense().counts.reshape(stacked.num_steps, 2, 4)
        assert dense[:, 0].sum() == a.total_spikes()
        assert dense[:, 1].sum() == b.total_spikes()

    def test_stack_trains_rejects_mismatched_windows(self):
        with pytest.raises(ValueError, match="identical window"):
            stack_trains([toy_train(num_steps=8), toy_train(num_steps=16)])
        with pytest.raises(ValueError, match="at least one"):
            stack_trains([])

    def test_classification_margins(self):
        logits = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 5.0]])
        margins = classification_margins(logits, 0)
        assert margins.tolist() == [2.0, -5.0]
        assert classification_margins(logits, 2).tolist() == [-3.0, 3.0]


# ---------------------------------------------------------------------------
# Search drivers (deterministic toy scorers)
# ---------------------------------------------------------------------------
class TestGreedyDriver:
    def test_chains_budget_many_improving_moves(self):
        outcome = greedy_attack(
            toy_train(), DeleteSpace(), 3, spike_count_margin, rng=0
        )
        assert outcome.moves == 3
        assert outcome.train.total_spikes() == 1
        assert outcome.margin == 1.0
        # 1 clean call + 3 rounds of (incumbent + exhaustive proposals).
        assert outcome.candidates_scored > 4

    def test_budget_zero_is_the_clean_train(self):
        train = toy_train()
        outcome = greedy_attack(train, DeleteSpace(), 0, spike_count_margin, rng=0)
        assert outcome.train == as_events(train)
        assert outcome.moves == 0
        assert outcome.candidates_scored == 1

    def test_plateau_ties_are_accepted(self):
        # The transport scorer quantises margins; a driver that required
        # strict descent would stall on the first plateau.
        flat = lambda trains: np.zeros(len(trains))
        outcome = greedy_attack(toy_train(), DeleteSpace(), 3, flat, rng=0)
        assert outcome.moves == 3
        assert outcome.train.total_spikes() == toy_train().total_spikes() - 3

    def test_exhaustive_worsening_round_proves_local_minimum(self):
        train = toy_train()
        outcome = greedy_attack(
            train, DeleteSpace(), 5, negated_spike_count, rng=0,
            max_candidates=64,
        )
        assert outcome.moves == 0
        assert outcome.train == as_events(train)
        # Exactly one round ran: clean + (3 proposals + incumbent).
        assert outcome.candidates_scored == 1 + 3 + 1

    def test_subsampled_worsening_round_resamples_instead_of_halting(self):
        train = wide_train()  # 10 events, cap of 4 below the space size
        outcome = greedy_attack(
            train, DeleteSpace(), 3, negated_spike_count, rng=0,
            max_candidates=4,
        )
        assert outcome.moves == 0
        assert outcome.train == as_events(train)
        # A subsampled bad round proves nothing: all 3 budget rounds ran.
        assert outcome.candidates_scored == 1 + 3 * (4 + 1)

    def test_an_empty_space_ends_the_search_early(self):
        empty = toy_train(times=(), neurons=(), counts=())
        outcome = greedy_attack(empty, DeleteSpace(), 5, spike_count_margin, rng=0)
        assert outcome.train == empty
        assert outcome.moves == 0
        assert outcome.candidates_scored == 1  # the clean train only

    def test_same_rng_reproduces_the_same_attack(self):
        train = wide_train()
        first = greedy_attack(
            train, DeleteSpace(), 4, spike_count_margin, rng=11, max_candidates=3
        )
        again = greedy_attack(
            train, DeleteSpace(), 4, spike_count_margin, rng=11, max_candidates=3
        )
        assert first.train == again.train
        assert first.margin == again.margin
        assert first.moves == again.moves


class TestBeamDriver:
    def test_finds_the_same_chain_on_a_convex_toy(self):
        outcome = beam_attack(
            toy_train(), DeleteSpace(), 2, spike_count_margin, rng=0,
            beam_width=2,
        )
        assert outcome.moves == 2
        assert outcome.margin == 2.0
        assert outcome.train.total_spikes() == 2

    def test_keeps_the_clean_train_when_every_move_worsens(self):
        train = toy_train()
        outcome = beam_attack(
            train, DeleteSpace(), 3, negated_spike_count, rng=0, beam_width=2
        )
        assert outcome.moves == 0
        assert outcome.train == as_events(train)

    def test_an_empty_space_ends_the_search_early(self):
        empty = toy_train(times=(), neurons=(), counts=())
        outcome = beam_attack(
            empty, DeleteSpace(), 5, spike_count_margin, rng=0, beam_width=2
        )
        assert outcome.train == empty
        assert outcome.moves == 0
        assert outcome.candidates_scored == 1

    def test_budget_zero_and_width_validation(self):
        train = toy_train()
        outcome = beam_attack(train, DeleteSpace(), 0, spike_count_margin, rng=0)
        assert outcome.train == as_events(train) and outcome.moves == 0
        with pytest.raises(ValueError, match="beam_width"):
            beam_attack(train, DeleteSpace(), 1, spike_count_margin, beam_width=0)


class TestRandomDriver:
    def test_spends_exactly_the_budget(self):
        train = toy_train()
        outcome = random_attack(train, DeleteSpace(), 3, rng=5)
        assert outcome.moves == 3
        assert outcome.train.total_spikes() == train.total_spikes() - 3
        assert np.isnan(outcome.margin)
        assert outcome.candidates_scored == 0

    def test_budget_zero_is_identity_and_same_rng_reproduces(self):
        train = toy_train()
        assert random_attack(train, InsertSpace(), 0, rng=1).train == as_events(train)
        first = random_attack(train, InsertSpace(), 4, rng=9)
        again = random_attack(train, InsertSpace(), 4, rng=9)
        assert first.train == again.train


class TestSearchDispatch:
    def test_dispatch_matches_direct_calls(self):
        train = wide_train()
        direct = greedy_attack(
            train, DeleteSpace(), 2, spike_count_margin, rng=3, max_candidates=4
        )
        routed = run_attack_search(
            train, "delete", "greedy", 2, spike_count_margin, rng=3,
            max_candidates=4,
        )
        assert direct.train == routed.train and direct.margin == routed.margin

    def test_beam_dispatch_matches_direct_call(self):
        train = wide_train()
        direct = beam_attack(
            train, ShiftSpace(delta=3), 2, spike_count_margin, rng=5,
            beam_width=3, max_candidates=6,
        )
        routed = run_attack_search(
            train, "shift", "beam", 2, spike_count_margin, rng=5,
            shift_delta=3, beam_width=3, max_candidates=6,
        )
        assert direct.train == routed.train
        assert direct.margin == routed.margin
        assert direct.candidates_scored == routed.candidates_scored

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="search"):
            run_attack_search(toy_train(), "delete", "anneal", 1, spike_count_margin)
        with pytest.raises(ValueError, match="attack kind"):
            run_attack_search(toy_train(), "swap", "greedy", 1, spike_count_margin)


# ---------------------------------------------------------------------------
# AttackPlan: validation, identity, sharding, fingerprints
# ---------------------------------------------------------------------------
REF = WorkloadRef(dataset="mnist", scale=TEST_SCALE, seed=0)


def make_plan(**overrides):
    defaults = dict(
        workload=REF, method=MethodSpec(coding="ttfs"), attack_kind="delete",
        budget=4, seed=0, num_steps=8,
    )
    defaults.update(overrides)
    return AttackPlan(**defaults)


class TestAttackPlanValidation:
    def test_choice_fields_validated(self):
        with pytest.raises(ValueError, match="attack_kind"):
            make_plan(attack_kind="flip")
        with pytest.raises(ValueError, match="search"):
            make_plan(search="anneal")
        with pytest.raises(ValueError, match="evaluator"):
            make_plan(evaluator="exact")

    def test_numeric_knobs_validated(self):
        with pytest.raises(ValueError, match="budget"):
            make_plan(budget=-1)
        with pytest.raises(ValueError, match="max_candidates"):
            make_plan(max_candidates=0)

    def test_shard_bounds_validated(self):
        with pytest.raises(ValueError, match="together"):
            make_plan(sample_start=0)
        with pytest.raises(ValueError, match="shard bounds"):
            make_plan(sample_start=4, sample_stop=2)
        with pytest.raises(ValueError, match="shard bounds"):
            make_plan(sample_start=0, sample_stop=100)  # eval size is 24


class TestAttackPlanSurface:
    def test_duck_typed_cell_surface(self):
        plan = make_plan()
        assert plan.dataset == "mnist"
        assert plan.noise_kind == "adv-delete"
        assert plan.level == 4.0
        assert plan.method_label == "TTFS"
        assert "adv-delete=4" in plan.cell_id()
        assert "[greedy/transport]" in plan.cell_id()
        shard = plan.shards(4)[1]
        assert "samples[6:12)" in shard.cell_id()

    def test_eval_size_normalises_against_the_test_split(self):
        assert make_plan().effective_eval_size() == TEST_SCALE.eval_size
        assert make_plan(eval_size=999).effective_eval_size() == TEST_SCALE.test_size
        assert make_plan(eval_size=6).effective_eval_size() == 6


class TestAttackPlanSharding:
    def test_per_sample_shards_cover_the_cell(self):
        plan = make_plan()  # 24 samples
        shards = plan.shards(5)
        assert [s.sample_range() for s in shards] == [
            (0, 5), (5, 10), (10, 15), (15, 20), (20, 24)
        ]
        assert all(s.is_shard for s in shards)
        assert all(s.cell_plan() == plan for s in shards)

    def test_shard_count_clamps_to_samples(self):
        shards = make_plan(eval_size=6).shards(100)
        assert len(shards) == 6  # per-sample granularity, not per-batch
        assert all(s.sample_stop - s.sample_start == 1 for s in shards)

    def test_one_shard_is_the_plan_and_resharding_rejected(self):
        plan = make_plan()
        assert plan.shards(1) == [plan]
        assert plan.cell_plan() is plan
        with pytest.raises(ValueError, match="re-shard"):
            plan.shards(2)[0].shards(2)
        with pytest.raises(ValueError, match="num_shards"):
            plan.shards(0)


class TestAttackPlanFingerprints:
    def test_describe_is_canonical(self):
        payload = make_plan(eval_size=None).describe()
        assert payload["cell_kind"] == "attack"
        assert payload["schema"] == ATTACK_FINGERPRINT_SCHEMA
        assert payload["eval_size"] == TEST_SCALE.eval_size
        assert payload["method"]["label"] is None
        assert "sample_start" not in payload and "sample_stop" not in payload
        # Engine keys are constants, at the values stored cells carry.
        assert payload["analog_backend"] is None and payload["sim_backend"] is None
        transfer = make_plan(evaluator="timestep").describe()
        assert transfer["sim_backend"] == "fused"

    def test_retired_knobs_keep_their_stored_values(self):
        # shift_delta, beam_width and scaling_mode were plan fields; the
        # payload keeps the values every stored cell ran with, which are
        # the search's own defaults.
        import inspect

        payload = make_plan(search="beam", attack_kind="shift").describe()
        defaults = inspect.signature(run_attack_search).parameters
        assert payload["shift_delta"] == defaults["shift_delta"].default == 2
        assert payload["beam_width"] == defaults["beam_width"].default == 4
        assert payload["scaling_mode"] == "inverse"

    def test_cosmetic_labels_share_one_stored_result(self):
        plain = make_plan()
        fancy = make_plan(method=MethodSpec(coding="ttfs", label="Worst case"))
        assert plain.cell_fingerprint("nh") == fancy.cell_fingerprint("nh")

    def test_semantic_fields_change_the_fingerprint(self):
        base = make_plan().cell_fingerprint("nh")
        assert make_plan(budget=5).cell_fingerprint("nh") != base
        assert make_plan(search="random").cell_fingerprint("nh") != base
        assert make_plan(attack_kind="insert").cell_fingerprint("nh") != base
        assert make_plan(evaluator="timestep").cell_fingerprint("nh") != base
        assert make_plan(max_candidates=32).cell_fingerprint("nh") != base
        assert make_plan().cell_fingerprint("other") != base

    def test_shard_fingerprints_derive_from_the_cell(self):
        plan = make_plan()
        cell = plan.cell_fingerprint("nh")
        shards = plan.shards(3)
        prints = [s.fingerprint("nh") for s in shards]
        assert len(set(prints)) == 3 and cell not in prints
        start, stop = shards[0].sample_range()
        assert prints[0] == shard_fingerprint(cell, start, stop, 24)
        assert plan.fingerprint("nh") == cell

    def test_encode_root_is_search_independent(self):
        plan = make_plan()
        assert plan.encode_root() == make_plan(search="random").encode_root()
        assert plan.encode_root() == make_plan(budget=9).encode_root()
        assert plan.encode_root() != make_plan(
            method=MethodSpec(coding="rate"), num_steps=16
        ).encode_root()

    def test_search_root_keys_the_search_but_not_shards(self):
        plan = make_plan()
        assert plan.search_root() != make_plan(search="random").search_root()
        assert plan.search_root() != make_plan(budget=5).search_root()
        assert plan.search_root() != make_plan(attack_kind="shift").search_root()
        assert plan.search_root() == plan.shards(3)[1].search_root()


# ---------------------------------------------------------------------------
# Engine integration: resume, crash recovery, bit-identity
# ---------------------------------------------------------------------------
class CountingExecutor(SerialExecutor):
    """Serial executor that records how many work items it evaluated."""

    def __init__(self):
        self.evaluated = 0

    def map(self, fn, items):
        for item in items:
            self.evaluated += 1
            yield fn(item)


def _same_results(a, b):
    return all(
        x.accuracy == y.accuracy
        and x.total_spikes == y.total_spikes
        and x.spikes_per_sample == y.spikes_per_sample
        and x.num_samples == y.num_samples
        for x, y in zip(a, b)
    )


def attack_config(**overrides):
    defaults = dict(
        dataset="mnist",
        methods=(MethodSpec(coding="ttfs"),),
        attack_kind="delete",
        budgets=(0, 2),
        scale=TEST_SCALE,
        seed=0,
        max_candidates=8,
    )
    defaults.update(overrides)
    return AttackSweepConfig(**defaults)


def _compile_attack(config, eval_size=6):
    plans = build_attack_plans(config, eval_size=eval_size)
    return plans[0].workload, plans


class TestAttackSweepConfigValidation:
    def test_needs_a_method(self):
        with pytest.raises(ValueError, match="at least one method"):
            attack_config(methods=())

    def test_needs_a_budget(self):
        with pytest.raises(ValueError, match="at least one budget"):
            attack_config(budgets=())

    def test_budgets_are_integer_move_counts(self):
        with pytest.raises(ValueError, match="integers"):
            attack_config(budgets=(0, 1.5))

    def test_transfer_evaluation_refuses_codings_without_a_timestep_model(self):
        with pytest.raises(ValueError, match="burst \\(transfer evaluation\\)"):
            attack_config(
                methods=(MethodSpec(coding="burst"), MethodSpec(coding="ttfs")),
                evaluator="timestep",
            )

    def test_axis_name_and_levels(self):
        config = attack_config(attack_kind="shift", budgets=(0, 3))
        assert config.noise_kind == "adv-shift"
        assert config.levels == (0.0, 3.0)


class TestAttackEngineIntegration:
    def test_sweep_matches_direct_cell_evaluation(self, tiny_workload):
        config = attack_config(budgets=(0, 2))
        ref, plans = _compile_attack(config, eval_size=4)
        sweep = run_sweep(config, workload=tiny_workload, eval_size=4)
        direct = [evaluate_attack_plan(p, tiny_workload) for p in plans]
        assert sweep.curves[0].accuracies == [r.accuracy for r in direct]
        assert sweep.curves[0].levels == [0.0, 2.0]
        assert sweep.curves[0].spikes_per_sample == [
            r.spikes_per_sample for r in direct
        ]

    def test_transfer_builds_one_simulator_per_cell(
        self, tiny_workload, simulator_builds
    ):
        config = attack_config(budgets=(0, 2), evaluator="timestep")
        sweep = run_sweep(config, workload=tiny_workload, eval_size=4)
        assert sweep.curves[0].levels == [0.0, 2.0]
        sample_shape = tiny_workload.evaluation_slice(4)[0].shape[1:]
        assert simulator_builds == [sample_shape, sample_shape]

    def test_one_batch_mixes_noise_and_attack_sweeps(self, tiny_workload):
        # Each config compiles its own cells, so one run_sweeps call takes
        # both families and matches running each alone.
        noise = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="ttfs"),),
            noise_kind="deletion", levels=(0.0, 0.5), scale=TEST_SCALE,
            seed=0, batch_size=4,
        )
        attack = attack_config(budgets=(0, 2))
        workloads = {"mnist": tiny_workload}
        mixed = run_sweeps([noise, attack], workloads=workloads, eval_size=4)
        alone = [
            run_sweep(config, workload=tiny_workload, eval_size=4)
            for config in (noise, attack)
        ]
        assert mixed[0].stats.evaluated_cells == 4
        for together, single in zip(mixed, alone):
            assert together.config == single.config
            for a, b in zip(together.curves, single.curves):
                assert a.levels == b.levels
                assert a.accuracies == b.accuracies
                assert a.spike_counts == b.spike_counts

    def test_attack_sweeps_resume_with_zero_researched_cells(
        self, tiny_workload, tmp_path
    ):
        config = attack_config()
        store = ResultStore(str(tmp_path))
        first = run_sweep(
            config, workload=tiny_workload, eval_size=6, store=store
        )
        counting = CountingExecutor()
        resumed = run_sweep(
            config, workload=tiny_workload, eval_size=6, store=store,
            executor=counting,
        )
        assert counting.evaluated == 0  # every cell came from the store
        assert resumed.stats.store_hits == len(config.budgets)
        assert resumed.curves[0].accuracies == first.curves[0].accuracies

    def test_killed_worker_loses_no_completed_attack_shards(
        self, tiny_workload, tmp_path
    ):
        config = attack_config(budgets=(2,))
        ref, plans = _compile_attack(config, eval_size=6)
        plan = plans[0]
        engine_module.register_workload(ref, tiny_workload)
        network_hash = network_hash_for(ref)
        store = ResultStore(str(tmp_path))
        # Simulate a run killed after two of three shards persisted.
        cell = plan.cell_fingerprint(network_hash)
        survivors = plan.shards(3)[:2]
        for shard in survivors:
            store.put_shard(
                cell, shard.fingerprint(network_hash),
                evaluate_attack_plan(shard, tiny_workload),
            )
        counting = CountingExecutor()
        evaluation = evaluate_plans(
            [plan], store=store, workloads={ref: tiny_workload}, shards=3,
            executor=counting,
        )
        assert counting.evaluated == 1  # only the lost shard was re-searched
        assert evaluation.stats.shard_store_hits == 2
        reference = evaluate_attack_plan(plan, tiny_workload)
        assert evaluation.results[0].accuracy == reference.accuracy
        assert evaluation.results[0].total_spikes == reference.total_spikes

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_attack_bit_identity_across_executors_and_shards(
        self, tiny_workload, shards, executor
    ):
        config = attack_config(budgets=(2,))
        ref, plans = _compile_attack(config, eval_size=6)
        reference = evaluate_plans(
            plans, executor="serial", store=False,
            workloads={ref: tiny_workload},
        )
        candidate = evaluate_plans(
            plans, executor=executor, max_workers=2, store=False,
            workloads={ref: tiny_workload}, shards=shards,
        )
        assert candidate.stats.sharded_cells == len(plans)
        assert _same_results(reference.results, candidate.results)

    def test_found_train_ignores_shard_bounds(self, tiny_workload):
        config = attack_config(budgets=(2,))
        ref, plans = _compile_attack(config, eval_size=6)
        plan = plans[0]
        shard = plan.shards(3)[1]  # samples [2, 4)
        whole = find_attack_train(plan, tiny_workload, 3)
        sharded = find_attack_train(shard, tiny_workload, 3)
        assert whole.train == sharded.train
        assert whole.margin == sharded.margin and whole.moves == sharded.moves

    def test_search_is_shared_across_evaluators(self, tiny_workload):
        # The timestep evaluator *transfer-evaluates* the transport-found
        # attack: both plans must search out bit-identical trains.
        config = attack_config(budgets=(2,))
        transport_plan = _compile_attack(config, eval_size=4)[1][0]
        transfer_plan = replace(transport_plan, evaluator="timestep")
        a = find_attack_train(transport_plan, tiny_workload, 1)
        b = find_attack_train(transfer_plan, tiny_workload, 1)
        assert a.train == b.train

    def test_greedy_and_random_attack_the_same_clean_trains(self, tiny_workload):
        # encode_root is search-independent: at budget 0 both searches
        # degenerate to identical clean encodings.
        greedy_plan = _compile_attack(
            attack_config(budgets=(0,)), eval_size=4
        )[1][0]
        random_plan = _compile_attack(
            attack_config(budgets=(0,), search="random"), eval_size=4
        )[1][0]
        a = find_attack_train(greedy_plan, tiny_workload, 2)
        b = find_attack_train(random_plan, tiny_workload, 2)
        assert a.train == b.train


# ---------------------------------------------------------------------------
# The worst-case guarantee: greedy strictly below random at matched budget
# ---------------------------------------------------------------------------
def _attack_accuracy(workload, coding, budget, search, *, eval_size,
                     max_candidates, evaluator, target_duration=None):
    config = AttackSweepConfig(
        dataset="mnist",
        methods=(MethodSpec(coding=coding, target_duration=target_duration),),
        attack_kind="delete",
        budgets=(budget,),
        scale=TEST_SCALE,
        seed=0,
        search=search,
        max_candidates=max_candidates,
        evaluator=evaluator,
    )
    result = run_sweep(config, workload=workload, eval_size=eval_size)
    return result.curves[0].accuracies[0]


class TestGreedyBeatsRandom:
    """ISSUE acceptance: at the pinned deletion budgets the greedy attack's
    accuracy is *strictly below* the matched-budget random baseline, per
    coder, on both evaluators.

    Budgets/candidate caps are pinned empirically at TEST_SCALE, seed 0:
    sparse temporal codes (ttfs/ttas/burst) separate at tiny budgets, the
    denser phase/rate codes need deeper searches.  Rate is excluded from the
    timestep leg: the faithful simulator's per-layer spike quantisation
    leaves rate near chance accuracy at test-scale window lengths (see
    ``timestep_note`` in :mod:`repro.coding.rate`), so a worst-case bound
    there would be vacuous.  Burst has no timestep protocol at all
    (``supports_timestep=False``).
    """

    TRANSPORT_CASES = [
        ("ttfs", None, 8, 48, 10),
        ("ttas", 3, 8, 48, 10),
        ("burst", None, 8, 48, 10),
        ("phase", None, 32, 64, 10),
        ("rate", None, 128, 96, 6),
    ]

    TIMESTEP_CASES = [
        ("ttfs", None, 8, 48, 10),
        ("ttas", 3, 16, 64, 10),
        ("phase", None, 32, 64, 10),
    ]

    @pytest.mark.parametrize(
        "coding,duration,budget,max_candidates,eval_size", TRANSPORT_CASES
    )
    def test_transport_worst_case_strictly_below_random(
        self, tiny_workload, coding, duration, budget, max_candidates, eval_size
    ):
        greedy = _attack_accuracy(
            tiny_workload, coding, budget, "greedy", eval_size=eval_size,
            max_candidates=max_candidates, evaluator="transport",
            target_duration=duration,
        )
        random_baseline = _attack_accuracy(
            tiny_workload, coding, budget, "random", eval_size=eval_size,
            max_candidates=max_candidates, evaluator="transport",
            target_duration=duration,
        )
        assert greedy < random_baseline

    @pytest.mark.parametrize(
        "coding,duration,budget,max_candidates,eval_size", TIMESTEP_CASES
    )
    def test_timestep_transfer_strictly_below_random(
        self, tiny_workload, coding, duration, budget, max_candidates, eval_size
    ):
        greedy = _attack_accuracy(
            tiny_workload, coding, budget, "greedy", eval_size=eval_size,
            max_candidates=max_candidates, evaluator="timestep",
            target_duration=duration,
        )
        random_baseline = _attack_accuracy(
            tiny_workload, coding, budget, "random", eval_size=eval_size,
            max_candidates=max_candidates, evaluator="timestep",
            target_duration=duration,
        )
        assert greedy < random_baseline


# ---------------------------------------------------------------------------
# Reporting: the adversarial-vs-random figure
# ---------------------------------------------------------------------------
class TestAdversarialReporting:
    def test_figure_pairs_each_coder_with_its_random_baseline(
        self, tiny_workload
    ):
        result = run_figure(
            "adv-delete", "mnist", budgets=(0, 2), scale=TEST_SCALE, seed=0,
            workload=tiny_workload, eval_size=4, max_candidates=8,
            method_filter=("ttfs",),
        )
        labels = [curve.label for curve in result.curves]
        assert labels == ["TTFS (greedy)", "TTFS (random)"]
        assert all(curve.levels == [0.0, 2.0] for curve in result.curves)
        # Budget 0 degenerates to the same clean cells for both searches.
        assert result.curves[0].accuracies[0] == result.curves[1].accuracies[0]

    @pytest.mark.parametrize("command", ["figure", "table"])
    def test_transfer_sweeps_warn_about_dropped_codings(
        self, tiny_workload, command, caplog, monkeypatch
    ):
        # Burst has no temporal protocol: figures and tables alike drop it
        # from timestep transfer evaluation, and say so.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        common = dict(
            budgets=(0, 1), scale=TEST_SCALE, eval_size=2, max_candidates=4,
            simulator="timestep", method_filter=("Burst", "TTFS"),
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            if command == "figure":
                result = run_figure(
                    "adv-delete", "mnist", workload=tiny_workload, **common
                )
                labels = [c.label for c in result.curves]
            else:
                result = run_table(
                    "adv-delete", ("mnist",),
                    workloads={"mnist": tiny_workload}, **common,
                )
                labels = [row.method for row in result.rows]
        assert labels == ["TTFS (greedy)", "TTFS (random)"]
        dropped = [r.getMessage() for r in caplog.records if "dropping" in r.getMessage()]
        assert len(dropped) == 1 and "Burst" in dropped[0]

    def test_transfer_sweep_of_only_unsupported_codings_is_refused(
        self, tiny_workload
    ):
        with pytest.raises(ValueError, match="no requested method supports"):
            run_figure(
                "adv-delete", "mnist", workload=tiny_workload, budgets=(0, 1),
                scale=TEST_SCALE, eval_size=2, max_candidates=4,
                simulator="timestep", method_filter=("Burst",),
            )
