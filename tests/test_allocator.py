import numpy as np
import pytest

from dsquant.allocator import (
    AllocationConfig,
    AllocationPlan,
    allocate,
    compression_ratio,
    largest_remainder_sizes,
    read_keep_list,
    read_plan,
    split_by_score,
    write_plan,
)


def reference_allocate(scores, strategy, config, seed=0, keep_indices=None):
    """The three-strategy allocate this module replaced, as an oracle:
    "fixed_uniform" gave every survivor bit_levels[0], the adaptive
    strategies split by score."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if keep_indices is not None:
        survivors = np.unique(np.asarray(keep_indices, dtype=np.int64))
    elif config.prune_ratio > 0.0:
        n_drop = int(round(config.prune_ratio * n))
        rng = np.random.default_rng(seed)
        dropped = rng.choice(n, size=n_drop, replace=False)
        mask = np.ones(n, dtype=bool)
        mask[dropped] = False
        survivors = np.flatnonzero(mask)
    else:
        survivors = np.arange(n, dtype=np.int64)
    assignments = np.zeros(n, dtype=np.int32)
    if survivors.size:
        if strategy == "fixed_uniform":
            assignments[survivors] = config.bit_levels[0]
        else:
            groups = split_by_score(scores, config.group_fractions, survivors)
            for group, bits in zip(groups, config.bit_levels):
                assignments[group] = bits
    return assignments, int(assignments.sum()) / n


@pytest.mark.parametrize("levels, strategies", [
    ((8,), ("fixed_uniform", "adaptive_k_group")),
    ((0,), ("fixed_uniform", "adaptive_k_group")),
    ((8, 0), ("adaptive_two_group", "adaptive_k_group")),
    ((16, 16), ("adaptive_two_group", "adaptive_k_group")),
    ((16, 8, 4, 0), ("adaptive_k_group",)),
    ((12, 6, 6, 2), ("adaptive_k_group",)),
])
def test_one_rule_matches_the_strategy_allocator(levels, strategies):
    rng = np.random.default_rng(sum(levels) + len(levels))
    for case in range(120):
        n = int(rng.integers(1, 60))
        # few distinct values, so many scores tie
        scores = rng.integers(0, 4, size=n) / 4.0
        fractions = None
        if case % 2:
            weights = rng.integers(1, 5, size=len(levels))
            fractions = tuple(weights / weights.sum())
        config = AllocationConfig(levels, fractions, prune_ratio=0.3 if case % 3 == 0 else 0.0)
        keep = None
        if case % 4 == 1:  # every other keep-list is empty
            keep = rng.integers(0, n, size=int(rng.integers(0, n + 1)) if case % 8 == 1 else 0)
        plan = allocate(scores, config, seed=case, keep_indices=keep)
        for strategy in strategies:
            assignments, b_avg = reference_allocate(scores, strategy, config, case, keep)
            assert np.array_equal(plan.assignments, assignments), (strategy, case)
            assert plan.b_avg == b_avg


class TestSplitByScore:
    def test_two_group_example(self):
        groups = split_by_score([0.9, 0.1, 0.5, 0.5], [0.5, 0.5])
        assert sorted(groups[0].tolist()) == [0, 2]
        assert groups[1].tolist() == [3, 1]

    def test_single_group_gets_everything(self):
        groups = split_by_score([0.3, 0.1, 0.2], [1.0])
        assert sorted(groups[0].tolist()) == [0, 1, 2]

    def test_all_equal_scores_split_by_index(self):
        groups = split_by_score(np.zeros(6), [0.5, 0.5])
        assert groups[0].tolist() == [0, 1, 2]
        assert groups[1].tolist() == [3, 4, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_by_score([], [1.0])

    def test_groups_partition_indices(self):
        rng = np.random.default_rng(5)
        scores = rng.random(97)
        groups = split_by_score(scores, [0.2, 0.3, 0.5])
        merged = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(merged, np.arange(97))


def test_largest_remainder_sizes():
    assert largest_remainder_sizes([0.5, 0.5], 5) == [3, 2]
    assert largest_remainder_sizes([1 / 3] * 3, 10) == [4, 3, 3]
    assert largest_remainder_sizes([0.5, 0.5], 4) == [2, 2]


class TestBudget:
    @pytest.mark.parametrize("bits,b_avg,ratio", [
        ((16, 16), 16.0, 0.50),
        ((10, 6), 8.0, 0.75),
        ((8, 0), 4.0, 0.875),
        ((4, 0), 2.0, 0.9375),
    ])
    def test_equal_split_pairs(self, bits, b_avg, ratio):
        assert AllocationPlan.from_assignments(np.repeat(bits, 50)).b_avg == b_avg
        assert compression_ratio(b_avg) == ratio

    def test_ratio_endpoints(self):
        assert compression_ratio(32.0) == 0.0
        assert compression_ratio(0.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            AllocationPlan.from_assignments([])
        with pytest.raises(ValueError):
            compression_ratio(33.0)


class TestAllocationConfig:
    def test_levels_must_descend(self):
        with pytest.raises(ValueError, match="non-increasing"):
            AllocationConfig((6, 8))

    def test_equal_levels_allowed(self):
        AllocationConfig((16, 16))

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            AllocationConfig((8, 1))
        with pytest.raises(ValueError):
            AllocationConfig((17, 8))

    @pytest.mark.parametrize("fractions", [
        (0.5, float("nan")), (float("nan"), float("nan")),
        (float("inf"), 0.5), (1.5, float("-inf")),
    ])
    def test_fractions_must_be_finite(self, fractions):
        with pytest.raises(ValueError, match="group fractions must be finite, got "):
            AllocationConfig((8, 4), group_fractions=fractions)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            AllocationConfig((8, 0), group_fractions=(0.6, 0.6))

    def test_default_fractions_are_equal(self):
        cfg = AllocationConfig((10, 6, 2))
        assert cfg.group_fractions == pytest.approx((1 / 3,) * 3)

    def test_prune_ratio_range(self):
        with pytest.raises(ValueError):
            AllocationConfig((8, 0), prune_ratio=1.0)


class TestAllocate:
    def test_adaptive_keeps_top_scores(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.05])
        cfg = AllocationConfig((8, 0))
        plan = allocate(scores, cfg)
        top5 = set(np.argsort(-scores)[:5])
        assert set(np.flatnonzero(plan.assignments == 8)) == top5
        assert plan.b_avg == 4.0

    def test_fixed_uniform(self):
        cfg = AllocationConfig((8,))
        plan = allocate(np.zeros(10), cfg)
        assert np.all(plan.assignments == 8)
        assert plan.compression_ratio == 0.75

    def test_prune_then_quantize_total_ratio(self):
        # 90% random prune, then nominal 50% quantization: total 95%
        cfg = AllocationConfig((16, 16), prune_ratio=0.9)
        plan = allocate(np.random.default_rng(0).random(100), cfg, seed=1)
        assert np.sum(plan.assignments == 0) == 90
        assert plan.b_avg == 1.6
        assert plan.compression_ratio == 0.95

    def test_keep_list_overrides_pruning(self):
        scores = np.arange(10, dtype=float)
        cfg = AllocationConfig((8,), prune_ratio=0.5)
        plan = allocate(scores, cfg, keep_indices=[1, 3])
        assert set(np.flatnonzero(plan.assignments == 8)) == {1, 3}

    def test_keep_list_range_checked(self):
        cfg = AllocationConfig((8,))
        with pytest.raises(ValueError, match="keep-list"):
            allocate(np.zeros(4), cfg, keep_indices=[5])

    def test_deterministic(self):
        scores = np.random.default_rng(3).random(50)
        cfg = AllocationConfig((8, 0), prune_ratio=0.2)
        a = allocate(scores, cfg, seed=7)
        b = allocate(scores, cfg, seed=7)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_positive_scale_invariance(self):
        scores = np.random.default_rng(4).random(31)
        cfg = AllocationConfig((10, 6, 2))
        a = allocate(scores, cfg)
        b = allocate(1234.5 * scores, cfg)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_monotone_fidelity(self):
        rng = np.random.default_rng(6)
        scores = rng.random(40)
        cfg = AllocationConfig((16, 8, 4, 0), group_fractions=(0.25,) * 4)
        plan = allocate(scores, cfg)
        order = np.lexsort((np.arange(40), -scores))
        bits = plan.assignments[order]
        assert np.all(np.diff(bits) <= 0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            allocate([], AllocationConfig((8,)))

    def test_budget_matches_solve_budget(self):
        scores = np.random.default_rng(7).random(11)
        fractions = (0.4, 0.6)
        cfg = AllocationConfig((10, 6), group_fractions=fractions)
        plan = allocate(scores, cfg)
        sizes = [int(np.sum(plan.assignments == b)) for b in (10, 6)]
        assert plan.b_avg == (sizes[0] * 10 + sizes[1] * 6) / sum(sizes)


def test_plan_file_round_trip(tmp_path):
    cfg = AllocationConfig((8, 0))
    plan = allocate(np.random.default_rng(1).random(9), cfg)
    path = tmp_path / "plan.tsv"
    write_plan(plan, path)
    header = path.read_text().splitlines()[0].split()
    assert header[0] == "9"
    again = read_plan(path)
    np.testing.assert_array_equal(again.assignments, plan.assignments)
    assert again.b_avg == plan.b_avg


def test_keep_list_file(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("3\n1\n3\n7\n")
    np.testing.assert_array_equal(read_keep_list(path), [1, 3, 7])
