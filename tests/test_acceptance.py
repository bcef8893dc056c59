"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete (pytest hides captured stdout for passing tests
otherwise).
"""

import numpy as np
import pytest
from reference import reference_unpack, synth_half_noise

from dsquant.allocator import (
    AllocationConfig,
    AllocationPlan,
    allocate,
    compression_ratio,
    largest_remainder_sizes,
)
from dsquant.dataset import Dataset, SampleShape, synth_blobs, write_dataset_file
from dsquant.qds import HEADER_BYTES, read_qds, write_qds
from dsquant.quantizer import (
    dequantize_rows,
    max_code,
    pack_code_rows,
    quantize_rows,
    unpack_code_rows,
)
from dsquant.sensitivity import (
    LogisticModel,
    gradient_check,
    score_dataset,
    sensitivity_score,
)
from dsquant.trainer import TrainConfig, compare, fit_scoring_model


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_budget_arithmetic():
    ok = True
    for bits, b_avg, ratio in [((16, 16), 16.0, 0.50), ((10, 6), 8.0, 0.75),
                               ((8, 0), 4.0, 0.875), ((4, 0), 2.0, 0.9375)]:
        ok &= AllocationPlan.from_assignments(np.repeat(bits, 50)).b_avg == b_avg
        ok &= compression_ratio(b_avg) == ratio
    # prune 90% of 100 samples, keep the rest at 16 bits (nominal 50%)
    plan = allocate(np.random.default_rng(0).random(100),
                    AllocationConfig((16, 16), prune_ratio=0.9), seed=1)
    ok &= plan.b_avg == 1.6 and plan.compression_ratio == 0.95
    _verdict(1, "budget arithmetic", ok)


def test_criterion_2_quantizer_error_bound():
    rng = np.random.default_rng(12)
    violations = 0
    for bits in (2, 4, 8, 16):
        values = rng.standard_normal((250, 512)).astype(np.float32)
        values *= (10.0 ** rng.uniform(-3, 3, size=(250, 1))).astype(np.float32)
        assert values.size >= 10**5
        codes, scales = quantize_rows(values, bits)
        recon = dequantize_rows(codes, scales).astype(np.float64)
        bound = (scales.astype(np.float64) / 2
                 + 4 * np.spacing(np.abs(values).max(axis=1)))
        violations += int(np.sum(
            np.abs(recon - values.astype(np.float64)).max(axis=1) > bound))
    _verdict(2, "quantizer error bound", violations == 0)


def test_criterion_3_pack_unpack_bijection():
    rng = np.random.default_rng(34)
    mismatches = 0
    for bits in range(2, 17):
        q = max_code(bits)
        for _ in range(10**4):
            n = int(rng.integers(1, 33))
            codes = rng.integers(-q, q + 1, size=(1, n), dtype=np.int32)
            payload = pack_code_rows(codes, bits)
            if not np.array_equal(unpack_code_rows(payload, n, bits), codes):
                mismatches += 1
            elif not np.array_equal(
                    reference_unpack(payload[0].tobytes(), n, bits), codes[0]):
                mismatches += 1
    _verdict(3, "pack/unpack bijection", mismatches == 0)


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(56)
    worst = 0.0
    for _ in range(100):
        classes = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 12))
        model = LogisticModel.seeded(classes, dim, int(rng.integers(0, 10**6)))
        values = rng.standard_normal(dim)
        label = int(rng.integers(0, classes))
        worst = max(worst, gradient_check(model, values, label, step=1e-5))
    _verdict(4, "gradient correctness", worst < 1e-4)


def test_criterion_5_score_properties():
    rng = np.random.default_rng(78)
    ok = True
    for _ in range(10**4):
        dim = int(rng.integers(1, 20))
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        ok &= 0.0 <= sensitivity_score(a, b) <= 2.0
    g = rng.standard_normal(50)
    ok &= sensitivity_score(g, g) == 0.0
    ok &= abs(sensitivity_score(g, -g) - 2.0) <= 1e-9
    ok &= abs(sensitivity_score([1.0, 0.0], [0.0, 1.0]) - 1.0) <= 1e-9
    for scale in (1e-6, 3.7, 1e6):
        ok &= abs(sensitivity_score(g, scale * g)) <= 1e-9
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        ok &= abs(sensitivity_score(a, b)
                  - sensitivity_score(scale * a, b)) <= 1e-9
    _verdict(5, "sensitivity score properties", ok)


def test_criterion_6_allocation_invariants():
    rng = np.random.default_rng(90)
    configs = [
        AllocationConfig((8, 0)),
        AllocationConfig((10, 6), group_fractions=(0.3, 0.7)),
        AllocationConfig((16, 8, 4, 0)),
        AllocationConfig((8,)),
    ]
    ok = True
    for trial in range(10**3):
        n = int(rng.integers(1, 51))
        scores = rng.random(n)
        config = configs[trial % len(configs)]
        plan = allocate(scores, config)
        sizes = largest_remainder_sizes(config.group_fractions, n)
        # budget exactness down to the integer bit total
        total = sum(s * b for s, b in zip(sizes, config.bit_levels))
        ok &= plan.b_avg == total / n
        # partition completeness: group sizes realize the fractions exactly
        for size, bits in zip(sizes, config.bit_levels):
            matching = int(np.sum(plan.assignments == bits))
            expected = sum(s for s, b in zip(sizes, config.bit_levels)
                           if b == bits)
            ok &= matching == expected
        # monotone fidelity: higher score never gets fewer bits
        order = np.lexsort((np.arange(n), -scores))
        ok &= bool(np.all(np.diff(plan.assignments[order]) <= 0))
        # positive-scale invariance
        scaled = allocate(float(rng.uniform(0.1, 1000)) * scores, config)
        ok &= bool(np.array_equal(scaled.assignments, plan.assignments))
    _verdict(6, "allocation invariants", ok)


def test_criterion_7_format_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ok = True

    empty = Dataset(SampleShape(1, 1, 4), 2,
                    np.zeros((0, 4), np.float32), np.zeros(0, np.int64))
    empty_path = tmp_path / "empty.qds"
    write_qds(empty, AllocationPlan(np.zeros(0, np.int32), 0.0, 1.0), empty_path)
    ok &= empty_path.stat().st_size == HEADER_BYTES == 34

    widths = np.array([0, 2, 3, 5, 8, 11, 16])
    for trial in range(100):
        n = int(rng.integers(1, 15))
        dim = int(rng.integers(1, 10))
        dset = Dataset(SampleShape(1, 1, dim), 4,
                       rng.standard_normal((n, dim)).astype(np.float32),
                       rng.integers(0, 4, n))
        bits = rng.choice(widths, n).astype(np.int32)
        plan = AllocationPlan.from_assignments(bits)
        path = tmp_path / f"t{trial}.qds"
        write_qds(dset, plan, path)
        expected_size = HEADER_BYTES + sum(
            5 if b == 0 else 9 + (dim * int(b) + 7) // 8 for b in bits)
        ok &= path.stat().st_size == expected_size
        records, header = read_qds(path)
        ok &= header.sample_count == n
        for i, b in enumerate(bits):
            if b == 0:
                ok &= records[i] is None
                continue
            codes, scales = quantize_rows(dset.values[i:i + 1], int(b))
            ok &= bool(np.array_equal(records[i].codes, codes[0]))
            ok &= records[i].scale.tobytes() == scales[0].tobytes()
            ok &= bool(np.array_equal(
                dequantize_rows(records[i].codes[None], [records[i].scale]),
                dequantize_rows(codes, scales)))
    _verdict(7, "format round trip", ok)


def test_criterion_8_end_to_end_comparability(tmp_path):
    ok = True
    adaptive_deltas = []
    for seed in range(5):
        dset = synth_blobs(3, 64, 1000, 0.5, seed=seed)
        dsr = tmp_path / f"data-{seed}.dsr"
        write_dataset_file(dset, dsr)
        config = TrainConfig(epochs=10, seed=100 + seed)

        uniform = allocate(np.zeros(len(dset)), AllocationConfig((16,)))
        path = tmp_path / f"u16-{seed}.qds"
        write_qds(dset, uniform, path)
        ok &= abs(compare(dsr, path, config).accuracy_delta) <= 0.01

        model = fit_scoring_model(dset, seed=42 + seed)
        scores = score_dataset(dset, model, 4)
        adaptive = allocate(scores, AllocationConfig((8, 0)))
        ok &= adaptive.compression_ratio == 0.875
        path = tmp_path / f"a80-{seed}.qds"
        write_qds(dset, adaptive, path)
        adaptive_deltas.append(compare(dsr, path, config).accuracy_delta)
    ok &= float(np.mean(adaptive_deltas)) >= -0.05
    _verdict(8, "end-to-end comparability", ok)


def test_criterion_9_adaptive_beats_fixed(tmp_path):
    margins = []
    for seed in range(5):
        dset = synth_half_noise(3, 32, 150, 0.05, seed=seed)
        dsr = tmp_path / f"half-noise-{seed}.dsr"
        write_dataset_file(dset, dsr)
        model = fit_scoring_model(dset, seed=42 + seed)
        scores = score_dataset(dset, model, 4)
        adaptive = allocate(scores, AllocationConfig((8, 0)))
        fixed = allocate(scores, AllocationConfig((4,)))
        assert adaptive.b_avg == fixed.b_avg == 4.0
        config = TrainConfig(epochs=15, seed=100 + seed)
        deltas = {}
        for name, plan in (("adaptive", adaptive), ("fixed", fixed)):
            path = tmp_path / f"{name}-{seed}.qds"
            write_qds(dset, plan, path)
            deltas[name] = compare(dsr, path, config).accuracy_delta
        margins.append(deltas["adaptive"] - deltas["fixed"])
    _verdict(9, "adaptive beats fixed at equal budget",
             float(np.mean(margins)) > 0.0)


def test_criterion_10_probe_fidelity_ordering():
    ok = True
    for seed in range(5):
        dset = synth_blobs(3, 32, 100, 0.5, seed=seed)
        model = fit_scoring_model(dset, seed=42 + seed)
        fine = score_dataset(dset, model, 16)
        coarse = score_dataset(dset, model, 4)
        ok &= float(fine.mean()) < float(coarse.mean())
    _verdict(10, "probe-fidelity ordering", ok)
