"""Turn sensitivity scores into per-sample bit-width assignments.

One rule: sort the surviving samples by descending score, split them
into groups by largest-remainder shares of the group fractions, and give
group g bit level g. One level is uniform quantization; two or more are
adaptive, highest scores getting the most bits.

A random prune step (seeded) may drop a fraction of samples to 0 bits
before allocation, or an explicit keep-list can pin the survivors so an
external selector can be plugged in. The average bit-width b_avg counts
dropped samples as 0 and the nominal compression ratio is 1 - b_avg/32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import read_indexed, read_table, write_indexed
from .quantizer import is_valid_bit_width

ORIGINAL_BITS = 32

_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class AllocationConfig:
    bit_levels: tuple
    group_fractions: tuple = None
    prune_ratio: float = 0.0

    def __post_init__(self):
        levels = tuple(int(b) for b in self.bit_levels)
        if not levels:
            raise ValueError("bit_levels must be non-empty")
        for b in levels:
            if not is_valid_bit_width(b):
                raise ValueError(f"invalid bit width {b}")
        # (16, 16) style equal-level configs are legal, so ties are allowed
        if any(a < b for a, b in zip(levels, levels[1:])):
            raise ValueError("bit_levels must be non-increasing")
        if 0 in levels[:-1]:
            raise ValueError("0 bits only allowed as the last level")
        fractions = self.group_fractions
        if fractions is None:
            fractions = tuple(1.0 / len(levels) for _ in levels)
        else:
            fractions = tuple(float(f) for f in fractions)
        if len(fractions) != len(levels):
            raise ValueError("group_fractions must match bit_levels")
        if not all(math.isfinite(f) for f in fractions):
            raise ValueError("group fractions must be finite, got "
                             + ", ".join(map(str, fractions)))
        if any(f <= 0 for f in fractions):
            raise ValueError("group fractions must be positive")
        if abs(sum(fractions) - 1.0) > _FRACTION_TOL:
            raise ValueError("group fractions must sum to 1")
        if not 0.0 <= self.prune_ratio < 1.0:
            raise ValueError("prune_ratio must be in [0, 1)")
        object.__setattr__(self, "bit_levels", levels)
        object.__setattr__(self, "group_fractions", fractions)


@dataclass(frozen=True)
class AllocationPlan:
    assignments: np.ndarray  # int32 bit-width per sample
    b_avg: float
    compression_ratio: float

    @classmethod
    def from_assignments(cls, assignments) -> "AllocationPlan":
        assignments = np.ascontiguousarray(assignments, dtype=np.int32)
        if assignments.size == 0:
            raise ValueError("empty assignment list")
        b_avg = int(assignments.sum()) / assignments.size
        assignments.setflags(write=False)
        return cls(assignments, b_avg, compression_ratio(b_avg))

    def __len__(self) -> int:
        return self.assignments.size


def largest_remainder_sizes(fractions, total: int) -> list:
    """Integer group sizes summing to total, fractional shares rounded
    by largest remainder; remainder ties go to the earlier group."""
    quotas = [f * total for f in fractions]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(range(len(fractions)),
                   key=lambda g: (sizes[g] - quotas[g], g))
    for g in order[:leftover]:
        sizes[g] += 1
    return sizes


def split_by_score(scores, fractions, indices=None) -> list:
    """Partition sample indices into score-ordered groups.

    Samples sort by descending score, ties by ascending index; group g
    takes the next largest-remainder share. Highest-score group first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if indices is None:
        indices = np.arange(scores.size, dtype=np.int64)
    else:
        indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("empty score list")
    # lexsort: primary key -score, secondary key index
    order = indices[np.lexsort((indices, -scores[indices]))]
    sizes = largest_remainder_sizes(fractions, indices.size)
    groups, start = [], 0
    for size in sizes:
        groups.append(order[start:start + size])
        start += size
    return groups


def compression_ratio(b_avg: float) -> float:
    """Nominal payload saving vs 32-bit storage: 1 - b_avg/32."""
    if not 0.0 <= b_avg <= ORIGINAL_BITS:
        raise ValueError(f"b_avg must be in [0, {ORIGINAL_BITS}]")
    return 1.0 - b_avg / ORIGINAL_BITS


def allocate(scores, config: AllocationConfig, seed: int = 0,
             keep_indices=None) -> AllocationPlan:
    """Build a per-sample bit-width plan under the configured budget."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0:
        raise ValueError("empty score list")

    if keep_indices is not None:
        survivors = np.unique(np.asarray(keep_indices, dtype=np.int64))
        if survivors.size and (survivors[0] < 0 or survivors[-1] >= n):
            raise ValueError("keep-list index out of range")
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
        groups = split_by_score(scores, config.group_fractions, survivors)
        for group, bits in zip(groups, config.bit_levels):
            assignments[group] = bits
    return AllocationPlan.from_assignments(assignments)


def _plan_header(plan: AllocationPlan) -> list:
    return [str(len(plan)), f"{plan.b_avg:.9g}", f"{plan.compression_ratio:.9g}"]


def write_plan(plan: AllocationPlan, path) -> None:
    """Header `N b_avg ratio`, then one `index<TAB>bits` line per sample."""
    write_indexed(path, plan.assignments, "d", header=" ".join(_plan_header(plan)))


def read_plan(path) -> AllocationPlan:
    """Read a plan whose header is exactly what write_plan writes for
    its rows."""
    header, assignments = read_indexed(path, np.int64, header_fields=3)
    if header[0] != str(assignments.size):
        raise ValueError(f"{path}: expected {header[0]} assignments, "
                         f"found {assignments.size}")
    invalid = assignments[~is_valid_bit_width(assignments)]
    if invalid.size:
        raise ValueError(f"{path}: invalid bit width {invalid[0]}")
    plan = AllocationPlan.from_assignments(assignments)
    expected = _plan_header(plan)[1:]
    if header[1:] != expected:
        raise ValueError(f"{path}: header b_avg and ratio {' '.join(header[1:])} "
                         f"do not match the rows ({' '.join(expected)})")
    return plan


def read_keep_list(path) -> np.ndarray:
    """One surviving sample index per line."""
    _, rows = read_table(path, [("index", np.int64)])
    return np.unique(rows["index"])
