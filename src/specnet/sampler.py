"""Stratified dataset construction with near-uniform redshift distribution.

The redshift range is divided into equidistant intervals, a per-interval
quota is allocated by largest remainder, and a seeded shuffle picks the
quota from each interval. Shortfall in an interval is not redistributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogRecord, ObjectClass

SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class StratifiedPlan:
    n_intervals: int = 60
    z_min: float = 0.0
    z_max: float = 1.0
    target_total: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be < z_max")


@dataclass
class DatasetSplit:
    train: list[CatalogRecord] = field(default_factory=list)
    valid: list[CatalogRecord] = field(default_factory=list)
    test: list[CatalogRecord] = field(default_factory=list)
    shortfalls: list[str] = field(default_factory=list)

    def split(self, name: str) -> list[CatalogRecord]:
        return getattr(self, name)


def interval_quotas(target_total: int, n_intervals: int) -> list[int]:
    """Largest-remainder apportionment of target_total over equal intervals.

    Equal shares mean equal remainders; the extra units are spread evenly
    over the range (interval i gets one when (i+1)*extra//n > i*extra//n),
    so per-interval quotas differ by at most 1.
    """
    base, extra = divmod(target_total, n_intervals)
    return [
        base + (i + 1) * extra // n_intervals - i * extra // n_intervals
        for i in range(n_intervals)
    ]


def _interval_index(z: float, plan: StratifiedPlan) -> int:
    width = (plan.z_max - plan.z_min) / plan.n_intervals
    idx = int((z - plan.z_min) / width)
    # z == z_max belongs to the top interval
    return min(max(idx, 0), plan.n_intervals - 1)


def stratified_select(
    records: list[CatalogRecord], plan: StratifiedPlan
) -> list[CatalogRecord]:
    """Pick ~target_total records with a flat redshift histogram.

    Within an interval records are ordered by (z, plate, mjd, fiberid) and a
    shuffle seeded from (plan.seed, interval index) takes the quota. If the
    interval holds fewer records than its quota, all of them are taken.
    Output is sorted by z ascending.
    """
    if not records:
        raise ValueError("empty record list")
    if plan.target_total <= 0:
        raise ValueError("target_total must be positive")
    for r in records:
        if not (plan.z_min <= r.z <= plan.z_max):
            raise ValueError(f"record {r.ident} has z={r.z} outside the plan range")

    buckets: list[list[CatalogRecord]] = [[] for _ in range(plan.n_intervals)]
    for r in records:
        buckets[_interval_index(r.z, plan)].append(r)

    quotas = interval_quotas(plan.target_total, plan.n_intervals)
    picked: list[CatalogRecord] = []
    for idx, (bucket, quota) in enumerate(zip(buckets, quotas)):
        if quota == 0 or not bucket:
            continue
        bucket.sort(key=lambda r: (r.z, r.plate, r.mjd, r.fiberid))
        if len(bucket) <= quota:
            picked.extend(bucket)
            continue
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(plan.seed, spawn_key=(idx,)))
        )
        order = rng.permutation(len(bucket))[:quota]
        picked.extend(bucket[i] for i in sorted(order))
    picked.sort(key=lambda r: (r.z, r.plate, r.mjd, r.fiberid))
    return picked


def histogram(
    records: list[CatalogRecord], bin_width: float, z_min: float = 0.0
) -> list[tuple[float, int]]:
    """Counts per redshift bin; bins aligned to multiples of bin_width from z_min."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    counts: dict[int, int] = {}
    for r in records:
        k = int(np.floor((r.z - z_min) / bin_width))
        counts[k] = counts.get(k, 0) + 1
    return [(z_min + k * bin_width, counts[k]) for k in sorted(counts)]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Step CDF through sorted sample points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # jump positions, and the CDF value left of the first jump and at each
        object.__setattr__(self, "_zs", np.array([z for z, _ in self.points], dtype=float))
        object.__setattr__(self, "_steps", np.array([0.0] + [f for _, f in self.points]))

    def __call__(self, z):
        """CDF value at z, or values at each entry of an array z."""
        return self._steps[np.searchsorted(self._zs, z, side="right")]


def empirical_cdf(zs: list[float]) -> EmpiricalCdf:
    if len(zs) == 0:
        raise ValueError("empirical_cdf needs a non-empty sample")
    srt = np.sort(np.asarray(zs, dtype=float))
    n = len(srt)
    pts = []
    for i, z in enumerate(srt, start=1):
        if pts and pts[-1][0] == z:
            pts[-1] = (z, i / n)
        else:
            pts.append((z, i / n))
    return EmpiricalCdf(tuple(pts))


def ks_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Kolmogorov-Smirnov distance max |CDF_a - CDF_b| over all jump points."""
    xs = np.union1d(a._zs, b._zs)
    return float(np.abs(a(xs) - b(xs)).max())


def build_splits(
    per_class: dict[ObjectClass, list[CatalogRecord]],
    targets: dict[str, dict[ObjectClass, int]],
    n_intervals: int = 60,
    seed: int = 0,
) -> DatasetSplit:
    """Stratified selection per class per split, with disjoint splits.

    `targets` maps split name ('train'/'valid'/'test') to per-class sizes.
    Selected records are removed from the pool before the next split. If a
    target exceeds the remaining supply, everything available is taken and a
    shortfall note is recorded.
    """
    result = DatasetSplit()
    pools = {c: list(rs) for c, rs in per_class.items()}
    for split_idx, split_name in enumerate(SPLIT_NAMES):
        split_targets = targets.get(split_name, {})
        out = result.split(split_name)
        for cls, pool in pools.items():
            want = split_targets.get(cls, 0)
            if want < 0:
                raise ValueError("targets must be >= 0")
            if want == 0 or not pool:
                if want > 0:
                    result.shortfalls.append(
                        f"{split_name}/{cls.label}: wanted {want}, pool empty"
                    )
                continue
            zs = [r.z for r in pool]
            plan = StratifiedPlan(
                n_intervals=n_intervals,
                z_min=min(zs),
                z_max=max(zs) + 1e-12,
                target_total=want,
                seed=seed * 1000003 + split_idx * 101 + int(cls),
            )
            chosen = stratified_select(pool, plan)
            if len(chosen) < want:
                result.shortfalls.append(
                    f"{split_name}/{cls.label}: wanted {want}, got {len(chosen)}"
                )
            chosen_ids = {r.ident for r in chosen}
            pools[cls] = [r for r in pool if r.ident not in chosen_ids]
            out.extend(chosen)
    return result


def format_split_list(records: list[CatalogRecord]) -> str:
    """Split list text: '#PLATE MJD FIBERID CLASS REDSHIFT' header then rows."""
    lines = ["#PLATE\tMJD\tFIBERID\tCLASS\tREDSHIFT"]
    for r in records:
        lines.append(
            f"{r.plate}\t{r.mjd}\t{r.fiberid}\t{int(r.obj_class)}\t{r.z:.10f}"
        )
    return "\n".join(lines) + "\n"


def parse_split_list(text: str) -> list[tuple[int, int, int, ObjectClass, float]]:
    """Parse a split list back to (plate, mjd, fiberid, class, z) tuples."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(fields)}")
        plate, mjd, fiberid, code = (int(f) for f in fields[:4])
        rows.append((plate, mjd, fiberid, ObjectClass.from_code(code), float(fields[4])))
    return rows


def format_histogram(bins: list[tuple[float, int]]) -> str:
    return "".join(f"{edge:.6f}\t{count}\n" for edge, count in bins)


def format_cdf(cdf: EmpiricalCdf) -> str:
    return "".join(f"{z:.10f}\t{frac:.10f}\n" for z, frac in cdf.points)
