import numpy as np
import pytest
from hypothesis import given, strategies as st

from specnet.catalog import CatalogRecord, ObjectClass
from specnet import sampler
from specnet.sampler import (
    EmpiricalCdf,
    StratifiedPlan,
    build_splits,
    empirical_cdf,
    format_split_list,
    histogram,
    interval_quotas,
    ks_distance,
    parse_split_list,
    stratified_select,
)


def make_pool(zs, cls=ObjectClass.GALAXY, plate=100):
    return [
        CatalogRecord(plate, 55000, i + 1, 1, 0, cls, float(z))
        for i, z in enumerate(zs)
    ]


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=120))
def test_interval_quotas_partition(total, n):
    quotas = interval_quotas(total, n)
    assert sum(quotas) == total
    assert max(quotas) - min(quotas) <= 1
    # the extras are spread evenly: every run of k consecutive intervals
    # holds floor or ceil of k * extra / n of them
    extra = total % n
    extras = np.array(quotas) - total // n
    for k in range(1, n + 1):
        runs = np.convolve(extras, np.ones(k, dtype=int), mode="valid")
        assert runs.min() >= k * extra // n and runs.max() <= -(-k * extra // n)


def test_stratified_select_flat_quota():
    rng = np.random.default_rng(7)
    zs = np.sort(rng.uniform(0.0, 1.0, 600))
    plan = StratifiedPlan(n_intervals=10, z_min=0.0, z_max=1.0, target_total=100, seed=3)
    picked = stratified_select(make_pool(zs), plan)
    assert len(picked) == 100
    counts = np.histogram([r.z for r in picked], bins=10, range=(0.0, 1.0))[0]
    assert counts.max() - counts.min() <= 1
    # output sorted by redshift
    assert all(a.z <= b.z for a, b in zip(picked, picked[1:]))


def test_stratified_select_deterministic():
    zs = np.linspace(0.0, 1.0, 300)
    plan = StratifiedPlan(n_intervals=12, z_min=0.0, z_max=1.0, target_total=60, seed=9)
    a = stratified_select(make_pool(zs), plan)
    b = stratified_select(make_pool(zs), plan)
    assert a == b
    c = stratified_select(make_pool(zs), StratifiedPlan(12, 0.0, 1.0, 60, seed=10))
    assert c != a


def test_stratified_select_shortfall_not_redistributed():
    # 5 intervals, quota 4 each; middle interval has only 1 record
    zs = [0.05, 0.08, 0.12, 0.15, 0.22, 0.25, 0.28, 0.31, 0.45, 0.62,
          0.65, 0.68, 0.71, 0.85, 0.88, 0.91, 0.94]
    zs += [0.01, 0.03, 0.33, 0.35, 0.75, 0.78, 0.96, 0.98]
    plan = StratifiedPlan(n_intervals=5, z_min=0.0, z_max=1.0, target_total=20, seed=0)
    picked = stratified_select(make_pool(sorted(zs)), plan)
    in_middle = [r for r in picked if 0.4 <= r.z < 0.6]
    assert len(in_middle) == 1  # the lone record; no backfill from neighbors
    assert len(picked) < 20


def test_stratified_select_rejects_out_of_range():
    plan = StratifiedPlan(n_intervals=4, z_min=0.0, z_max=1.0, target_total=2)
    with pytest.raises(ValueError, match="outside"):
        stratified_select(make_pool([0.5, 1.5]), plan)


def test_histogram_alignment():
    pool = make_pool([0.05, 0.07, 0.12, 0.95])
    bins = histogram(pool, 0.1)
    assert bins == [(0.0, 2), (0.1, 1), (0.9, 1)]


def test_empirical_cdf_steps():
    cdf = empirical_cdf([0.3, 0.1, 0.3, 0.7])
    assert cdf(0.0) == 0.0
    assert cdf(0.1) == pytest.approx(0.25)
    assert cdf(0.3) == pytest.approx(0.75)
    assert cdf(1.0) == 1.0


def test_ks_distance_against_brute_force():
    rng = np.random.default_rng(0)
    a = empirical_cdf(list(rng.uniform(0, 1, 40)))
    b = empirical_cdf(list(rng.beta(2, 5, 50)))
    xs = np.linspace(-0.1, 1.1, 4001)
    brute = max(abs(a(x) - b(x)) for x in xs)
    assert ks_distance(a, b) == pytest.approx(brute, abs=1e-9)
    assert ks_distance(a, a) == 0.0


def test_ks_distance_equals_max_over_jump_points():
    rng = np.random.default_rng(4)
    # rounding makes ties within each sample and shared jumps between them
    a = empirical_cdf(list(np.round(rng.uniform(0, 1, 300), 2)))
    b = empirical_cdf(list(np.round(rng.beta(2, 5, 200), 2)))

    def step(cdf, x):
        below = [frac for z, frac in cdf.points if z <= x]
        return below[-1] if below else 0.0

    jumps = {z for z, _ in a.points} | {z for z, _ in b.points}
    brute = max(abs(step(a, x) - step(b, x)) for x in jumps)
    assert ks_distance(a, b) == brute
    assert ks_distance(b, a) == brute


def test_build_splits_disjoint_and_sized():
    rng = np.random.default_rng(1)
    per_class = {
        c: make_pool(rng.uniform(0, 1, 200), cls=c, plate=100 + int(c))
        for c in ObjectClass
    }
    targets = {
        "train": {c: 50 for c in ObjectClass},
        "valid": {c: 10 for c in ObjectClass},
        "test": {c: 20 for c in ObjectClass},
    }
    split = build_splits(per_class, targets, n_intervals=10, seed=5)
    assert len(split.train) == 150 and len(split.valid) == 30 and len(split.test) == 60
    ids = [r.ident for r in split.train + split.valid + split.test]
    assert len(ids) == len(set(ids))
    assert split.shortfalls == []


def test_build_splits_shortfall_noted():
    per_class = {ObjectClass.STAR: make_pool([0.1, 0.2, 0.3], cls=ObjectClass.STAR)}
    targets = {"train": {ObjectClass.STAR: 10}, "valid": {}, "test": {ObjectClass.STAR: 1}}
    split = build_splits(per_class, targets, n_intervals=2, seed=0)
    assert len(split.train) == 3
    assert any("wanted 10" in note for note in split.shortfalls)
    assert any(note.startswith("test/star") for note in split.shortfalls)


def test_split_list_format_and_round_trip():
    recs = make_pool([3.59926], cls=ObjectClass.QSO)
    text = format_split_list(recs)
    lines = text.splitlines()
    assert lines[0] == "#PLATE\tMJD\tFIBERID\tCLASS\tREDSHIFT"
    assert lines[1] == "100\t55000\t1\t1\t3.5992600000"
    rows = parse_split_list(text)
    assert rows == [(100, 55000, 1, ObjectClass.QSO, 3.59926)]


def test_parse_split_list_rejects_bad_row():
    with pytest.raises(ValueError, match="expected 5 columns"):
        parse_split_list("1\t2\t3\t0\n")


def test_format_helpers_shape():
    pool = make_pool([0.05, 0.15])
    hist_text = sampler.format_histogram(histogram(pool, 0.1))
    assert hist_text == "0.000000\t1\n0.100000\t1\n"
    cdf_text = sampler.format_cdf(empirical_cdf([0.5]))
    assert cdf_text == "0.5000000000\t1.0000000000\n"


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60)
)
def test_empirical_cdf_monotone_and_bounded(zs):
    cdf = empirical_cdf(zs)
    fracs = [p[1] for p in cdf.points]
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)
    assert isinstance(cdf, EmpiricalCdf)
