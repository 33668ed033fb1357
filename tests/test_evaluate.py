import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from xsrank.data import PanelDataset, PredictionSeries, SynthConfig, generate_synthetic
from xsrank.errors import DataError
from xsrank.evaluate import (
    MetricReport,
    _correlations,
    average_ranks,
    pearson,
    subgroup_metrics,
    summarize,
    write_daily_metrics,
    write_metric_report,
)


def test_pearson_self_and_negation():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=12)
        assert abs(pearson(x, x) - 1.0) < 1e-12
        assert abs(pearson(x, -x) + 1.0) < 1e-12


def test_pearson_hand_example():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    # deviations (-2,-1,0,1,2) and (-1,-2,1,0,2): cross 8, norms 10 and 10
    assert abs(pearson(a, b) - 0.8) < 1e-15


def test_pearson_degenerate_returns_none():
    assert pearson(np.ones(5), np.arange(5.0)) is None
    assert pearson(np.arange(5.0), np.zeros(5)) is None
    assert pearson(np.array([1.0]), np.array([2.0])) is None


def test_average_ranks_with_ties():
    x = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
    assert np.array_equal(average_ranks(x), [4.0, 1.0, 2.5, 2.5, 5.0])


def test_average_ranks_brute_force():
    # oracle: rank = 1 + count(smaller) + (count(equal)-1)/2
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(0, 5, size=10).astype(float)
        got = average_ranks(x)
        for i in range(10):
            smaller = np.sum(x < x[i])
            equal = np.sum(x == x[i])
            assert got[i] == 1.0 + smaller + (equal - 1) / 2.0


def test_average_ranks_heavy_ties_brute_force():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 7, 64, 301):
        for levels in ([0.0], [0.0, -0.0, 1.0], [-2.0, 0.5, 0.5, 3.0]):
            x = rng.choice(levels, size=size)
            got = average_ranks(x)
            want = [1.0 + np.sum(x < v) + (np.sum(x == v) - 1) / 2.0 for v in x]
            assert np.array_equal(got, want)


def _rank_ic(a, b):
    """The rank IC `_correlations` gives one (a, b) cross-section."""
    return _correlations([(np.asarray(a), np.asarray(b))])[1][0]


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.normal(size=10)
        assert abs(_rank_ic(np.exp(3 * y), y) - 1.0) < 1e-12
        assert abs(_rank_ic(-y ** 3, y) + 1.0) < 1e-12


def test_spearman_tie_handling():
    a = np.array([1.0, 2.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0, 40.0])
    want = pearson(np.array([1.0, 2.5, 2.5, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert abs(_rank_ic(a, b) - want) < 1e-15
    assert np.isnan(_rank_ic([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def panel_from_labels(dates, instruments, labels):
    labels = np.asarray(labels, dtype=np.float64)
    d, n = labels.shape
    return PanelDataset(
        dates=list(dates),
        instruments=list(instruments),
        features=np.zeros((d, n, 1)),
        labels=labels,
        vwap=np.ones((d, n)),
        volume=np.ones((d, n)),
    )


def make_preds(dates, instruments, scores):
    rows = []
    for t, date in enumerate(dates):
        for i, inst in enumerate(instruments):
            if np.isfinite(scores[t][i]):
                rows.append((date, inst, float(scores[t][i])))
    return PredictionSeries(rows)


def _same_bits(got, want):
    """`got` (NaN for undefined) carries the bits of the 1-D result `want`
    (None for undefined)."""
    if want is None:
        return bool(np.isnan(got))
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _cross_sections(sizes, ties, seed):
    """Random (scores, labels) pairs of the given lengths, with tied and
    constant sides mixed in."""
    rng = np.random.default_rng(seed)
    pairs = []
    for m in sizes:
        a = (rng.integers(0, 3, m).astype(float) if ties and rng.random() < 0.5
             else rng.normal(size=m))
        b = rng.normal(0.0, 0.02, size=m)
        if rng.random() < 0.1:
            (a if rng.random() < 0.5 else b)[:] = 0.25
        pairs.append((a, b))
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(2, 40), min_size=1, max_size=30), ties=st.booleans(),
       seed=st.integers(0, 2**16))
def test_batched_correlations_equal_one_call_per_cross_section(sizes, ties, seed):
    pairs = _cross_sections(sizes, ties, seed)
    ic, rank = _correlations(pairs)
    for (a, b), got_ic, got_rank in zip(pairs, ic, rank):
        assert _same_bits(got_ic, oracle.pearson(a, b))
        assert _same_bits(got_rank, oracle.spearman(a, b))
        assert _same_bits(got_ic, pearson(a, b))


def test_batched_correlations_are_bitwise_for_every_size_to_800():
    pairs = _cross_sections([m for m in range(2, 801) for _ in range(2)], True, 8)
    ic, rank = _correlations(pairs)
    for (a, b), got_ic, got_rank in zip(pairs, ic, rank):
        assert _same_bits(got_ic, oracle.pearson(a, b))
        assert _same_bits(got_rank, oracle.spearman(a, b))
    assert _correlations([])[0].shape == (0,)


def test_summarize_perfect_scores():
    rng = np.random.default_rng(3)
    dates = [f"2020-01-{d:02d}" for d in range(1, 6)]
    instruments = [f"S{i}" for i in range(6)]
    labels = rng.normal(0, 0.02, size=(5, 6))
    preds = make_preds(dates, instruments, labels)
    report = summarize(preds, panel_from_labels(dates, instruments, labels))
    assert abs(report.ic - 1.0) < 1e-12
    assert abs(report.rank_ic - 1.0) < 1e-12
    assert report.n_days == 5
    assert report.n_excluded_days == 0


def test_summarize_identical_days_flag_infinite_ratio():
    # repeating the exact same cross-section gives bitwise-equal daily
    # ICs, so the sample std is 0 and the ratio becomes the sentinel
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    instruments = ["A", "B", "C", "D"]
    day_labels = np.array([0.02, -0.01, 0.03, -0.02])
    day_scores = [0.5, -1.0, 2.0, 0.1]
    labels = np.tile(day_labels, (3, 1))
    preds = make_preds(dates, instruments, [day_scores] * 3)
    report = summarize(preds, panel_from_labels(dates, instruments, labels))
    assert report.icir == float("inf")
    assert report.rank_icir == float("inf")
    assert "icir_undefined_zero_std" in report.flags
    assert "rank_icir_undefined_zero_std" in report.flags


def test_summarize_hand_arithmetic():
    # craft two days with IC exactly 0.0 and about 0.1
    dates = ["2020-01-01", "2020-01-02"]
    instruments = ["A", "B", "C", "D"]
    labels = np.array([[1.0, -1.0, -1.0, 1.0], [0.03, 0.01, -0.01, -0.03]]) * 0.01
    scores = [[1.0, 2.0, 3.0, 4.0], [0.03, -0.01, 0.01, -0.03]]
    preds = make_preds(dates, instruments, scores)
    report = summarize(preds, panel_from_labels(dates, instruments, labels))
    day1 = report.daily_ic[0][1]
    day2 = report.daily_ic[1][1]
    assert abs(day1 - 0.0) < 1e-12
    want_ic = (day1 + day2) / 2.0
    want_std = np.std([day1, day2], ddof=1)
    assert abs(report.ic - want_ic) < 1e-15
    assert abs(report.icir - want_ic / want_std) < 1e-12


def test_summarize_known_icir_values():
    # analytic check of the two-day example: ICs 0.0 and 0.1
    vals = np.array([0.0, 0.1])
    assert abs(vals.mean() - 0.05) < 1e-15
    assert abs(vals.std(ddof=1) - 0.07071067811865475) < 1e-15


def test_summarize_excludes_degenerate_days():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]
    instruments = ["A", "B", "C"]
    rng = np.random.default_rng(4)
    labels = rng.normal(0, 0.02, size=(4, 3))
    scores = [list(rng.normal(size=3)) for _ in range(4)]
    scores[1] = [0.5, 0.5, 0.5]  # constant scores: no variance
    preds = make_preds(dates, instruments, scores)
    ds = panel_from_labels(dates, instruments, labels)
    report = summarize(preds, ds)
    assert report.n_days == 3
    assert report.n_excluded_days == 1
    assert [d for d, _ in report.daily_ic] == [dates[0], dates[2], dates[3]]


def test_summarize_excludes_thin_days():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    instruments = ["A", "B", "C"]
    rng = np.random.default_rng(5)
    labels = rng.normal(0, 0.02, size=(3, 3))
    labels[1, 1:] = np.nan  # only one observed label that day
    preds = make_preds(dates, instruments, rng.normal(size=(3, 3)))
    report = summarize(preds, panel_from_labels(dates, instruments, labels))
    assert report.n_days == 2
    assert report.n_excluded_days == 1


def test_summarize_order_independent():
    rng = np.random.default_rng(6)
    dates = [f"2020-02-{d:02d}" for d in range(1, 6)]
    instruments = ["A", "B", "C", "D"]
    labels = rng.normal(0, 0.02, size=(5, 4))
    scores = rng.normal(size=(5, 4))
    preds = make_preds(dates, instruments, scores)
    shuffled = PredictionSeries(list(reversed(preds.rows)))
    ds = panel_from_labels(dates, instruments, labels)
    a = summarize(preds, ds)
    b = summarize(shuffled, ds)
    assert a == b


def test_summarize_needs_two_valid_dates():
    dates = ["2020-01-01", "2020-01-02"]
    instruments = ["A", "B"]
    labels = np.array([[0.01, -0.01], [np.nan, np.nan]])
    preds = make_preds(dates, instruments, [[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DataError):
        summarize(preds, panel_from_labels(dates, instruments, labels))


def test_summarize_rejects_unknown_keys():
    dates = ["2020-01-01", "2020-01-02"]
    instruments = ["A", "B"]
    labels = np.full((2, 2), 0.01)
    ds = panel_from_labels(dates, instruments, labels)
    with pytest.raises(DataError):
        summarize(PredictionSeries([("2021-01-01", "A", 1.0),
                                    ("2021-01-02", "A", 1.0)]), ds)
    with pytest.raises(DataError):
        summarize(PredictionSeries([("2020-01-01", "Z", 1.0),
                                    ("2020-01-02", "Z", 1.0)]), ds)


def test_subgroup_single_category_equals_global():
    rng = np.random.default_rng(7)
    dates = [f"2020-03-{d:02d}" for d in range(1, 7)]
    instruments = [f"S{i}" for i in range(6)]
    labels = rng.normal(0, 0.02, size=(6, 6))
    preds = make_preds(dates, instruments, rng.normal(size=(6, 6)))
    ds = panel_from_labels(dates, instruments, labels)
    grouping = {i: "ALL" for i in instruments}
    out = subgroup_metrics(preds, ds, grouping)
    assert out["ALL"] == summarize(preds, ds)


def test_subgroup_small_category_absent():
    rng = np.random.default_rng(8)
    dates = [f"2020-04-{d:02d}" for d in range(1, 6)]
    instruments = [f"S{i}" for i in range(8)]
    labels = rng.normal(0, 0.02, size=(5, 8))
    preds = make_preds(dates, instruments, rng.normal(size=(5, 8)))
    ds = panel_from_labels(dates, instruments, labels)
    grouping = {i: ("BIG" if k < 5 else "TINY") for k, i in enumerate(instruments)}
    out = subgroup_metrics(preds, ds, grouping)
    assert out["TINY"] is None
    assert out["BIG"] is not None


def test_subgroup_disjoint_matches_filtered_summarize():
    rng = np.random.default_rng(9)
    dates = [f"2020-05-{d:02d}" for d in range(1, 8)]
    instruments = [f"S{i}" for i in range(12)]
    labels = rng.normal(0, 0.02, size=(7, 12))
    preds = make_preds(dates, instruments, rng.normal(size=(7, 12)))
    ds = panel_from_labels(dates, instruments, labels)
    grouping = {i: ("EAST" if k % 2 == 0 else "WEST")
                for k, i in enumerate(instruments)}
    out = subgroup_metrics(preds, ds, grouping)
    for cat in ("EAST", "WEST"):
        members = {i for i, c in grouping.items() if c == cat}
        filtered = PredictionSeries(
            [(d, i, s) for d, i, s in preds.rows if i in members]
        )
        assert out[cat] == summarize(filtered, ds)


def test_metric_report_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    dates = [f"2020-06-{d:02d}" for d in range(1, 6)]
    instruments = [f"S{i}" for i in range(6)]
    labels = rng.normal(0, 0.02, size=(5, 6))
    preds = make_preds(dates, instruments, rng.normal(size=(5, 6)))
    report = summarize(preds, panel_from_labels(dates, instruments, labels))

    mpath = tmp_path / "metrics.csv"
    write_metric_report(report, mpath)
    lines = mpath.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("ic,")
    assert float(lines[1].split(",")[1]) == report.ic

    dpath = tmp_path / "daily.csv"
    write_daily_metrics(report, dpath)
    dlines = dpath.read_text().splitlines()
    assert dlines[0] == "datetime,ic,rank_ic"
    assert len(dlines) == 1 + report.n_days
    first = dlines[1].split(",")
    assert first[0] == dates[0]
    assert float(first[1]) == report.daily_ic[0][1]


def test_metric_report_inf_serialization(tmp_path):
    report = MetricReport(
        ic=0.5, icir=float("inf"), rank_ic=0.5, rank_icir=float("inf"),
        daily_ic=[("2020-01-01", 0.5), ("2020-01-02", 0.5)],
        daily_rank_ic=[("2020-01-01", 0.5), ("2020-01-02", 0.5)],
        n_days=2, flags=["icir_undefined_zero_std"],
    )
    path = tmp_path / "m.csv"
    write_metric_report(report, path)
    text = path.read_text()
    assert "icir,inf" in text
    assert "flag,icir_undefined_zero_std" in text


def test_subgroup_size_skips_the_unlabelled_final_date():
    # predict_sliding scores the final panel date, which never has a label;
    # averaging it in would thin every 5-stock industry below the minimum
    ds, graphs, _ = generate_synthetic(
        SynthConfig(n_instruments=30, days=40, block_size=5, seed=5))
    assert not ds.observed_mask[-1].any()
    rng = np.random.default_rng(5)
    dates = ds.dates[10:]
    preds = make_preds(dates, ds.instruments,
                       rng.normal(size=(len(dates), len(ds.instruments))))
    without_final = PredictionSeries([r for r in preds.rows if r[0] != dates[-1]])
    grouping = graphs.industry_labels
    out = subgroup_metrics(preds, ds, grouping)
    assert len(out) == 6
    assert all(report is not None for report in out.values())
    ref = subgroup_metrics(without_final, ds, grouping)
    # the final date has no label to evaluate against, so it is not an
    # excluded day either
    assert out == ref


def test_summarize_skips_the_unlabelled_final_date():
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=12, days=30, seed=6))
    assert not ds.observed_mask[-1].any()
    rng = np.random.default_rng(6)
    dates = ds.dates[5:]
    preds = make_preds(dates, ds.instruments,
                       rng.normal(size=(len(dates), len(ds.instruments))))
    without_final = PredictionSeries([r for r in preds.rows if r[0] != dates[-1]])
    report = summarize(preds, ds)
    assert report == summarize(without_final, ds)
    assert report.n_excluded_days == 0
