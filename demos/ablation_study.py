"""Component switches, measured.

Trains the same panel four times: the full model, then each of the
three branches swapped for its plain replacement, as the CLI's
`--pspe gat_only`, `--fci mlp` and `--sci mlp` do: trend purification
for a plain GAT on the union relation graph, and the fluctuation TCN
and the shock counterfactual for per-stock MLPs. Prints the out-of-sample IC
per variant, and beside each variant's the mean of its daily IC minus the
full model's on the days both scored, with that difference's Newey-West t
statistic (5 lags), so that a gap within noise reads as one.
"""

from dataclasses import replace

import numpy as np

from xsrank import (
    ActConfig,
    SynthConfig,
    TrainSettings,
    generate_synthetic,
    predict_sliding,
    standardize_features,
    summarize,
    train,
)
from xsrank.factor_reg import newey_west_se

LAGS = 5

VARIANTS = [
    ("full", {}),
    ("trend -> plain GAT", {"pspe": "gat_only"}),
    ("fluctuation -> MLP", {"fci": "mlp"}),
    ("shock -> MLP", {"sci": "mlp"}),
]


def paired_difference(report, base) -> tuple[float, float]:
    """Mean daily IC of `report` minus `base` over the days both scored,
    and its Newey-West t: the mean over its HAC standard error, from a
    regression of the differences on a constant."""
    base_ic = dict(base.daily_ic)
    diff = np.array([ic - base_ic[day] for day, ic in report.daily_ic if day in base_ic])
    mean = float(diff.mean())
    se = newey_west_se(np.ones((diff.size, 1)), diff - mean, lags=LAGS)[0]
    return mean, mean / se


def main():
    ds, graphs, _ = generate_synthetic(
        SynthConfig(n_instruments=16, n_features=6, days=200, seed=7))
    ds = standardize_features(ds)
    base = ActConfig(n_features=ds.n_features, window=10, hidden=16, knn=5)
    settings = TrainSettings(valid_start=ds.dates[130],
                             test_start=ds.dates[160],
                             epochs=8, patience=4, seed=0)

    print(f"{'variant':<22}{'ic':>9}{'rank_ic':>9}{'d_ic':>9}{'t_nw':>9}")
    full = None
    for label, overrides in VARIANTS:
        cfg = replace(base, **overrides)
        model, _ = train(ds, graphs, cfg, settings)
        preds = predict_sliding(model, ds, graphs,
                                start_date=settings.test_start)
        report = summarize(preds, ds)
        line = f"{label:<22}{report.ic:>9.4f}{report.rank_ic:>9.4f}"
        if full is None:
            full = report
        else:
            diff, t = paired_difference(report, full)
            line += f"{diff:>9.4f}{t:>9.2f}"
        print(line)


if __name__ == "__main__":
    main()
