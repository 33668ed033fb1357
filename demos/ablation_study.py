"""Component switches, measured.

Trains the same panel four times: the full model, then each of the
three branches swapped for its plain replacement, as the CLI's
`--pspe gat_only`, `--fci mlp` and `--sci mlp` do: trend purification
for a plain GAT on the union relation graph, and the fluctuation TCN
and the shock counterfactual for per-stock MLPs. Prints the out-of-sample IC
per variant so the contribution of each branch is visible directly.
"""

from dataclasses import replace

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

VARIANTS = [
    ("full", {}),
    ("trend -> plain GAT", {"pspe": "gat_only"}),
    ("fluctuation -> MLP", {"fci": "mlp"}),
    ("shock -> MLP", {"sci": "mlp"}),
]


def main():
    ds, graphs, _ = generate_synthetic(
        SynthConfig(n_instruments=16, n_features=6, days=200, seed=7))
    ds = standardize_features(ds)
    base = ActConfig(n_features=ds.n_features, window=10, hidden=16, knn=5)
    settings = TrainSettings(valid_start=ds.dates[130],
                             test_start=ds.dates[160],
                             epochs=8, patience=4, seed=0)

    print(f"{'variant':<22}{'ic':>9}{'rank_ic':>9}")
    for label, overrides in VARIANTS:
        cfg = replace(base, **overrides)
        model, _ = train(ds, graphs, cfg, settings)
        preds = predict_sliding(model, ds, graphs,
                                start_date=settings.test_start)
        report = summarize(preds, ds)
        print(f"{label:<22}{report.ic:>9.4f}{report.rank_ic:>9.4f}")


if __name__ == "__main__":
    main()
