"""Reference implementations that tests compare the package against.

The model-equation oracles are straight-line numpy transcriptions of
the layer definitions, independent of the package implementation: plain
numpy on plain arrays, with no Tensor, no tape and no dropout (eval
mode).

Two oracles are built on the tape. `neighbor_sum_index_matmul` is the
INDEX + MATMUL pair the GAT's neighbor sum was before NEIGHBOR_SUM, a
whole [..., N, K, d] gather and one [1, K] @ [K, d] product per row, so
tests can pin NEIGHBOR_SUM's outputs and gradients bitwise against it.
`gcn_onehot` is the static GCN as it was before it gathered each row's
category mean: the pooled means multiplied back by an [N, C] one-hot
matrix. `sub_primitive` keeps the arithmetic of the SUB primitive that
`tz.sub` was before it became ADD of the operand times -1, and
`sigmoid_two_quotients` the sigmoid that divided twice and kept one
quotient per element.

The synthetic-market oracles build the generator's calendar, AR(1)
paths and compounded prices one day at a time, and `synthetic_loop` the
whole panel from them.

The row-based prediction consumers keep the earlier implementation of
`summarize`, `subgroup_metrics` and `run_backtest`, which walked a sorted
list of (date, instrument, score) rows, so tests can pin the date x
instrument grid versions bitwise against it. They correlate one
cross-section per call with the 1-D `pearson`, `average_ranks` and
`spearman` kept here, where the package stacks the cross-sections of one
size; they share `_ratio` with the package. `rebalance_dict` keeps the
earlier top-k dropout step on a dict of scores and a frozenset book,
sorting names, so the package's column-mask rebalance is checked against
code it does not share.

The row-based loaders at the end keep the earlier `load_panel` and
`PredictionSeries.read_csv`, which held every row of a file as a list of
strings before parsing it, and the cell parser they used, so tests can
pin the streaming readers against them. Each applies the fault rules
itself, over the whole file at once, and fills its grid itself.
"""

import csv
from datetime import date, timedelta
from types import SimpleNamespace

import numpy as np

from xsrank import tensor as tz
from xsrank.backtest import BacktestResult
from xsrank.data import (
    FACTOR_NAMES,
    FEATURE_PREFIX,
    PREDICTIONS_HEADER,
    PRICES_HEADER,
    SIGNAL_TAU,
    PanelDataset,
    _is_day,
    returns_from_prices,
)
from xsrank.errors import DataError
from xsrank.evaluate import MIN_SUBGROUP_SIZE, MetricReport, _ratio
from xsrank.graphs import topk_graph, unit_rows
from xsrank.tensor import Tensor


def leaky(x, slope=0.2):
    return np.where(x >= 0, x, slope * x)


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


def row_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cma_loop(x, window):
    """Textbook causal moving average: out[t] is the mean of the trailing
    min(t + 1, window) steps, each cell summed in ascending time."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        lo = max(0, t - window + 1)
        acc = x[lo].copy()
        for s in range(lo + 1, t + 1):
            acc += x[s]
        out[t] = acc / (t - lo + 1)
    return out


def decompose_loop(x, trend_window, fluct_window):
    trend = cma_loop(x, trend_window)
    fluct = cma_loop(x - trend, fluct_window)
    shock = x - trend - fluct
    return trend, fluct, shock


def kipf(adj):
    n = adj.shape[0]
    a = adj + np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return dinv[:, None] * a * dinv[None, :]


def gcn_np(x, adj, w, b):
    return kipf(adj) @ (x @ w) + b


def cosine_np(u):
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    unit = u / norms
    return unit @ unit.T


def topk_np(sim, k):
    """Directed k-NN rows, self excluded, ties broken toward lower index."""
    n = sim.shape[0]
    adj = np.zeros((n, n))
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-sim[i, j], j))
        for j in order[:k]:
            adj[i, j] = 1.0
    return adj


def knn_full(u, k):
    """The k-NN lists of [..., N, d] rows from the whole [..., N, N]
    similarity, one GEMM of their unit rows with themselves: the build
    before it took blocks of rows."""
    unit = unit_rows(u)
    return topk_graph(unit @ np.swapaxes(unit, -1, -2), k, 0)


def neighbor_lists(adj):
    """[N, N] adjacency -> [N, K] ascending column lists, -1 padded to the
    largest row."""
    rows = [np.flatnonzero(r) for r in adj]
    width = max((len(r) for r in rows), default=0)
    out = np.full((len(rows), width), -1, dtype=np.intp)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def adjacency(neighbors, n):
    """[N, K] column lists, -1 for padding -> [N, N] {0, 1} adjacency."""
    adj = np.zeros((n, n))
    for i, row in enumerate(neighbors):
        for j in row:
            if j >= 0:
                adj[i, j] = 1.0
    return adj


def sigmoid_masked(x):
    """The logistic function computed separately on each sign's half of x,
    through boolean-mask gathers: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_two_quotients(x):
    """The logistic function as both quotients 1 / (1 + e^-|x|) and
    e^-|x| / (1 + e^-|x|), the first kept where x >= 0."""
    ex = np.exp(-np.abs(x))
    den = 1.0 + ex
    return np.where(x >= 0, 1.0 / den, ex / den)


def gat_np(u, adj, w, a_src, a_dst, w_out, slope=0.2):
    wu = u @ w
    p = wu @ a_src
    q = wu @ a_dst
    e = leaky(p + q.T, slope)
    n = u.shape[0]
    alpha = np.zeros((n, n))
    for i in range(n):
        nb = adj[i] > 0
        m = e[i, nb].max()
        ex = np.exp(e[i, nb] - m)
        alpha[i, nb] = ex / ex.sum()
    z = leaky((alpha @ wu) @ w_out, slope)
    return z, alpha


def neighbor_sum_index_matmul(alpha, x, key):
    """tz.neighbor_sum as INDEX, MATMUL, INDEX: alpha [..., N, K] expanded
    to [..., N, 1, K], times the [..., N, K, d] rows x[key], squeezed."""
    rows = (slice(None),) * (alpha.ndim - 1)
    return tz.index(tz.matmul(tz.index(alpha, rows + (None,)), tz.index(x, key)), rows + (0,))


def gcn_onehot(x, codes, weight, bias):
    """graphs.gcn_layer as onehot @ (pool @ (x W)) + b on the tape: the
    [C, N] mean-pooling matrix of [N] codes, and the [N, C] one-hot
    membership matrix that copies each category's mean to its members."""
    cats, inverse = np.unique(codes, return_inverse=True)
    member = inverse == np.arange(len(cats))[:, None]  # [C, N]
    pool = Tensor(member / member.sum(axis=1, keepdims=True))
    onehot = Tensor(np.ascontiguousarray(member.T, dtype=np.float64))
    return tz.add(tz.matmul(onehot, tz.matmul(pool, tz.matmul(x, weight))), bias)


def sub_primitive(a, b, g):
    """The removed SUB primitive: a - b, and the cotangents of a and b
    for the output cotangent g."""
    return a - b, tz._unbroadcast(g, a.shape), tz._unbroadcast(-g, b.shape)


def union_np(*adjs):
    uni = np.zeros_like(adjs[0])
    for a in adjs:
        uni = np.logical_or(uni, a != 0)
    uni = uni.astype(np.float64)
    empty = uni.sum(axis=1) == 0
    uni[empty, empty] = 1.0
    return uni


def pspe_np(x_trend, ind_adj, reg_adj, p, slope, k):
    """Full trend branch. Returns intermediate values too for inspection."""
    x0 = layer_norm_rows(
        x_trend[-1] @ p["trend_proj_w"] + p["trend_proj_b"],
        p["trend_in_ln_g"],
        p["trend_in_ln_b"],
    )
    fwd_parts = []
    back_sum = np.zeros_like(x0)
    for rel, adj in (("ind", ind_adj), ("reg", reg_adj)):
        h = leaky(gcn_np(x0, adj, p[f"gcn_{rel}_w"], p[f"gcn_{rel}_b"]), slope)
        fwd_parts.append(leaky(h @ p[f"fwd_head_{rel}"], slope))
        back_sum = back_sum + h @ p[f"back_head_{rel}"]
    u = x0 - back_sum
    z_s = np.concatenate(fwd_parts, axis=1) @ p["static_mix_w"]
    u_tilde = leaky(u @ p["resid_proj_w"], slope)
    dyn_adj = topk_np(cosine_np(u_tilde), k)
    z_d, _ = gat_np(
        u_tilde, dyn_adj, p["gat_w"], p["gat_att_src"], p["gat_att_dst"],
        p["gat_out_w"], slope,
    )
    gate_h = leaky(
        np.concatenate([z_s, z_d], axis=1) @ p["gate_w1"] + p["gate_b1"], slope
    )
    gate = 1.0 / (1.0 + np.exp(-(gate_h @ p["gate_w2"] + p["gate_b2"])))
    z_trend = layer_norm_rows(
        z_s + gate * z_d, p["trend_out_ln_g"], p["trend_out_ln_b"]
    )
    return {
        "x0": x0, "u": u, "z_s": z_s, "z_d": z_d, "gate": gate,
        "dyn_adj": dyn_adj, "z_trend": z_trend,
    }


def gat_only_np(x_trend, ind_adj, reg_adj, p, slope):
    x0 = layer_norm_rows(
        x_trend[-1] @ p["trend_proj_w"] + p["trend_proj_b"],
        p["trend_in_ln_g"],
        p["trend_in_ln_b"],
    )
    uni = union_np(ind_adj, reg_adj)
    z, _ = gat_np(
        x0, uni, p["gat_w"], p["gat_att_src"], p["gat_att_dst"], p["gat_out_w"], slope
    )
    return layer_norm_rows(z, p["trend_out_ln_g"], p["trend_out_ln_b"]), uni


def causal_conv_np(h, w, b):
    t_len, n, _ = h.shape
    kernel = w.shape[0]
    out = np.zeros((t_len, n, w.shape[2])) + b
    for t in range(t_len):
        for j in range(kernel):
            if t - j >= 0:
                out[t] += h[t - j] @ w[j]
    return out


def fci_np(x_fluct, p):
    h = layer_norm_rows(
        x_fluct @ p["fluct_proj_w"] + p["fluct_proj_b"],
        p["fluct_ln_g"],
        p["fluct_ln_b"],
    )
    a = causal_conv_np(h, p["conv_p_w"], p["conv_p_b"])
    g = 1.0 / (1.0 + np.exp(-causal_conv_np(h, p["conv_q_w"], p["conv_q_b"])))
    r = causal_conv_np(h, p["conv_r_w"], p["conv_r_b"])
    z = np.maximum(a * g + r, 0.0)
    return z[-1]


def sci_np(x_shock, p, shock_window, slope):
    smoothed = cma_loop(x_shock, shock_window)
    x = layer_norm_rows(
        x_shock[-1] @ p["shock_proj_w"] + p["shock_proj_b"],
        p["shock_ln_g"],
        p["shock_ln_b"],
    )
    x_ref = layer_norm_rows(
        smoothed[-1] @ p["shock_proj_w"] + p["shock_proj_b"],
        p["shock_ln_g"],
        p["shock_ln_b"],
    )
    h = leaky(np.concatenate([x, x_ref], axis=1) @ p["shock_w1"], slope)
    return h @ p["shock_w2"]


def mlp_np(x_component, p, branch, slope):
    pre = {"fluct": ("fluct_proj", "fluct_ln", "fluct_mlp"),
           "shock": ("shock_proj", "shock_ln", "shock_mlp")}[branch]
    proj, ln, mlp = pre
    x = layer_norm_rows(
        x_component[-1] @ p[f"{proj}_w"] + p[f"{proj}_b"],
        p[f"{ln}_g"],
        p[f"{ln}_b"],
    )
    return leaky(x @ p[f"{mlp}_w"] + p[f"{mlp}_b"], slope)


def acf_np(z_trend, z_fluct, z_shock, p):
    comps = [z_trend, z_fluct, z_shock]
    cols = [
        np.tanh(z @ p["att_w1"] + p["att_b1"]) @ p["att_w2"] for z in comps
    ]
    scores = np.concatenate(cols, axis=1)
    alpha = row_softmax(scores)
    mixed = np.zeros_like(z_trend)
    for c, z in enumerate(comps):
        mixed = mixed + alpha[:, c: c + 1] * z
    y = (mixed @ p["out_w"])[:, 0]
    return y, alpha


def act_np(window, ind_adj, reg_adj, p, cfg):
    """Whole forward in eval mode. cfg is the config as a plain dict."""
    trend, fluct, shock = decompose_loop(
        window, cfg["trend_window"], cfg["fluct_window"]
    )
    slope = cfg["leaky_slope"]
    if cfg["pspe"] == "full":
        z_trend = pspe_np(trend, ind_adj, reg_adj, p, slope, cfg["knn"])["z_trend"]
    else:
        z_trend, _ = gat_only_np(trend, ind_adj, reg_adj, p, slope)
    if cfg["fci"] == "tcn":
        z_fluct = fci_np(fluct, p)
    else:
        z_fluct = mlp_np(fluct, p, "fluct", slope)
    if cfg["sci"] == "counterfactual":
        z_shock = sci_np(shock, p, cfg["shock_window"], slope)
    else:
        z_shock = mlp_np(shock, p, "shock", slope)
    return acf_np(z_trend, z_fluct, z_shock, p)


def membership_adjacency_loop(instruments, labels):
    """Clique adjacency by a double loop over instrument pairs."""
    n = len(instruments)
    adj = np.zeros((n, n))
    cats = [labels.get(inst) for inst in instruments]
    for i in range(n):
        if cats[i] is None:
            continue
        for j in range(i + 1, n):
            if cats[j] == cats[i]:
                adj[i, j] = adj[j, i] = 1.0
    return adj


def relation_adjacencies(graphs):
    """Dense (industry, region) clique adjacencies of a RelationGraphs,
    rebuilt from its membership labels by the double loop."""
    return tuple(
        membership_adjacency_loop(graphs.instruments, labels)
        for labels in (graphs.industry_labels, graphs.region_labels)
    )


def standardize_loop(features):
    """Per (date, feature) column: median-impute, then z-score in place."""
    feats = features.copy()
    d, n, f = feats.shape
    for ti in range(d):
        day = feats[ti]
        for fi in range(f):
            col = day[:, fi]
            bad = ~np.isfinite(col)
            if bad.all():
                col[:] = 0.0
                continue
            if bad.any():
                col[bad] = np.median(col[~bad])
            mu = col.mean()
            sd = col.std()
            col -= mu
            if sd > 0:
                col /= sd
    return feats


def trading_dates_loop(start, count):
    """`count` weekdays from the day `start` on, one calendar day at a time."""
    cur = date.fromisoformat(start)
    out = []
    while len(out) < count:
        if cur.weekday() < 5:
            out.append(cur.isoformat())
        cur += timedelta(days=1)
    return out


def ar1_loop(rng, n_paths, days, tau):
    """[n_paths, days] AR(1) paths, one day at a time: the starting values,
    then [n_paths, days] shocks, of which day 0's are unused."""
    rho = float(np.exp(-1.0 / tau))
    innov_scale = float(np.sqrt(1.0 - rho * rho))
    paths = np.empty((n_paths, days))
    paths[:, 0] = rng.standard_normal(n_paths)
    shocks = rng.standard_normal((n_paths, days))
    for t in range(1, days):
        paths[:, t] = rho * paths[:, t - 1] + innov_scale * shocks[:, t]
    return paths


def vwap_loop(base, returns):
    """Prices compounded one day at a time from `base`."""
    vwap = np.empty(returns.shape)
    vwap[0] = base
    for t in range(1, len(returns)):
        vwap[t] = vwap[t - 1] * (1.0 + returns[t - 1])
    return vwap


def synthetic_loop(cfg):
    """`generate_synthetic`'s panel and factors, built with the day-by-day
    loops above: the same draws, in the same order."""
    rng = np.random.default_rng(cfg.seed)
    n, f, d = cfg.n_instruments, cfg.n_features, cfg.days
    industry_of = np.arange(n) // cfg.block_size
    region_of = np.arange(n) % cfg.n_regions
    trend = ar1_loop(rng, (n + cfg.block_size - 1) // cfg.block_size, d, SIGNAL_TAU)
    region_factor = ar1_loop(rng, cfg.n_regions, d, SIGNAL_TAU)
    n_sig = min(3, f - 2)
    features = rng.standard_normal((d, n, f))
    features[:, :, f - 2] = region_factor[region_of].T + 0.3 * rng.standard_normal((d, n))
    features[:, :, f - 1] = (trend[industry_of].T + 0.5 * region_factor[region_of].T
                             + 0.3 * rng.standard_normal((d, n)))
    returns = features[:, :, :n_sig] @ np.array([0.006, 0.005, 0.004][:n_sig])
    returns += 0.012 * features[:, :, f - 1]
    returns -= 0.5 * 0.012 * features[:, :, f - 2]
    returns += cfg.noise * rng.standard_normal((d, n))
    vwap = vwap_loop(40.0 + 2.0 * np.arange(n), np.clip(returns, -0.5, 0.5))
    volume = rng.integers(100_000, 1_000_000, size=(d, n)).astype(np.float64)
    factors = {name: 0.01 * rng.standard_normal(d) for name in FACTOR_NAMES}
    return SimpleNamespace(dates=trading_dates_loop(cfg.start_date, d), features=features,
                           vwap=vwap, labels=returns_from_prices(vwap), volume=volume,
                           factors=factors)


def pearson(a, b):
    """Correlation, or None when either side has zero variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2:
        return None
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum()) * np.sqrt((db * db).sum())
    if denom == 0.0:
        return None
    return float((da * db).sum() / denom)


def average_ranks(x):
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new_group = np.empty(x.size, dtype=bool)
    new_group[:1] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], x.size) - 1
    group = np.cumsum(new_group) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = ((starts + ends) / 2.0 + 1.0)[group]
    return ranks


def spearman(a, b):
    """Pearson on average ranks; None when either side is all ties."""
    if np.asarray(a).size < 2:
        return None
    return pearson(average_ranks(a), average_ranks(b))


def _row_positions(rows, ds):
    date_index = {d: i for i, d in enumerate(ds.dates)}
    inst_index = {s: i for i, s in enumerate(ds.instruments)}
    t = np.array([date_index.get(d, -1) for d, _, _ in rows], dtype=np.intp)
    i = np.array([inst_index.get(s, -1) for _, s, _ in rows], dtype=np.intp)
    scores = np.array([s for _, _, s in rows], dtype=np.float64)
    return t, i, scores


def _report_rows(t, i, scores, ds):
    daily_ic = []
    daily_rank = []
    excluded = 0
    starts = np.flatnonzero(np.diff(t, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [t.size]):
        day, cols = t[lo], i[lo:hi]
        if not ds.observed_mask[day].any():
            continue  # no label to evaluate against, e.g. the final date
        actual = ds.labels[day, cols]
        joint = ds.observed_mask[day, cols] & np.isfinite(actual)
        if joint.sum() < 2:
            excluded += 1
            continue
        a = scores[lo:hi][joint]
        b = actual[joint]
        ic = pearson(a, b)
        rank = spearman(a, b)
        if ic is None or rank is None:
            excluded += 1
            continue
        daily_ic.append((ds.dates[day], ic))
        daily_rank.append((ds.dates[day], rank))
    if len(daily_ic) < 2:
        raise DataError(f"need at least 2 valid evaluation dates, got {len(daily_ic)}")
    flags = []
    ic_values = np.array([v for _, v in daily_ic])
    rank_values = np.array([v for _, v in daily_rank])
    return MetricReport(
        ic=float(ic_values.mean()),
        icir=_ratio(ic_values, "icir", flags),
        rank_ic=float(rank_values.mean()),
        rank_icir=_ratio(rank_values, "rank_icir", flags),
        daily_ic=daily_ic,
        daily_rank_ic=daily_rank,
        n_days=len(daily_ic),
        n_excluded_days=excluded,
        flags=flags,
    )


def _panel_rows(rows, ds):
    """Sorted rows and their panel positions and scores; the first row
    outside the panel, in (date, instrument) order, raises the DataError
    naming its date, or else its instrument."""
    rows = sorted(rows)
    t, i, scores = _row_positions(rows, ds)
    unknown = np.flatnonzero((t < 0) | (i < 0))
    if unknown.size:
        date, inst, _ = rows[unknown[0]]
        if t[unknown[0]] < 0:
            raise DataError(f"prediction date {date} not in the panel")
        raise DataError(f"prediction instrument {inst} not in the panel")
    return rows, t, i, scores


def summarize_rows(rows, ds):
    """`summarize` over (date, instrument, score) rows in any order."""
    _, t, i, scores = _panel_rows(rows, ds)
    return _report_rows(t, i, scores, ds)


def subgroup_metrics_rows(rows, ds, grouping):
    """`subgroup_metrics` over (date, instrument, score) rows in any order."""
    rows, t, i, scores = _panel_rows(rows, ds)
    categories = sorted(set(grouping.values()))
    code = {cat: k for k, cat in enumerate(categories)}
    row_cat = np.array([code.get(grouping.get(s), -1) for _, s, _ in rows],
                       dtype=np.intp)
    dates = sorted({d for d, _, _ in rows})
    date_pos = {d: k for k, d in enumerate(dates)}
    row_date = np.array([date_pos[d] for d, _, _ in rows], dtype=np.intp)
    # sizes are averaged over the dates with some observed label in the panel
    panel_date = {d: k for k, d in enumerate(ds.dates)}
    labelled = np.array([bool(ds.observed_mask[panel_date[d]].any()) for d in dates],
                        dtype=bool)
    observed = ds.observed_mask[t, i]
    order = np.argsort(row_cat, kind="stable")
    bounds = np.searchsorted(row_cat[order], np.arange(len(categories) + 1))
    out = {}
    for k, cat in enumerate(categories):
        members = order[bounds[k]: bounds[k + 1]]
        if not members.size:
            out[cat] = None
            continue
        counts = np.bincount(row_date[members][observed[members]],
                             minlength=len(dates))[labelled]
        if not counts.size or float(np.mean(counts)) < MIN_SUBGROUP_SIZE:
            out[cat] = None
            continue
        try:
            out[cat] = _report_rows(t[members], i[members], scores[members], ds)
        except DataError as exc:
            out[cat] = exc
    return out


def rebalance_dict(scores, holdings, cfg):
    """One rebalance step; returns (new holdings, trade record).

    The earlier `topk_dropout_rebalance`, on a {name: score} dict and a
    frozenset book. Held names without a score today rank below every
    scored name, so the dropout pushes them out first. Just-sold names
    sit in the same buy pool as everyone else and re-enter only on score
    merit. All ties break toward the lower instrument id.
    """
    target = min(cfg.k, len(scores))

    def held_rank(inst):
        if inst in scores:
            return (0, -scores[inst], inst)
        return (1, 0.0, inst)

    ranked = sorted(holdings, key=held_rank)
    n_sell = cfg.n_drop if len(holdings) >= target else max(
        0, cfg.n_drop - (target - len(holdings))
    )
    n_sell = min(n_sell, len(holdings))
    sold = ranked[len(ranked) - n_sell:] if n_sell else []
    kept = set(ranked[: len(ranked) - n_sell])

    pool = sorted(
        (i for i in scores if i not in kept),
        key=lambda i: (-scores[i], i),
    )
    bought = []
    for inst in pool:
        if len(kept) + len(bought) >= target:
            break
        bought.append(inst)
    new_holdings = frozenset(kept | set(bought))
    trade = {
        "sold": sorted(sold),
        "bought": sorted(bought),
        "under_capacity": target < cfg.k,
    }
    return new_holdings, trade


def run_backtest_rows(rows, ds, cfg):
    """`run_backtest` over rows in any order, with the default benchmark.

    Turnover counts every sold and every bought name, as the earlier
    implementation did, so it matches the package only where no name is
    sold and bought back on one day; the returns match at cost_bps=0.
    """
    rows, _, _, _ = _panel_rows(rows, ds)
    date_index = {d: i for i, d in enumerate(ds.dates)}
    inst_index = {s: i for i, s in enumerate(ds.instruments)}
    by_date = {}
    for d, i, s in rows:
        by_date.setdefault(d, {})[i] = s
    holdings = frozenset()
    dates_out, port_out, bench_out, turnover_out, ledger, flags = [], [], [], [], [], []
    for date in sorted(by_date):
        t = date_index[date]
        if t + 1 >= len(ds.dates):
            continue
        scores = by_date[date]
        holdings, trade = rebalance_dict(scores, holdings, cfg)
        if trade["under_capacity"]:
            flags.append(f"{date}: only {len(scores)} scored names, "
                         f"holding {len(holdings)}")
        ledger.append((date, tuple(sorted(holdings))))
        day_turnover = (len(trade["sold"]) + len(trade["bought"])) / cfg.k
        weight = 1.0 / len(holdings)
        ret = 0.0
        for inst in sorted(holdings):
            label = ds.labels[t, inst_index[inst]]
            if not np.isfinite(label):
                flags.append(f"{date}: no realized return for {inst}, frozen")
                continue
            ret += weight * label
        ret -= day_turnover * cfg.cost_bps / 1e4
        observed = ds.labels[t][np.isfinite(ds.labels[t])]
        if observed.size == 0:
            raise DataError(f"no realized returns on {date}")
        dates_out.append(ds.dates[t + 1])
        port_out.append(ret)
        bench_out.append(float(observed.mean()))
        turnover_out.append(day_turnover)
    if not dates_out:
        raise DataError("no scored date has a following return day")
    portfolio = np.array(port_out)
    bench_arr = np.array(bench_out)
    excess = portfolio - bench_arr
    return BacktestResult(
        dates=dates_out,
        portfolio=portfolio,
        benchmark=bench_arr,
        excess=excess,
        cum_excess=np.cumprod(1.0 + excess),
        turnover=np.array(turnover_out),
        holdings_ledger=ledger,
        flags=flags,
    )


def _first_ragged(rows, width: int) -> int:
    """Index of the first row without `width` columns, or len(rows)."""
    return next((k for k, row in enumerate(rows) if len(row) != width), len(rows))


def _parse_float(raw: str, path, lineno) -> float:
    try:
        return float(raw)
    except ValueError:
        pass
    raw = raw.strip()
    if raw == "" or raw.lower() == "nan":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: unparseable number {raw!r}") from None


def _parse_floats(cells, path, lineno_of):
    """Parse number cells in file order, each as `_parse_float` would.

    Returns the values of the cells before the first unparseable one and
    that cell's DataError, or None when all parse, so a caller can still
    report a fault on an earlier line first. `lineno_of(k)` is the line
    of cell k.
    """
    try:
        return np.array(list(map(float, cells)), dtype=np.float64), None
    except ValueError:
        pass
    values = []
    for k, raw in enumerate(cells):
        try:
            values.append(_parse_float(raw, path, lineno_of(k)))
        except DataError as exc:
            return np.array(values, dtype=np.float64), exc
    return np.array(values, dtype=np.float64), None


def _read_rows(path, expected_header):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if expected_header is not None and header != expected_header:
        raise DataError(
            f"{path}: header {header!r} does not match expected {expected_header!r}"
        )
    return header, rows


def _codes(column):
    names = sorted(set(column))
    pos = {name: k for k, name in enumerate(names)}
    return names, np.fromiter(map(pos.__getitem__, column), dtype=np.intp, count=len(column))


def read_predictions_rows(path):
    """`PredictionSeries.read_csv` over the whole file held as rows: the
    same faults, the earliest line's raised, and the grid filled one row
    at a time, with `dates`, `instruments` and `scores` as attributes."""
    _, raw = _read_rows(path, PREDICTIONS_HEADER)
    n_ok = _first_ragged(raw, 3)
    scores, error = _parse_floats([row[2] for row in raw[:n_ok]], path,
                                  lambda k: k + 2)
    parsed = raw[: len(scores)]
    bad_day = next((k for k, row in enumerate(parsed) if not _is_day(row[0])), len(parsed))
    if bad_day < len(parsed):
        error = DataError(f"{path}: line {bad_day + 2}: "
                          f"date {parsed[bad_day][0]!r} is not a YYYY-MM-DD day")
        parsed = parsed[:bad_day]
    seen = set()
    for k, (row, score) in enumerate(zip(parsed, scores.tolist())):
        if not np.isfinite(score):
            raise DataError(f"{path}: line {k + 2}: score is {row[2]!r}; "
                            f"give a finite number")
        if (row[0], row[1]) in seen:
            raise DataError(f"{path}: line {k + 2}: duplicate (date, instrument) pair")
        seen.add((row[0], row[1]))
    if error is not None:
        raise error
    if n_ok < len(raw):
        raise DataError(f"{path}: line {n_ok + 2}: expected 3 columns")
    dates = sorted({row[0] for row in parsed})
    instruments = sorted({row[1] for row in parsed})
    grid = np.full((len(dates), len(instruments)), np.nan)
    for row, score in zip(parsed, scores.tolist()):
        grid[dates.index(row[0]), instruments.index(row[1])] = score
    return SimpleNamespace(dates=dates, instruments=instruments, scores=grid)


def load_panel_rows(features_path, prices_path):
    """`load_panel` over both files held whole as rows: the same faults
    in the same order, each found over the whole file at once, and the
    price grid filled one row at a time."""
    header, rows = _read_rows(features_path, None)
    if len(header) < 3 or header[:2] != ["datetime", "instrument"]:
        raise DataError(f"{features_path}: header must start datetime,instrument")
    n_feat = len(header) - 2
    want = [f"{FEATURE_PREFIX}{i}" for i in range(n_feat)]
    if header[2:] != want:
        raise DataError(f"{features_path}: feature columns must be f0..f{n_feat - 1}")

    n_ok = _first_ragged(rows, 2 + n_feat)
    values, error = _parse_floats(
        [v for row in rows[:n_ok] for v in row[2:]], features_path,
        lambda k: k // n_feat + 2)
    parsed = rows[: len(values) // n_feat]
    dates, t = _codes([row[0] for row in parsed])
    instruments, i = _codes([row[1] for row in parsed])
    is_day = np.fromiter(map(_is_day, dates), dtype=bool, count=len(dates))
    bad_day = int(np.argmin(is_day[t])) if not is_day.all() else len(parsed)
    cells = values[: len(parsed) * n_feat]
    bad_cell = cells.size
    if cells.size and np.isinf([np.fmax.reduce(cells), np.fmin.reduce(cells)]).any():
        bad_cell = int(np.argmax(np.isinf(cells)))
    bad_row = bad_cell // n_feat
    _, first = np.unique(t * len(instruments) + i, return_index=True)
    if first.size < t.size:
        seen = np.zeros(t.size, dtype=bool)
        seen[first] = True
        dup = int(np.argmin(seen))
        if dup < min(bad_day, bad_row):
            raise DataError(f"{features_path}: line {dup + 2}: "
                            f"duplicate (date, instrument) pair")
    if bad_day < len(parsed) and bad_day <= bad_row:
        raise DataError(f"{features_path}: line {bad_day + 2}: "
                        f"date {parsed[bad_day][0]!r} is not a YYYY-MM-DD day")
    if bad_row < len(parsed):
        raise DataError(f"{features_path}: line {bad_row + 2}: feature "
                        f"{header[2 + bad_cell % n_feat]} is "
                        f"{parsed[bad_row][2 + bad_cell % n_feat]!r}; "
                        f"leave a missing value empty")
    if error is not None:
        raise error
    if n_ok < len(rows):
        raise DataError(
            f"{features_path}: line {n_ok + 2}: ragged row of {len(rows[n_ok])} columns"
        )
    if not rows:
        raise DataError(f"{features_path}: no data rows")

    rows_of = {(row[0], row[1]) for row in parsed}
    for day in dates:
        for name in instruments:
            if (day, name) not in rows_of:
                raise DataError(f"{features_path}: {name} has no row on {day}")
    features = np.empty((len(dates), len(instruments), n_feat))
    features[t, i] = values.reshape(-1, n_feat)

    _, price_rows = _read_rows(prices_path, PRICES_HEADER)
    n_ok = _first_ragged(price_rows, 4)
    # every well-formed row's datetime must be a day, in the universe or not
    bad_day = next((k for k in range(n_ok) if not _is_day(price_rows[k][0])), n_ok)
    date_pos = {d: k for k, d in enumerate(dates)}
    inst_pos = {s: k for k, s in enumerate(instruments)}
    bar_rows = [k for k in range(bad_day)
                if price_rows[k][0] in date_pos and price_rows[k][1] in inst_pos]
    values, error = _parse_floats(
        [v for k in bar_rows for v in price_rows[k][2:]], prices_path,
        lambda c: bar_rows[c // 2] + 2)
    bars = values[: len(values) // 2 * 2].reshape(-1, 2)
    bad = next((k for k, (price, volume) in enumerate(bars.tolist())
                if not (0 < price < np.inf and 0 < volume < np.inf)), len(bars))
    seen = set()
    for k in bar_rows[:bad]:
        pair = (price_rows[k][0], price_rows[k][1])
        if pair in seen:
            raise DataError(f"{prices_path}: line {k + 2}: duplicate (date, instrument) pair")
        seen.add(pair)
    if bad < len(bars):
        price, volume = bars[bad].tolist()
        at = f"{prices_path}: line {bar_rows[bad] + 2}"
        if np.isnan(bars[bad]).any():
            raise DataError(f"{at}: missing price/volume")
        if not 0 < price < np.inf:
            raise DataError(f"{at}: price {price!r} is not positive and finite")
        raise DataError(f"{at}: volume {volume!r} is not positive and finite")
    if error is not None:
        raise error
    if bad_day < n_ok:
        raise DataError(f"{prices_path}: line {bad_day + 2}: "
                        f"date {price_rows[bad_day][0]!r} is not a YYYY-MM-DD day")
    if n_ok < len(price_rows):
        raise DataError(f"{prices_path}: line {n_ok + 2}: expected 4 columns")
    if not bar_rows:
        raise DataError(f"{prices_path}: prices no (date, instrument) cell of {features_path}")

    vwap = np.full((len(dates), len(instruments)), np.nan)
    volume = np.full_like(vwap, np.nan)
    for k, (price, size) in zip(bar_rows, bars.tolist()):
        cell = date_pos[price_rows[k][0]], inst_pos[price_rows[k][1]]
        vwap[cell], volume[cell] = price, size
    labels = returns_from_prices(vwap)
    return PanelDataset(
        dates=dates, instruments=instruments, features=features, labels=labels,
        vwap=vwap, volume=volume,
    )
