"""Cross-sectional ranking model over decomposed temporal components.

The forward pass splits each lookback window into trend, fluctuation,
and shock components, routes them through three branch encoders, and
fuses the branch embeddings with per-stock softmax attention into one
score per instrument.

Branches:
  trend  -- relation purification: per-relation GCN heads subtract the
            statically-explained part, a dynamic cosine k-NN GAT encodes
            the residual, and a sigmoid gate merges static and dynamic
            paths ("full"), or a plain GAT on the union relation graph
            ("gat_only");
  fluct  -- gated causal temporal convolution ("tcn") or a one-layer
            per-stock MLP ("mlp");
  shock  -- comparison of the latest shock against its own smoothed
            buffer ("counterfactual") or the same MLP fallback ("mlp").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as tz
from .decompose import causal_moving_average, decompose
from .errors import ConfigError, DataError, NonFiniteError
from .graphs import (
    RelationGraphs,
    cosine_similarity_matrix,
    gat_layer,
    gcn_layer,
    topk_graph,
    union_graph,
)
from .tensor import Tensor

CHECKPOINT_VERSION = 1

PSPE_MODES = ("full", "gat_only")
FCI_MODES = ("tcn", "mlp")
SCI_MODES = ("counterfactual", "mlp")


@dataclass
class ActConfig:
    """Hyperparameters; `pspe`/`fci`/`sci` select branch variants."""

    n_features: int
    window: int
    hidden: int = 64
    trend_window: int = 20
    fluct_window: int = 5
    shock_window: int = 5
    knn: int = 10
    dropout_rate: float = 0.1
    loss_mix: float = 0.1
    leaky_slope: float = 0.2
    tcn_kernel: int = 3
    pspe: str = "full"
    fci: str = "tcn"
    sci: str = "counterfactual"

    def __post_init__(self):
        if self.n_features < 1 or self.window < 1:
            raise ConfigError("n_features and window must be >= 1")
        if self.hidden < 1:
            raise ConfigError("hidden size must be >= 1")
        for name in ("trend_window", "fluct_window", "shock_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.knn < 1:
            raise ConfigError("knn must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if not 0.0 <= self.loss_mix <= 1.0:
            raise ConfigError("loss_mix must be in [0, 1]")
        if self.tcn_kernel < 1:
            raise ConfigError("tcn_kernel must be >= 1")
        if self.pspe not in PSPE_MODES:
            raise ConfigError(f"pspe must be one of {PSPE_MODES}")
        if self.fci not in FCI_MODES:
            raise ConfigError(f"fci must be one of {FCI_MODES}")
        if self.sci not in SCI_MODES:
            raise ConfigError(f"sci must be one of {SCI_MODES}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ActConfig":
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad config fields: {exc}") from exc


def parameter_spec(cfg: ActConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map; a pure function of the config."""
    f, d, k = cfg.n_features, cfg.hidden, cfg.tcn_kernel
    spec: dict[str, tuple[int, ...]] = {}

    spec["trend_proj_w"] = (f, d)
    spec["trend_proj_b"] = (d,)
    spec["trend_in_ln_g"] = (d,)
    spec["trend_in_ln_b"] = (d,)
    if cfg.pspe == "full":
        for rel in ("ind", "reg"):
            spec[f"gcn_{rel}_w"] = (d, d)
            spec[f"gcn_{rel}_b"] = (d,)
            spec[f"fwd_head_{rel}"] = (d, d)
            spec[f"back_head_{rel}"] = (d, d)
        spec["static_mix_w"] = (2 * d, d)
        spec["resid_proj_w"] = (d, d)
    spec["gat_w"] = (d, d)
    spec["gat_att_src"] = (d, 1)
    spec["gat_att_dst"] = (d, 1)
    spec["gat_out_w"] = (d, d)
    if cfg.pspe == "full":
        spec["gate_w1"] = (2 * d, d)
        spec["gate_b1"] = (d,)
        spec["gate_w2"] = (d, d)
        spec["gate_b2"] = (d,)
    spec["trend_out_ln_g"] = (d,)
    spec["trend_out_ln_b"] = (d,)

    spec["fluct_proj_w"] = (f, d)
    spec["fluct_proj_b"] = (d,)
    spec["fluct_ln_g"] = (d,)
    spec["fluct_ln_b"] = (d,)
    if cfg.fci == "tcn":
        for name in ("p", "q", "r"):
            spec[f"conv_{name}_w"] = (k, d, d)
            spec[f"conv_{name}_b"] = (d,)
    else:
        spec["fluct_mlp_w"] = (d, d)
        spec["fluct_mlp_b"] = (d,)

    spec["shock_proj_w"] = (f, d)
    spec["shock_proj_b"] = (d,)
    spec["shock_ln_g"] = (d,)
    spec["shock_ln_b"] = (d,)
    if cfg.sci == "counterfactual":
        spec["shock_w1"] = (2 * d, d)
        spec["shock_w2"] = (d, d)
    else:
        spec["shock_mlp_w"] = (d, d)
        spec["shock_mlp_b"] = (d,)

    spec["att_w1"] = (d, d)
    spec["att_b1"] = (d,)
    spec["att_w2"] = (d, 1)
    spec["out_w"] = (d, 1)
    return spec


def parameter_count(cfg: ActConfig) -> int:
    return sum(int(np.prod(shape)) for shape in parameter_spec(cfg).values())


def _init_value(name: str, shape: tuple[int, ...], rng) -> np.ndarray:
    if name.endswith("_ln_g"):
        return np.ones(shape)
    if name.endswith(("_b", "_ln_b")):
        return np.zeros(shape)
    fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[:-1]))
    return rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), size=shape)


class ActModel:
    """Learnable parameters plus the dropout RNG for one model instance."""

    def __init__(self, cfg: ActConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.params: dict[str, Tensor] = {
            name: Tensor(_init_value(name, shape, rng))
            for name, shape in parameter_spec(cfg).items()
        }
        self.dropout_rng = np.random.default_rng(self.seed + 1)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def reseed_dropout(self, seed: int) -> None:
        self.dropout_rng = np.random.default_rng(seed)

    def parameter_count(self) -> int:
        return parameter_count(self.cfg)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        spec = parameter_spec(self.cfg)
        if set(state) != set(spec):
            missing = set(spec) - set(state)
            extra = set(state) - set(spec)
            raise ConfigError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in state.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != spec[name]:
                raise ConfigError(f"param {name}: shape {arr.shape} != {spec[name]}")
            self.params[name] = Tensor(arr.copy())


# ---------------------------------------------------------------------------
# branch forwards
# ---------------------------------------------------------------------------


def _proj_ln(x_last: np.ndarray, model: ActModel, prefix: str, ln_prefix: str) -> Tensor:
    h = tz.add(tz.matmul(Tensor(x_last), model[f"{prefix}_w"]), model[f"{prefix}_b"])
    return tz.layer_norm(h, model[f"{ln_prefix}_g"], model[f"{ln_prefix}_b"])


def pspe_forward(
    x_trend: np.ndarray,
    graphs: RelationGraphs,
    model: ActModel,
    cfg: ActConfig,
):
    """Relation-purified trend embedding (the "full" variant).

    Returns (z_trend, dynamic_graph, gate_mean).
    """
    if cfg.pspe != "full":
        raise ConfigError("pspe_forward requires the full trend branch")
    slope = cfg.leaky_slope
    x0 = _proj_ln(x_trend[-1], model, "trend_proj", "trend_in_ln")

    backs = []
    fwds = []
    for rel, adj in (("ind", graphs.industry), ("reg", graphs.region)):
        h = tz.leaky_relu(
            gcn_layer(x0, adj, model[f"gcn_{rel}_w"], model[f"gcn_{rel}_b"]), slope
        )
        fwds.append(tz.leaky_relu(tz.matmul(h, model[f"fwd_head_{rel}"]), slope))
        backs.append(tz.matmul(h, model[f"back_head_{rel}"]))

    u = tz.sub(tz.sub(x0, backs[0]), backs[1])
    z_s = tz.matmul(tz.concat_last(fwds), model["static_mix_w"])
    u_tilde = tz.leaky_relu(tz.matmul(u, model["resid_proj_w"]), slope)

    # hard TopK selection: detached, no gradient through construction
    dyn = topk_graph(cosine_similarity_matrix(u_tilde.data), cfg.knn)
    z_d = gat_layer(
        u_tilde,
        dyn.adjacency,
        model["gat_w"],
        model["gat_att_src"],
        model["gat_att_dst"],
        model["gat_out_w"],
        slope=slope,
    )

    gate_h = tz.leaky_relu(
        tz.add(tz.matmul(tz.concat_last([z_s, z_d]), model["gate_w1"]), model["gate_b1"]),
        slope,
    )
    gate = tz.sigmoid(tz.add(tz.matmul(gate_h, model["gate_w2"]), model["gate_b2"]))
    z_trend = tz.layer_norm(
        tz.add(z_s, tz.mul(gate, z_d)),
        model["trend_out_ln_g"],
        model["trend_out_ln_b"],
    )
    return z_trend, dyn, float(gate.data.mean())


def pspe_ablation_forward(
    x_trend: np.ndarray,
    graphs: RelationGraphs,
    model: ActModel,
    cfg: ActConfig,
):
    """Plain GAT on the OR-union of the static relations (no purification)."""
    if cfg.pspe != "gat_only":
        raise ConfigError("pspe_ablation_forward requires pspe == gat_only")
    x0 = _proj_ln(x_trend[-1], model, "trend_proj", "trend_in_ln")
    union = union_graph(graphs.industry, graphs.region)
    z = gat_layer(
        x0,
        union,
        model["gat_w"],
        model["gat_att_src"],
        model["gat_att_dst"],
        model["gat_out_w"],
        slope=cfg.leaky_slope,
    )
    z_trend = tz.layer_norm(z, model["trend_out_ln_g"], model["trend_out_ln_b"])
    return z_trend, union


def fci_forward(
    x_fluct: np.ndarray,
    model: ActModel,
    cfg: ActConfig,
    training: bool = False,
) -> Tensor:
    """Gated causal convolution over the fluctuation sequence.

    Per-stock independent: every op acts along time/channels only.
    Only the last step's output is returned, and it depends only on the
    last `tcn_kernel` fluctuation steps: the projection and layer norm
    act step by step and the causal conv looks back K-1 steps. So the
    branch runs on those steps alone, and dropout applies to the
    returned [N, d] row.
    """
    if cfg.fci != "tcn":
        raise ConfigError("fci_forward requires fci == tcn")
    x_recent = x_fluct[-cfg.tcn_kernel:]
    h = tz.add(tz.matmul(Tensor(x_recent), model["fluct_proj_w"]), model["fluct_proj_b"])
    h = tz.layer_norm(h, model["fluct_ln_g"], model["fluct_ln_b"])
    p = tz.causal_conv1d(h, model["conv_p_w"], model["conv_p_b"])
    q = tz.sigmoid(tz.causal_conv1d(h, model["conv_q_w"], model["conv_q_b"]))
    r = tz.causal_conv1d(h, model["conv_r_w"], model["conv_r_b"])
    z = tz.gather_row(tz.relu(tz.add(tz.mul(p, q), r)), -1)
    return tz.dropout(z, cfg.dropout_rate, training=training, rng=model.dropout_rng)


def sci_forward(
    x_shock: np.ndarray,
    model: ActModel,
    cfg: ActConfig,
    training: bool = False,
) -> Tensor:
    """Latest shock vs its own smoothed buffer, through a two-layer MLP."""
    if cfg.sci != "counterfactual":
        raise ConfigError("sci_forward requires sci == counterfactual")
    smoothed = causal_moving_average(x_shock, cfg.shock_window)
    x = _proj_ln(x_shock[-1], model, "shock_proj", "shock_ln")
    x_ref = _proj_ln(smoothed[-1], model, "shock_proj", "shock_ln")
    h = tz.leaky_relu(
        tz.matmul(tz.concat_last([x, x_ref]), model["shock_w1"]), cfg.leaky_slope
    )
    h = tz.dropout(h, cfg.dropout_rate, training=training, rng=model.dropout_rng)
    return tz.matmul(h, model["shock_w2"])


def mlp_isolation_forward(
    x_component: np.ndarray,
    model: ActModel,
    cfg: ActConfig,
    branch: str,
) -> Tensor:
    """One-layer per-stock MLP on the component's final step (ablations)."""
    if branch == "fluct":
        if cfg.fci != "mlp":
            raise ConfigError("fluct MLP requires fci == mlp")
        prefix, ln_prefix, w, b = "fluct_proj", "fluct_ln", "fluct_mlp_w", "fluct_mlp_b"
    elif branch == "shock":
        if cfg.sci != "mlp":
            raise ConfigError("shock MLP requires sci == mlp")
        prefix, ln_prefix, w, b = "shock_proj", "shock_ln", "shock_mlp_w", "shock_mlp_b"
    else:
        raise ConfigError(f"unknown MLP branch {branch!r}")
    x = _proj_ln(x_component[-1], model, prefix, ln_prefix)
    return tz.leaky_relu(tz.add(tz.matmul(x, model[w]), model[b]), cfg.leaky_slope)


_SELECTORS = [np.eye(3)[:, i: i + 1] for i in range(3)]


def acf_forward(z_trend: Tensor, z_fluct: Tensor, z_shock: Tensor, model: ActModel):
    """Per-stock softmax attention over the three component embeddings.

    Returns (y_hat [N], alpha [N, 3]).
    """
    comps = [z_trend, z_fluct, z_shock]
    scores = tz.concat_last(
        [
            tz.matmul(
                tz.tanh(tz.add(tz.matmul(z, model["att_w1"]), model["att_b1"])),
                model["att_w2"],
            )
            for z in comps
        ]
    )
    alpha = tz.softmax(scores, axis=1)
    mixed = None
    for sel, z in zip(_SELECTORS, comps):
        term = tz.mul(tz.matmul(alpha, Tensor(sel)), z)
        mixed = term if mixed is None else tz.add(mixed, term)
    y_col = tz.matmul(mixed, model["out_w"])
    n = y_col.shape[0]
    y_hat = tz.masked_select(y_col, np.ones((n, 1), dtype=bool))
    return y_hat, alpha


def act_forward(
    window: np.ndarray,
    graphs: RelationGraphs,
    model: ActModel,
    training: bool = False,
):
    """Full forward pass for one lookback window.

    Returns (y_hat [N] on the active tape, diagnostics dict with the
    fusion weights, dynamic-graph adjacency, and mean gate opening).
    """
    cfg = model.cfg
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 3:
        raise DataError(f"window must be [T, N, F], got {window.shape}")
    if window.shape[0] != cfg.window or window.shape[2] != cfg.n_features:
        raise DataError(
            f"window shape {window.shape} disagrees with config "
            f"(T={cfg.window}, F={cfg.n_features})"
        )
    if window.shape[1] != len(graphs.instruments):
        raise DataError("window and relation graphs disagree on N")
    if not np.isfinite(window).all():
        raise NonFiniteError("window contains NaN or Inf; standardize first")

    parts = decompose(window, cfg.trend_window, cfg.fluct_window)
    return act_forward_parts(parts, graphs, model, training=training)


def act_forward_parts(
    parts,
    graphs: RelationGraphs,
    model: ActModel,
    training: bool = False,
):
    """Forward pass on an already-decomposed window.

    Lets callers reuse one decomposition across epochs; `parts` is the
    value of decompose() for the window.
    """
    cfg = model.cfg
    dyn_adj = None
    gate_mean = None
    if cfg.pspe == "full":
        z_trend, dyn, gate_mean = pspe_forward(parts.trend, graphs, model, cfg)
        dyn_adj = dyn.adjacency
    else:
        z_trend, dyn_adj = pspe_ablation_forward(parts.trend, graphs, model, cfg)

    if cfg.fci == "tcn":
        z_fluct = fci_forward(parts.fluct, model, cfg, training=training)
    else:
        z_fluct = mlp_isolation_forward(parts.fluct, model, cfg, branch="fluct")

    if cfg.sci == "counterfactual":
        z_shock = sci_forward(parts.shock, model, cfg, training=training)
    else:
        z_shock = mlp_isolation_forward(parts.shock, model, cfg, branch="shock")

    y_hat, alpha = acf_forward(z_trend, z_fluct, z_shock, model)
    diagnostics = {
        "alpha": alpha.data.copy(),
        "dynamic_adjacency": None if dyn_adj is None else dyn_adj.copy(),
        "gate_mean": gate_mean,
        "scores": y_hat.data.copy(),
    }
    return y_hat, diagnostics


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: ActModel, path) -> None:
    """Versioned JSON checkpoint: config header plus name -> tensor map.

    Floats are serialized with shortest round-trip repr, so saving the
    same state twice yields byte-identical files.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.cfg.to_dict(),
        "seed": model.seed,
        "params": {
            name: {
                "shape": list(t.shape),
                "data": [float(v) for v in t.data.reshape(-1)],
            }
            for name, t in model.params.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> ActModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid checkpoint: {exc}") from exc
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
    cfg = ActConfig.from_dict(payload["config"])
    model = ActModel(cfg, seed=int(payload.get("seed", 0)))
    state = {}
    for name, entry in payload["params"].items():
        arr = np.asarray(entry["data"], dtype=np.float64)
        state[name] = arr.reshape(entry["shape"])
    model.load_state_arrays(state)
    return model
