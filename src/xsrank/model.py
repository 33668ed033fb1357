"""Cross-sectional ranking model over decomposed temporal components.

The forward pass splits each lookback window into trend, fluctuation,
and shock components, routes them through three branch encoders, and
fuses the branch embeddings with per-stock softmax attention into one
score per instrument.

Every block acts on leading batch axes: a decomposed window is
[T, N, F], a batch of B windows stacked on axis 1 is [T, B, N, F], and
the embeddings are [N, d] or [B, N, d]. Each window of a batch is
computed exactly as it would be alone.

Branches:
  trend  -- relation purification: per-relation GCN heads subtract the
            statically-explained part, a GAT over a dynamic cosine k-NN
            graph encodes the residual, and a sigmoid gate merges static
            and dynamic paths ("full"), or a plain GAT on the union
            relation graph ("gat_only"). Both GATs attend over
            [..., N, K] neighbor lists, one per window (see graphs);
            "gat_only" broadcasts its one union list to the batch.
  fluct  -- the last step of a gated causal temporal convolution
            ("tcn") or a one-layer per-stock MLP ("mlp");
  shock  -- comparison of the latest shock against its own smoothed
            buffer ("counterfactual") or the same MLP fallback ("mlp").
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as tz
from .decompose import causal_moving_average
from .errors import ConfigError, DataError, check_kinds
from .graphs import (
    RelationGraphs,
    cosine_similarity_matrix,
    gat_layer,
    gcn_layer,
    topk_graph,
    unit_rows,
)
from .tensor import Tensor, row_blocks

CHECKPOINT_VERSION = 2

PSPE_MODES = ("full", "gat_only")
FCI_MODES = ("tcn", "mlp")
SCI_MODES = ("counterfactual", "mlp")


@dataclass
class ActConfig:
    """Hyperparameters; `pspe`/`fci`/`sci` select branch variants."""

    n_features: int
    window: int = 16
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
        check_kinds(self)
        if self.hidden < 1:
            raise ConfigError("hidden size must be >= 1")
        for name in ("n_features", "window", "trend_window", "fluct_window", "shock_window",
                     "knn", "tcn_kernel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if not 0.0 <= self.loss_mix <= 1.0:
            raise ConfigError("loss_mix must be in [0, 1]")
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must be in [0, 1)")
        if self.pspe not in PSPE_MODES:
            raise ConfigError(f"pspe must be one of {PSPE_MODES}")
        if self.fci not in FCI_MODES:
            raise ConfigError(f"fci must be one of {FCI_MODES}")
        if self.sci not in SCI_MODES:
            raise ConfigError(f"sci must be one of {SCI_MODES}")

    def to_dict(self) -> dict:
        return asdict(self)


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


def _init_value(name: str, shape: tuple[int, ...], rng) -> np.ndarray:
    if name.endswith("_ln_g"):
        return np.ones(shape)
    if name.endswith(("_b", "_ln_b")):
        return np.zeros(shape)
    fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[:-1]))
    return rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), size=shape)


class ActModel:
    """Learnable parameters plus the dropout RNG for one model instance.

    The parameters are drawn from `seed`, or, when `state` is given, are
    copies of its arrays, one per parameter, and nothing is drawn; the
    names and shapes of `state` are the caller's to check. Only the
    constructor gives a model its weights; Adam steps them in place.
    """

    def __init__(self, cfg: ActConfig, seed: int = 0, state: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.seed = int(seed)
        if state is None:
            rng = np.random.default_rng(self.seed)
            self.params: dict[str, Tensor] = {
                name: Tensor(_init_value(name, shape, rng))
                for name, shape in parameter_spec(cfg).items()
            }
        else:
            self.params = {name: Tensor(np.array(arr, dtype=np.float64))
                           for name, arr in state.items()}
        self.dropout_rng = np.random.default_rng(self.seed + 1)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}


# ---------------------------------------------------------------------------
# branch forwards
# ---------------------------------------------------------------------------


def _dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout: in training, zero each unit with probability
    `rate` and scale the kept ones by 1/(1 - rate); else the identity."""
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return tz.mul(x, Tensor(mask))


def _proj_ln(x: np.ndarray, model: ActModel, prefix: str, ln_prefix: str) -> Tensor:
    h = tz.matmul(Tensor(x), model[f"{prefix}_w"], model[f"{prefix}_b"])
    return tz.layer_norm(h, model[f"{ln_prefix}_g"], model[f"{ln_prefix}_b"])


def _mlp(x_last: np.ndarray, model: ActModel, branch: str, slope: float) -> Tensor:
    """One-layer per-stock MLP on a component's final step: the "mlp"
    variant of the fluctuation and shock branches."""
    x = _proj_ln(x_last, model, f"{branch}_proj", f"{branch}_ln")
    return tz.leaky_relu(tz.matmul(x, model[f"{branch}_mlp_w"], model[f"{branch}_mlp_b"]), slope)


def _gat(u: Tensor, neighbors: np.ndarray, model: ActModel, slope: float) -> Tensor:
    return gat_layer(u, neighbors, model["gat_w"], model["gat_att_src"],
                     model["gat_att_dst"], model["gat_out_w"], slope=slope)


def knn_lists(u: np.ndarray, k: int) -> np.ndarray:
    """[..., N, k] cosine k-NN lists of [..., N, d] rows, no row its own.

    The rows are scaled by `unit_rows` once. Then each window, one at a
    time, takes its `row_blocks(N, N)` blocks of R = TOPK_BLOCK_CELLS // N
    rows, and each block gets its [R, N] `cosine_similarity_matrix` and
    `topk_graph` lists, so no [N, N] similarity is held. A window's GEMMs
    have the same shapes in any batch, so it gets the same lists as when
    it is alone, bit for bit. While N^2 fits in one block the GEMM is the
    whole square's; with more blocks a block's product can differ from
    the square's by an ulp, which moves a pick only between exactly tied
    columns.
    """
    unit = unit_rows(u)
    lead, n = unit.shape[:-2], unit.shape[-2]
    out = np.empty(unit.shape[:-1] + (k,), dtype=np.intp)
    for window in np.ndindex(lead):
        for rows in row_blocks(n, n):
            sim = cosine_similarity_matrix(unit[window][rows], unit[window])
            out[window][rows] = topk_graph(sim, k, rows.start)
    return out


def steps_read(cfg: ActConfig) -> tuple[int, int, int]:
    """Trailing steps of the trend, fluctuation and shock components that
    the branches read: the trend's last one, the convolution's
    `tcn_kernel` taps and the shock buffer's `shock_window` steps; an
    "mlp" variant reads the last step alone."""
    return (1, cfg.tcn_kernel if cfg.fci == "tcn" else 1,
            cfg.shock_window if cfg.sci == "counterfactual" else 1)


def pspe_forward(
    x_trend: np.ndarray,
    graphs: RelationGraphs,
    model: ActModel,
    cfg: ActConfig,
):
    """Trend embedding of the configured variant.

    "full" purifies the relations: the static heads' explained part is
    subtracted, a GAT over the residual's cosine k-NN graph encodes the
    rest, and a sigmoid gate merges static and dynamic paths. "gat_only"
    runs the same GAT on the OR-union of the static relations instead.

    Returns (z_trend, neighbors, gate_mean): the [..., N, K] neighbor
    lists the GAT attended over (the k-NN lists, or the -1 padded union
    lists broadcast over the batch), and a float gate_mean for one
    window, a [B] array for a batch, or None for "gat_only".
    """
    slope = cfg.leaky_slope
    x0 = _proj_ln(x_trend[-1], model, "trend_proj", "trend_in_ln")
    if cfg.pspe == "gat_only":
        union = graphs.union_neighbors
        neighbors = np.broadcast_to(union, x0.shape[:-1] + union.shape[-1:])
        z = _gat(x0, neighbors, model, slope)
        gate_mean = None
    else:
        # u = (x0 - back_ind) - back_reg, each back head subtracted as its
        # relation finishes, so that with no tape only z_s and u_tilde
        # are held when the k-NN lists are built
        u, fwds = x0, []
        for rel, codes in (("ind", graphs.industry), ("reg", graphs.region)):
            h = tz.leaky_relu(gcn_layer(x0, codes, model[f"gcn_{rel}_w"], model[f"gcn_{rel}_b"]),
                              slope)
            fwds.append(tz.leaky_relu(tz.matmul(h, model[f"fwd_head_{rel}"]), slope))
            u = tz.sub(u, tz.matmul(h, model[f"back_head_{rel}"]))
        del x0, h
        z_s = tz.matmul(tz.concat_last(fwds), model["static_mix_w"])
        u_tilde = tz.leaky_relu(tz.matmul(u, model["resid_proj_w"]), slope)
        del fwds, u

        # hard TopK selection: detached, no gradient through construction
        neighbors = knn_lists(u_tilde.data, cfg.knn)
        z_d = _gat(u_tilde, neighbors, model, slope)

        gate_h = tz.leaky_relu(
            tz.matmul(tz.concat_last([z_s, z_d]), model["gate_w1"], model["gate_b1"]), slope
        )
        gate = tz.sigmoid(tz.matmul(gate_h, model["gate_w2"], model["gate_b2"]))
        z = tz.add(z_s, tz.mul(gate, z_d))
        gate_mean = gate.data.reshape(gate.shape[:-2] + (-1,)).mean(axis=-1)
    z_trend = tz.layer_norm(z, model["trend_out_ln_g"], model["trend_out_ln_b"])
    return z_trend, neighbors, gate_mean


def fci_forward(
    x_fluct: np.ndarray,
    model: ActModel,
    cfg: ActConfig,
    training: bool = False,
) -> Tensor:
    """Fluctuation embedding of the configured variant: the "mlp" one, or
    the last step of a gated causal convolution ("tcn").

    Per-stock independent: every op acts along time/channels only. The
    branch returns only the last step, relu(p * sigmoid(q) + r), where
    each gate is sum_j h[t-j] W_j + b over the K = tcn_kernel taps and h
    is the projected, layer-normed fluctuation. So it reads only the
    last K steps, stacked newest first on axis -3 so that lag j meets
    tap W_j in one broadcast matmul. A window shorter than K uses the
    first T taps, as a zero-padded convolution would. Dropout applies
    to the returned [..., N, d] row.
    """
    if cfg.fci == "mlp":
        return _mlp(x_fluct[-1], model, "fluct", cfg.leaky_slope)
    k = cfg.tcn_kernel
    # [K, (B,) N, F] newest first -> [(B,) K, N, F]
    lags = np.moveaxis(x_fluct[:-k - 1:-1], 0, -3)
    h = _proj_ln(lags, model, "fluct_proj", "fluct_ln")
    n_lags = lags.shape[-3]

    def gate(name):
        w = model[f"conv_{name}_w"]
        if n_lags < k:
            w = tz.index(w, slice(0, n_lags))
        return tz.add(tz.tensor_sum(tz.matmul(h, w), axis=-3), model[f"conv_{name}_b"])

    p = gate("p")
    q = tz.sigmoid(gate("q"))
    r = gate("r")
    z = tz.leaky_relu(tz.add(tz.mul(p, q), r), 0.0)
    return _dropout(z, cfg.dropout_rate, model.dropout_rng, training)


def sci_forward(
    x_shock: np.ndarray,
    model: ActModel,
    cfg: ActConfig,
    training: bool = False,
) -> Tensor:
    """Shock embedding of the configured variant: the "mlp" one, or the
    latest shock against its own smoothed buffer through a two-layer MLP
    ("counterfactual").

    The buffer is the causal mean of the last `shock_window` steps, so
    only those steps are smoothed.
    """
    if cfg.sci == "mlp":
        return _mlp(x_shock[-1], model, "shock", cfg.leaky_slope)
    smoothed = causal_moving_average(x_shock[-cfg.shock_window:], cfg.shock_window)
    x = _proj_ln(x_shock[-1], model, "shock_proj", "shock_ln")
    x_ref = _proj_ln(smoothed[-1], model, "shock_proj", "shock_ln")
    h = tz.leaky_relu(
        tz.matmul(tz.concat_last([x, x_ref]), model["shock_w1"]), cfg.leaky_slope
    )
    h = _dropout(h, cfg.dropout_rate, model.dropout_rng, training)
    return tz.matmul(h, model["shock_w2"])


def acf_forward(z_trend: Tensor, z_fluct: Tensor, z_shock: Tensor, model: ActModel):
    """Per-stock softmax attention over the three component embeddings.

    Returns (y_hat [..., N], alpha [..., N, 3]).
    """
    comps = [z_trend, z_fluct, z_shock]
    scores = tz.concat_last(
        [
            tz.matmul(tz.tanh(tz.matmul(z, model["att_w1"], model["att_b1"])), model["att_w2"])
            for z in comps
        ]
    )
    alpha = tz.softmax(scores, axis=-1)
    rows = (slice(None),) * (alpha.ndim - 1)
    mixed = None
    for i, z in enumerate(comps):
        term = tz.mul(tz.index(alpha, rows + (slice(i, i + 1),)), z)
        mixed = term if mixed is None else tz.add(mixed, term)
    y_col = tz.matmul(mixed, model["out_w"])
    y_hat = tz.index(y_col, rows + (0,))
    return y_hat, alpha


def act_forward_parts(
    parts,
    graphs: RelationGraphs,
    model: ActModel,
    training: bool = False,
):
    """Forward pass on a decomposed window or batch of windows.

    Training, validation and prediction all score through it; `parts`
    is the value of decompose() for a [T, N, F] window, or for B of
    them stacked on axis 1, [T, B, N, F], or any trailing steps of it
    that hold the `steps_read` ones, with the same scores. Returns
    (y_hat [N] or [B, N], diagnostics) with the fusion weights `alpha`
    [..., N, 3], the `neighbors` [..., N, K] the trend branch attended
    over (the k-NN lists, or the -1 padded union lists for gat_only),
    and `gate_mean` (a float, or [B]; None for the gat_only branch),
    none of them copied. In training mode the fluctuation dropout masks
    of the whole batch are drawn first, then the shock masks.
    """
    cfg = model.cfg
    z_trend, neighbors, gate_mean = pspe_forward(parts.trend, graphs, model, cfg)
    z_fluct = fci_forward(parts.fluct, model, cfg, training=training)
    z_shock = sci_forward(parts.shock, model, cfg, training=training)
    y_hat, alpha = acf_forward(z_trend, z_fluct, z_shock, model)
    return y_hat, {"alpha": alpha.data, "neighbors": neighbors, "gate_mean": gate_mean}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: ActModel, path) -> None:
    """Versioned JSON checkpoint: config header plus name -> tensor map.

    Each parameter's `data` is the base64 text of its row-major
    little-endian float64 bytes, so saving the same state twice yields
    byte-identical files. The bytes are those of one
    `json.dumps(payload, sort_keys=True, separators=(",", ":"))` plus a
    newline, written one parameter at a time, so only one parameter's
    text is held. A non-finite parameter is refused with a DataError, as
    `load_checkpoint` would refuse it, before any byte is written.
    """
    bad = next((name for name, t in model.params.items() if not np.isfinite(t.data).all()), None)
    if bad is not None:
        raise DataError(f"{path}: refusing to write non-finite parameter {bad}")

    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"config":{dumps(model.cfg.to_dict())},'
                 f'"format_version":{dumps(CHECKPOINT_VERSION)},"params":{{')
        for i, name in enumerate(sorted(model.params)):
            t = model.params[name]
            raw = base64.b64encode(t.data.astype("<f8", copy=False).tobytes()).decode("ascii")
            # base64 text needs no JSON escape
            fh.write(f'{"," if i else ""}{dumps(name)}:{{"data":"{raw}",'
                     f'"shape":{dumps(list(t.shape))}}}')
        fh.write(f'}},"seed":{dumps(model.seed)}}}\n')


def _checkpoint_config(path, raw: dict) -> ActConfig:
    """The ActConfig of a checkpoint's `config` object: every key an
    ActConfig field, every field present, so that no default stands in
    for a setting the weights were trained with, and the values passing
    ActConfig's own checks, kinds first."""
    names = [f.name for f in fields(ActConfig)]
    for key in raw:
        if key not in names:
            raise DataError(f"{path}: checkpoint field 'config.{key}' is not a model setting")
    for name in names:
        if name not in raw:
            raise DataError(f"{path}: checkpoint field 'config.{name}' is missing")
    try:
        return ActConfig(**raw)
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint field 'config': {exc}") from exc


def load_checkpoint(path) -> ActModel:
    """The model saved at `path`. A payload that is not a JSON object
    with a `config` object of well-typed ActConfig fields, a non-negative
    integer `seed` and a `params` object holding exactly the model's parameters,
    each with its `shape` and a base64 `data` string of that many finite
    little-endian float64 values, is refused with a DataError naming the
    file and the field. Another `format_version` is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid checkpoint: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a valid checkpoint: expected a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r}, "
                          f"not {CHECKPOINT_VERSION}; re-run train to write one")
    for key in ("config", "params"):
        if not isinstance(payload.get(key), dict):
            raise DataError(f"{path}: checkpoint field {key!r} is missing or not an object")
    if "seed" not in payload:
        raise DataError(f"{path}: checkpoint field 'seed' is missing")
    seed = payload["seed"]
    if type(seed) is not int or seed < 0:
        raise DataError(f"{path}: checkpoint field 'seed' is {seed!r}, not an integer >= 0")
    cfg = _checkpoint_config(path, payload["config"])
    spec = parameter_spec(cfg)
    params = payload["params"]
    extra = sorted(params.keys() - spec.keys())
    if extra:
        raise DataError(f"{path}: checkpoint field 'params.{extra[0]}' is not a model parameter")
    state = {}
    for name, shape in spec.items():
        where = f"{path}: checkpoint field 'params.{name}'"
        entry = params.get(name)
        if entry is None:
            raise DataError(f"{where} is missing")
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise DataError(f"{where} needs a shape and data")
        data, given = entry["data"], entry["shape"]
        if not isinstance(data, str):
            raise DataError(f"{where}: data is not a string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:
            raise DataError(f"{where}: data is not valid base64: {exc}") from exc
        # 8.0 == 8 and True == 1, so the sizes' type is checked too
        if (type(given) is not list or not all(type(n) is int for n in given)
                or tuple(given) != shape):
            raise DataError(f"{where}: shape {given!r} is not {list(shape)}")
        if len(raw) != 8 * math.prod(shape):
            raise DataError(f"{where}: data holds {len(raw)} bytes, not 8 per value "
                            f"of shape {list(shape)}")
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{where} holds a non-finite number")
        state[name] = arr
    return ActModel(cfg, seed=seed, state=state)
