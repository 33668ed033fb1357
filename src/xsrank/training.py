"""Loss functions, optimizer loop, and sliding-window inference.

The ranking objective is one minus the cross-sectional Pearson
correlation between scores and clipped forward returns, plus a small
mean-squared term that keeps score magnitudes anchored. Training uses
adaptive moment estimation with early stopping on validation IC.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as tz
from .data import PanelDataset, PredictionSeries, _check_day, make_windows
from .decompose import Decomposition, decompose
from .errors import ConfigError, DataError, NonFiniteError, ShapeError, check_kinds
from .evaluate import pearson
from .graphs import RelationGraphs
from .model import ActConfig, ActModel, act_forward_parts, steps_read
from .tensor import Tape, Tensor, backward

LABEL_CLIP = 0.1
IC_EPS = 1e-8
# Adam's first- and second-moment decays, and the floor added to the
# second moment's root
ADAM_DECAYS = (0.9, 0.999)
ADAM_FLOOR = 1e-8


def clip_labels(labels: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(labels, dtype=np.float64), -LABEL_CLIP, LABEL_CLIP)


def _masked_labels(y_hat: Tensor, labels: np.ndarray, mask: np.ndarray):
    """(clipped labels with 0 off the mask, 0/1 weights, count per window)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != y_hat.shape:
        raise ShapeError(f"mask shape {mask.shape} != scores shape {y_hat.shape}")
    yc = clip_labels(labels)
    if not np.isfinite(yc[mask]).all():
        raise DataError("labels contain NaN inside the observed mask")
    return np.where(mask, yc, 0.0), mask.astype(np.float64), mask.sum(axis=-1)


def ic_loss(y_hat: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """1 - Pearson(scores, clipped labels) over the observed set.

    y_hat, labels and mask are [N] for one window, giving a scalar, or
    [B, N] for a batch, giving one term per window. Unobserved stocks
    enter every sum with weight 0. A window of a batch with fewer than 2
    observed stocks has no correlation: its term is 0 and carries no
    gradient. With no window of 2 or more observed stocks there is
    nothing to score, which is a DataError. The epsilon sits inside
    both square roots, so a constant score vector gives loss 1 instead
    of a division blowup.
    """
    yc, w, m = _masked_labels(y_hat, labels, mask)
    scored = m >= 2
    if not scored.any():
        raise DataError(f"ic_loss needs at least 2 observed stocks, got {int(m.max())}")
    count = np.maximum(m, 1)[..., None].astype(np.float64)
    weights = Tensor(w)

    mean_x = tz.div(tz.tensor_sum(tz.mul(y_hat, weights), axis=-1, keepdims=True),
                    Tensor(count))
    dx = tz.mul(tz.sub(y_hat, mean_x), weights)
    dy = (yc - yc.sum(axis=-1, keepdims=True) / count) * w

    num = tz.tensor_sum(tz.mul(dx, Tensor(dy)), axis=-1)
    den_x = tz.sqrt(tz.add(tz.tensor_sum(tz.mul(dx, dx), axis=-1), Tensor(IC_EPS)))
    den_y = np.sqrt((dy * dy).sum(axis=-1) + IC_EPS)
    corr = tz.div(num, tz.mul(den_x, Tensor(den_y)))
    loss = tz.sub(Tensor(1.0), corr)
    if not scored.all():
        loss = tz.mul(loss, Tensor(scored.astype(np.float64)))
    return loss


def mse_loss(y_hat: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error against clipped labels over the observed set.

    Shapes as in `ic_loss`: a scalar for one window, one term per window
    of a batch. A window with no observed stock has term 0; with none
    observed anywhere it is a DataError.
    """
    yc, w, m = _masked_labels(y_hat, labels, mask)
    if not m.any():
        raise DataError("mse_loss needs at least 1 observed stock")
    diff = tz.mul(tz.sub(y_hat, Tensor(yc)), Tensor(w))
    return tz.div(tz.tensor_sum(tz.mul(diff, diff), axis=-1),
                  Tensor(np.maximum(m, 1).astype(np.float64)))


def mix_losses(ic_terms: Tensor | None, mse_terms: Tensor, loss_mix: float) -> Tensor:
    """Ranking loss plus `loss_mix` times the magnitude loss, per window.

    A batch with no IC term (`ic_terms` None) is scored on MSE alone.
    """
    out = tz.mul(Tensor(float(loss_mix)), mse_terms)
    return out if ic_terms is None else tz.add(ic_terms, out)


class Adam:
    """Adam over a named parameter dict, with ADAM_DECAYS and ADAM_FLOOR."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_DECAYS
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            # in place, in the operation order of
            # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
            # p -= (lr m_hat) / (sqrt(v_hat) + eps)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            g2 = (1 - b2) * g
            g2 *= g
            v += g2
            step = m / (1 - b1 ** self.t)
            step *= self.lr
            denom = np.divide(v, 1 - b2 ** self.t, out=g2)
            np.sqrt(denom, out=denom)
            denom += ADAM_FLOOR
            step /= denom
            p.data -= step
            if not np.isfinite(p.data).all():
                raise NonFiniteError(f"parameter {name} became non-finite")


@dataclass
class TrainSettings:
    """Optimization recipe and date split for one training run."""

    valid_start: str
    test_start: str | None = None
    lr: float = 1e-3
    batch_size: int = 4
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check_kinds(self)
        if not self.lr > 0.0:
            raise ConfigError("lr must be positive")
        for name, low in (("batch_size", 1), ("epochs", 1), ("patience", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        _check_day("valid_start", self.valid_start)
        _check_day("test_start", self.test_start)
        if self.test_start is not None and self.test_start <= self.valid_start:
            raise ConfigError("test_start must come after valid_start")


@dataclass
class PredictSettings:
    """The first window-end date `predict_sliding` scores; None scores all."""

    start_date: str | None = None

    def __post_init__(self):
        check_kinds(self)
        _check_day("start_date", self.start_date)


@dataclass
class TrainHistory:
    """Per-epoch training record; `selected_epoch` hit the best valid IC."""

    train_loss: list[float] = field(default_factory=list)
    train_ic_term: list[float] = field(default_factory=list)
    train_mse_term: list[float] = field(default_factory=list)
    valid_ic: list[float] = field(default_factory=list)
    selected_epoch: int = -1
    skipped_ic_days: int = 0
    n_train_windows: int = 0
    n_valid_windows: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _checked_windows(ds: PanelDataset, graphs: RelationGraphs,
                     cfg: ActConfig) -> np.ndarray:
    """Run the checks that hold for every window, then return the window
    end indices; finiteness is left to `decompose`, which checks the
    windows read."""
    n = len(ds.instruments)
    if cfg.pspe == "full" and cfg.knn > n - 1:
        raise ConfigError(f"knn={cfg.knn} needs at least knn + 1 instruments, "
                          f"but the panel has N={n}")
    if cfg.n_features != ds.n_features:
        raise DataError(f"model takes {cfg.n_features} features, panel has {ds.n_features}")
    if len(graphs.instruments) != n:
        raise DataError(f"relation graphs cover {len(graphs.instruments)} instruments, "
                        f"but the panel has N={n}")
    return make_windows(ds, cfg.window)


def _decompose_windows(ds: PanelDataset, ends: np.ndarray, cfg: ActConfig):
    """Decomposition of the windows ending at `ends`, stacked on axis 1,
    gathered from the panel's feature rows. All T steps are decomposed,
    as the causal means need them, and each component keeps a copy of
    only the `steps_read` trailing steps its branch reads: [S, B, N, F]."""
    parts = decompose(ds.features[ends + np.arange(1 - cfg.window, 1)[:, None]],
                      cfg.trend_window, cfg.fluct_window)
    return Decomposition(*(c[-s:].copy() for c, s in
                           zip((parts.trend, parts.fluct, parts.shock), steps_read(cfg))))


def _score_windows(ds: PanelDataset, ends: np.ndarray, graphs: RelationGraphs,
                   model: ActModel, size: int):
    """Yield (end index, scores [N]) per window, `size` windows per forward
    pass with dropout off, each chunk decomposed as it is drawn."""
    for start in range(0, len(ends), size):
        chunk = ends[start: start + size]
        y_hat = act_forward_parts(_decompose_windows(ds, chunk, model.cfg), graphs, model)[0]
        yield from zip(chunk.tolist(), y_hat.data)


def train(
    ds: PanelDataset,
    graphs: RelationGraphs,
    cfg: ActConfig,
    settings: TrainSettings,
) -> tuple[ActModel, TrainHistory]:
    """Fit a fresh model on the panel, early-stopping on validation IC.

    Windows whose end date falls before `valid_start` train the model;
    those in [valid_start, test_start) drive model selection. Dates from
    test_start on are never touched. Deterministic per seed. A span
    with no validation window, or none with two observed stocks whose
    labels differ, has no IC to select on: a ConfigError before any
    model is built.

    Each minibatch of `settings.batch_size` windows is decomposed when
    it is drawn, as one [T, B, N, F] stack, runs through one forward
    pass on a tape that watches the model's parameters, and is scored
    by one batched `ic_loss` and `mse_loss`, [B, N] -> [B]. The step
    minimizes the mean over the batch's windows of ic + loss_mix * mse.
    A window with one observed stock has no IC term; a window with none
    is left out of the batch; both count in `skipped_ic_days`.
    Validation scores windows in chunks of the same size, decomposed the
    same way. Nothing is cached across batches, so a step holds one
    batch's decomposition, activations and the gradients that reach a
    parameter, whatever the panel's length. The final date's window has
    no label and is dropped.

    Early stopping: only a validation IC strictly above the best so far
    selects an epoch, so a plateau does not reset the count; training
    stops `patience` epochs after the selected one (or after the start).
    The model returned is built from the selected epoch's weights, or the
    start weights with `selected_epoch` -1 when no epoch had a
    validation IC, with a fresh dropout stream, as a checkpoint's is.
    """
    ends = _checked_windows(ds, graphs, cfg)[:-1]
    first_valid = bisect_left(ds.dates, settings.valid_start)
    stop = settings.test_start
    first_test = len(ds.dates) if stop is None else bisect_left(ds.dates, stop)
    train_ends = ends[ends < first_valid]
    valid_ends = ends[(ends >= first_valid) & (ends < first_test)]
    if not train_ends.size:
        raise ConfigError("no training windows before valid_start")
    if not valid_ends.size:
        raise ConfigError("no validation windows in the validation span")
    labels, observed = ds.labels, ds.observed_mask
    # a validation day has an IC only if two of its observed labels differ
    if not any((y := labels[t][observed[t]]).size and y.min() < y.max() for t in valid_ends):
        raise ConfigError(
            f"no validation window from valid_start {settings.valid_start} to "
            f"test_start {stop} has two observed stocks whose labels differ")

    model = ActModel(cfg, seed=settings.seed)
    optimizer = Adam(model.params, lr=settings.lr)
    history = TrainHistory(
        n_train_windows=len(train_ends), n_valid_windows=len(valid_ends)
    )
    shuffle_rng = np.random.default_rng(settings.seed)
    best_ic, best_state = -np.inf, model.state_arrays()
    size = settings.batch_size

    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(len(train_ends))
        loss_sum = ic_sum = mse_sum = 0.0
        n_loss = n_ic = 0

        for start in range(0, len(order), size):
            drawn = train_ends[order[start: start + size]]
            # a window with no observed stock has no loss term at all
            batch = drawn[observed[drawn].any(axis=1)]
            history.skipped_ic_days += len(drawn) - len(batch)
            if not batch.size:
                continue
            batch_labels, mask = labels[batch], observed[batch]
            scored = mask.sum(axis=1) >= 2
            history.skipped_ic_days += int((~scored).sum())
            try:
                parts = _decompose_windows(ds, batch, cfg)
                with Tape() as tape:
                    for p in model.params.values():
                        tape.watch(p)
                    # the diagnostics are the forward's own arrays; held
                    # through the step, they raised train_n24's peak RSS
                    y_hat = act_forward_parts(parts, graphs, model, training=True)[0]
                    ic_terms = ic_loss(y_hat, batch_labels, mask) if scored.any() else None
                    mse_terms = mse_loss(y_hat, batch_labels, mask)
                    window_loss = mix_losses(ic_terms, mse_terms, cfg.loss_mix)
                    backward(tz.div(tz.tensor_sum(window_loss), Tensor(float(len(batch)))))
                # no name holds the gradients past the step, so the next
                # forward runs without them
                optimizer.step({name: tape.grad(p) for name, p in model.params.items()})
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"training diverged at epoch {epoch} step {start // size}: {exc}"
                ) from exc
            loss_sum += float(window_loss.data.sum())
            mse_sum += float(mse_terms.data.sum())
            n_loss += len(batch)
            if ic_terms is not None:
                ic_sum += float(ic_terms.data[scored].sum())
                n_ic += int(scored.sum())

        history.train_loss.append(loss_sum / max(n_loss, 1))
        history.train_ic_term.append(ic_sum / max(n_ic, 1))
        history.train_mse_term.append(mse_sum / max(n_loss, 1))

        day_ics = []
        for t, scores in _score_windows(ds, valid_ends, graphs, model, size):
            ic = pearson(scores[observed[t]], labels[t][observed[t]])
            if ic is not None:
                day_ics.append(ic)
        epoch_ic = float(np.mean(day_ics)) if day_ics else -np.inf
        history.valid_ic.append(epoch_ic)

        if epoch_ic > best_ic:
            best_ic, best_state, history.selected_epoch = epoch_ic, model.state_arrays(), epoch
        elif epoch - history.selected_epoch >= settings.patience:
            break

    # free the trained weights and Adam moments before building the copy
    del model, optimizer
    return ActModel(cfg, seed=settings.seed, state=best_state), history


def predict_sliding(
    model: ActModel,
    ds: PanelDataset,
    graphs: RelationGraphs,
    start_date: str | None = None,
) -> PredictionSeries:
    """Score every window-end date, one record per present instrument.

    Slides a length-T window over the whole panel (so the first dates
    after `start_date` still draw history from before it) and keeps the
    records whose end date is >= start_date, the unlabelled final date
    included. Dropout stays off; the dynamic graph is rebuilt inside
    every window. Each window is decomposed and scored alone. A
    `start_date` that is not a YYYY-MM-DD day is a ConfigError.
    """
    _check_day("start_date", start_date)
    ends = _checked_windows(ds, graphs, model.cfg)
    if start_date is not None:
        ends = ends[ends >= bisect_left(ds.dates, start_date)]
    present = ds.present_mask
    rows = []
    for t, scores in _score_windows(ds, ends, graphs, model, 1):
        for inst, here, score in zip(ds.instruments, present[t], scores.tolist()):
            if here:
                rows.append((ds.dates[t], inst, score))
    if not rows:
        raise DataError("no instrument is priced on a window-end date" + (
            f" at or after start_date {start_date}" if start_date is not None else ""))
    return PredictionSeries(rows)
