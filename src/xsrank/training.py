"""Loss functions, optimizer loop, and sliding-window inference.

The ranking objective is one minus the cross-sectional Pearson
correlation between scores and clipped forward returns, plus a small
mean-squared term that keeps score magnitudes anchored. Training uses
adaptive moment estimation with early stopping on validation IC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .data import PanelDataset, PredictionSeries, make_windows
from .decompose import decompose
from .errors import ConfigError, DataError, NonFiniteError
from .graphs import RelationGraphs
from .model import ActConfig, ActModel, act_forward, act_forward_parts
from .tensor import Tape, Tensor, backward

LABEL_CLIP = 0.1
IC_EPS = 1e-8


def clip_labels(labels: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(labels, dtype=np.float64), -LABEL_CLIP, LABEL_CLIP)


def ic_loss(y_hat: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """1 - Pearson(scores, clipped labels) over the observed set.

    The epsilon sits inside both square roots, so a constant score
    vector gives loss 1 instead of a division blowup.
    """
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    if m < 2:
        raise DataError(f"ic_loss needs at least 2 observed stocks, got {m}")
    yc = clip_labels(labels)[mask]
    if not np.isfinite(yc).all():
        raise DataError("labels contain NaN inside the observed mask")

    sel = tz.masked_select(y_hat, mask)
    dx = tz.sub(sel, tz.mean(sel))
    dy = yc - yc.mean()

    num = tz.tensor_sum(tz.mul(dx, Tensor(dy)))
    den_x = tz.sqrt(tz.add(tz.tensor_sum(tz.mul(dx, dx)), Tensor(IC_EPS)))
    den_y = float(np.sqrt((dy * dy).sum() + IC_EPS))
    corr = tz.div(num, tz.mul(den_x, Tensor(den_y)))
    return tz.sub(Tensor(1.0), corr)


def mse_loss(y_hat: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error against clipped labels over the observed set."""
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    if m < 1:
        raise DataError("mse_loss needs at least 1 observed stock")
    yc = clip_labels(labels)[mask]
    if not np.isfinite(yc).all():
        raise DataError("labels contain NaN inside the observed mask")
    diff = tz.sub(tz.masked_select(y_hat, mask), Tensor(yc))
    return tz.mean(tz.mul(diff, diff))


def total_loss(
    y_hat: Tensor, labels: np.ndarray, mask: np.ndarray, loss_mix: float
) -> Tensor:
    """Ranking loss plus `loss_mix` times the magnitude loss."""
    if not 0.0 <= loss_mix <= 1.0:
        raise ConfigError(f"loss_mix must be in [0, 1], got {loss_mix}")
    out = ic_loss(y_hat, labels, mask)
    if loss_mix > 0.0:
        out = tz.add(out, tz.mul(Tensor(loss_mix), mse_loss(y_hat, labels, mask)))
    return out


class Adam:
    """Adaptive moment estimation over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.isfinite(p.data).all():
                raise NonFiniteError(f"parameter {name} became non-finite")


@dataclass
class TrainSettings:
    """Optimization recipe and date split for one training run."""

    valid_start: str
    test_start: str | None = None
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 4
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.test_start is not None and self.test_start <= self.valid_start:
            raise ConfigError("test_start must come after valid_start")


class EarlyStopper:
    """Stops after `patience` consecutive evaluations without a new best.

    Only a strict improvement resets the counter, so a plateau at the
    best value still runs the patience down.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError("patience must be >= 1")
        self.patience = patience
        self.best = -np.inf
        self.best_index = -1
        self.bad_evals = 0
        self.n_evals = 0
        self.should_stop = False

    def update(self, value: float) -> bool:
        index = self.n_evals
        self.n_evals += 1
        if value > self.best:
            self.best = value
            self.best_index = index
            self.bad_evals = 0
            return True
        self.bad_evals += 1
        if self.bad_evals >= self.patience:
            self.should_stop = True
        return False


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
        return {
            "train_loss": list(self.train_loss),
            "train_ic_term": list(self.train_ic_term),
            "train_mse_term": list(self.train_mse_term),
            "valid_ic": list(self.valid_ic),
            "selected_epoch": self.selected_epoch,
            "skipped_ic_days": self.skipped_ic_days,
            "n_train_windows": self.n_train_windows,
            "n_valid_windows": self.n_valid_windows,
        }


def _daily_ic(scores: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Plain Pearson over one date's observed set; None if degenerate."""
    m = np.asarray(mask, dtype=bool)
    if int(m.sum()) < 2:
        return None
    a = scores[m]
    b = labels[m]
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum()) * np.sqrt((db * db).sum())
    if denom == 0.0:
        return None
    return float((da * db).sum() / denom)


def _check_knn(cfg: ActConfig, n_instruments: int) -> None:
    """Reject a k-NN size the trend branch's graph cannot hold (k <= N-1)."""
    if cfg.pspe == "full" and cfg.knn > n_instruments - 1:
        raise ConfigError(
            f"knn={cfg.knn} needs at least knn + 1 instruments, "
            f"but the panel has N={n_instruments}"
        )


def train(
    ds: PanelDataset,
    graphs: RelationGraphs,
    cfg: ActConfig,
    settings: TrainSettings,
) -> tuple[ActModel, TrainHistory]:
    """Fit a fresh model on the panel, early-stopping on validation IC.

    Windows whose end date falls before `valid_start` train the model;
    those in [valid_start, test_start) drive model selection. Dates from
    test_start on are never touched. Deterministic per seed.
    """
    _check_knn(cfg, len(ds.instruments))
    samples = make_windows(ds, cfg.window)
    train_samples = [s for s in samples if s.date < settings.valid_start]
    stop = settings.test_start
    valid_samples = [
        s for s in samples
        if s.date >= settings.valid_start and (stop is None or s.date < stop)
    ]
    if not train_samples:
        raise ConfigError("no training windows before valid_start")
    if not valid_samples:
        raise ConfigError("no validation windows in the validation span")

    model = ActModel(cfg, seed=settings.seed)
    optimizer = Adam(
        model.params, lr=settings.lr, beta1=settings.beta1,
        beta2=settings.beta2, eps=settings.adam_eps,
    )
    history = TrainHistory(
        n_train_windows=len(train_samples), n_valid_windows=len(valid_samples)
    )
    shuffle_rng = np.random.default_rng(settings.seed)
    parts_cache: dict[int, object] = {}

    def parts_for(sample):
        got = parts_cache.get(sample.end_index)
        if got is None:
            got = decompose(sample.features, cfg.trend_window, cfg.fluct_window)
            parts_cache[sample.end_index] = got
        return got

    stopper = EarlyStopper(settings.patience)
    best_state = model.state_arrays()

    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(len(train_samples))
        loss_sum = ic_sum = mse_sum = 0.0
        n_loss = n_ic = n_mse = 0

        for start in range(0, len(order), settings.batch_size):
            batch = [train_samples[i] for i in order[start: start + settings.batch_size]]
            step_id = start // settings.batch_size
            try:
                with Tape() as tape:
                    acc = None
                    contrib = 0
                    for sample in batch:
                        n_obs = int(sample.mask.sum())
                        if n_obs < 1:
                            history.skipped_ic_days += 1
                            continue
                        y_hat, _ = act_forward_parts(
                            parts_for(sample), graphs, model, training=True
                        )
                        if n_obs >= 2:
                            ic_term = ic_loss(y_hat, sample.labels, sample.mask)
                            ic_sum += ic_term.item()
                            n_ic += 1
                        else:
                            history.skipped_ic_days += 1
                            ic_term = None
                        mse_term = mse_loss(y_hat, sample.labels, sample.mask)
                        mse_sum += mse_term.item()
                        n_mse += 1
                        piece = tz.mul(Tensor(float(cfg.loss_mix)), mse_term)
                        if ic_term is not None:
                            piece = tz.add(ic_term, piece)
                        loss_sum += piece.item()
                        n_loss += 1
                        acc = piece if acc is None else tz.add(acc, piece)
                        contrib += 1
                    if acc is None:
                        continue
                    batch_loss = tz.mul(Tensor(1.0 / contrib), acc)
                    backward(batch_loss)
                    grad_arrays = {
                        name: tape.grad(p) for name, p in model.params.items()
                    }
                optimizer.step(grad_arrays)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"training diverged at epoch {epoch} step {step_id}: {exc}"
                ) from exc

        history.train_loss.append(loss_sum / max(n_loss, 1))
        history.train_ic_term.append(ic_sum / max(n_ic, 1))
        history.train_mse_term.append(mse_sum / max(n_mse, 1))

        day_ics = []
        for sample in valid_samples:
            y_hat, _ = act_forward_parts(parts_for(sample), graphs, model)
            ic = _daily_ic(y_hat.data, sample.labels, sample.mask)
            if ic is not None:
                day_ics.append(ic)
        epoch_ic = float(np.mean(day_ics)) if day_ics else -np.inf
        history.valid_ic.append(epoch_ic)

        if stopper.update(epoch_ic):
            best_state = model.state_arrays()
        if stopper.should_stop:
            break

    model.load_state_arrays(best_state)
    history.selected_epoch = stopper.best_index
    return model, history


def predict_sliding(
    model: ActModel,
    ds: PanelDataset,
    graphs: RelationGraphs,
    start_date: str | None = None,
) -> PredictionSeries:
    """Score every window-end date, one record per present instrument.

    Slides a length-T window over the whole panel (so the first dates
    after `start_date` still draw history from before it) and keeps the
    records whose end date is >= start_date. Dropout stays off; the
    dynamic graph is rebuilt inside every window.
    """
    cfg = model.cfg
    _check_knn(cfg, len(ds.instruments))
    n_dates = len(ds.dates)
    if n_dates < cfg.window:
        raise DataError(
            f"need at least {cfg.window} dates for one window, have {n_dates}"
        )
    rows = []
    for t in range(cfg.window - 1, n_dates):
        date = ds.dates[t]
        if start_date is not None and date < start_date:
            continue
        window = ds.features[t - cfg.window + 1: t + 1]
        y_hat, _ = act_forward(window, graphs, model, training=False)
        present = ds.present_mask[t]
        for i, inst in enumerate(ds.instruments):
            if present[i]:
                rows.append((date, inst, float(y_hat.data[i])))
    if not rows:
        raise DataError("no window-end dates at or after start_date")
    return PredictionSeries(rows)
