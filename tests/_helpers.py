"""Small helpers the tests share and the library does not need."""

from xsrank.decompose import decompose
from xsrank.model import act_forward_parts


def act_forward(window, graphs, model, training=False):
    """Decompose one [T, N, F] window and run the model on it."""
    cfg = model.cfg
    parts = decompose(window, cfg.trend_window, cfg.fluct_window)
    return act_forward_parts(parts, graphs, model, training=training)


def item(t) -> float:
    """The value of a one-element Tensor as a Python float."""
    return float(t.data.reshape(-1)[0])
