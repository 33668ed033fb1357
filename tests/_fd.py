"""Central-difference gradient checks against the tape.

Both helpers report the worst relative error per coordinate,
|analytic - numeric| / max(1, |analytic|), between tape gradients and
central differences.
"""

import numpy as np

from _helpers import item
from xsrank.tensor import Tape, Tensor, backward


def finite_difference_check(f, point: Tensor, step: float = 1e-6) -> float:
    """Max relative error between tape gradients of f and central differences.

    f maps one Tensor to a scalar Tensor and must be deterministic
    (run dropout in eval mode).
    """
    with Tape() as tape:
        tape.watch(point)
        out = f(point)
        backward(out)
        analytic = tape.grad(point)
    if analytic is None:
        analytic = np.zeros_like(point.data)

    base = point.data.copy()
    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = item(f(Tensor(base)))
        flat[i] = orig - step
        lo = item(f(Tensor(base)))
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst


def finite_difference_check_params(f, params, step: float = 1e-6) -> float:
    """finite_difference_check generalized to a list of parameter tensors.

    f() takes no arguments and reads the params by reference, so central
    differences are taken by perturbing each param in place.
    """
    with Tape() as tape:
        for p in params:
            tape.watch(p)
        out = f()
        backward(out)
        analytic = [tape.grad(p) for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        if an is None:
            an = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = item(f())
            flat[i] = orig - step
            lo = item(f())
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
