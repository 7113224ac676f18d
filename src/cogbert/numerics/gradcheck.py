"""Central-difference verification of analytic gradients.

`loss_fn` must rebuild the forward graph from the parameters' current values
and return the scalar loss Node. It has to be deterministic (dropout off).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import NumericError, ValidationError
from .autodiff import Node, Parameter, backward


def _entry_indices(size: int, cap: int | None) -> np.ndarray:
    if cap is None or size <= cap:
        return np.arange(size)
    # Evenly spaced deterministic sample covering the whole tensor.
    return np.unique(np.linspace(0, size - 1, cap).astype(np.int64))


def grad_check_report(
    loss_fn: Callable[[], Node],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    max_entries_per_param: int | None = None,
) -> dict[str, float]:
    """Worst analytic-vs-central-difference error per parameter.

    Error is relative (|a - f| / max(|a|, |f|)) except when both magnitudes
    are below 1e-8, where the absolute difference is used instead.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise ValidationError(f"gradient check eps must lie in [1e-6, 1e-4], got {eps}")

    for p in params:
        p.zero_grad()
    root = loss_fn()
    if not np.isfinite(root.value).all():
        raise NumericError("loss is not finite at the evaluation point")
    backward(root)
    analytic = {p.name: p.grad.copy() for p in params}

    report: dict[str, float] = {}
    for p in params:
        worst = 0.0
        flat = p.value.reshape(-1)
        for idx in _entry_indices(flat.size, max_entries_per_param):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = loss_fn().item()
            flat[idx] = orig - eps
            f_minus = loss_fn().item()
            flat[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"loss became non-finite while perturbing {p.name}")
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[idx]
            denom = max(abs(a), abs(fd))
            err = abs(a - fd) if denom < 1e-8 else abs(a - fd) / denom
            worst = max(worst, err)
        report[p.name] = worst
        # Restore accumulated analytic grads so callers can inspect them.
        np.copyto(p.grad, analytic[p.name])
    return report
