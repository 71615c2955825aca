"""Derivative-free coordinate search with random restarts.

One small engine serves every derivative-free search: the package's
singlet-fraction oracle and the two filter searches that the test suite
keeps as references.  All restarts are advanced together as one batch,
each iteration probes every coordinate direction for every restart in a
single vectorized objective call, the best improving probe per restart is
accepted, and a restart's step is halved whenever none of its probes
improve.  The search is deterministic given its
starts, and returns every restart's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["SearchSpec", "compass_search"]


@dataclass(frozen=True, eq=False)
class SearchSpec:
    """Box/wrap structure of the parameter vector.

    ``lower``/``upper`` clip the coordinate when both are finite; a ``wrap``
    period folds it instead (use one or the other per coordinate).
    """

    lower: np.ndarray
    upper: np.ndarray
    wrap: np.ndarray  # period per coordinate, nan = no wrap

    @staticmethod
    def build(dims: int, clip: dict | None = None, wrap: dict | None = None) -> "SearchSpec":
        lower = np.full(dims, -np.inf)
        upper = np.full(dims, np.inf)
        period = np.full(dims, np.nan)
        for k, (lo, hi) in (clip or {}).items():
            lower[k], upper[k] = lo, hi
        for k, p in (wrap or {}).items():
            period[k] = p
        return SearchSpec(lower=lower, upper=upper, wrap=period)

    @cached_property
    def _bounded(self) -> bool:
        return bool(np.isfinite(self.lower).any() or np.isfinite(self.upper).any())

    @cached_property
    def _wrapped(self) -> np.ndarray:
        return np.flatnonzero(~np.isnan(self.wrap))

    def project(self, x: np.ndarray) -> np.ndarray:
        """A projected copy of ``x``; the argument is never modified."""
        # Clipping to infinite bounds would only copy, at several times the cost.
        x = np.clip(x, self.lower, self.upper) if self._bounded else np.array(x, dtype=float)
        wrapped = self._wrapped
        if len(wrapped):
            x[..., wrapped] = np.mod(x[..., wrapped], self.wrap[wrapped])
        return x


def compass_search(
    objective,
    x0: np.ndarray,
    spec: SearchSpec,
    step0: float = 0.4,
    step_tol: float = 1e-7,
    max_evals: int | None = None,
    max_iters: int = 400,
):
    """Maximize ``objective`` from a batch of starting points.

    ``objective`` maps an (n, d) parameter array to n values and must be
    pure.  Probes are the +-coordinate directions, a positive spanning set,
    which is all compass search needs to converge (Kolda, Lewis and
    Torczon, SIAM Rev. 45, 385).  The search stops once every restart's
    step is below ``step_tol``, before a batch would exceed ``max_evals``,
    or after ``max_iters`` iterations.  Returns ``(x, f)``: the (n, d)
    points and n values of all restarts.  Each restart follows its path
    alone; once converged it keeps being probed until the batch stops.
    """
    x = spec.project(np.array(x0, dtype=float))
    n, d = x.shape
    f = np.asarray(objective(x), dtype=float)
    step = np.full(n, float(step0))
    evals = n
    m = 2 * d
    offsets = np.concatenate([np.eye(d), -np.eye(d)])[:, None, :]
    rows = np.arange(n)

    for _ in range(max_iters):
        if step.max() < step_tol:
            break
        if max_evals is not None and evals + m * n > max_evals:
            break
        candidates = spec.project((x + step[:, None] * offsets).reshape(-1, d))
        values = np.asarray(objective(candidates), dtype=float).reshape(m, n)
        evals += m * n

        best_idx = values.argmax(axis=0)
        best_val = values[best_idx, rows]
        improved = best_val > f
        count = np.count_nonzero(improved)
        if count == n:
            x, f = candidates.reshape(m, n, d)[best_idx, rows], best_val
        elif count:
            won = rows[improved]
            x[won], f[won] = candidates.reshape(m, n, d)[best_idx[won], won], best_val[won]
            step[~improved] *= 0.5
        else:
            step *= 0.5

    return x, f
