"""Linear late fusion of several score tables, with weights learned by
coordinate ascent against a selection-quality objective on labeled data."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    GroundTruth,
    ScoreTable,
    SelectionResult,
    Vocabulary,
    rank_columns,
    require_finite,
)
from .errors import TagSelectError
from .metrics import _mean_f, _prepare
from .selection import select_rows
from .thresholds import _f_optimal_cuts, _require_images, _seen_label_rows

_WEIGHT_ATOL = 1e-9
_SWEEP_TOL = 1e-9

SelectionStrategy = Callable[[ScoreTable], SelectionResult]


@dataclass(frozen=True)
class FusionModel:
    """Learned simplex weights over the fused tables.

    ``history`` holds the objective after initialization and after each
    sweep; it is non-decreasing because only strict improvements are kept.
    """

    weights: tuple[float, ...]
    objective_name: str
    history: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        object.__setattr__(self, "history", tuple(float(v) for v in self.history))

    @property
    def objective(self) -> float:
        return self.history[-1]

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "objective": self.objective_name,
            "history": list(self.history),
        }


def _check_weights(weights: Sequence[float], m: int) -> np.ndarray:
    w = np.array([float(v) for v in weights], dtype=np.float64)
    if w.shape != (m,):
        raise TagSelectError(f"expected {m} weights, got {w.shape[0]}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise TagSelectError("weights must be finite and non-negative")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_ATOL:
        raise TagSelectError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def fuse(tables: Sequence[ScoreTable], weights: Sequence[float]) -> ScoreTable:
    """Elementwise weighted sum of score tables sharing images and tags."""
    if not tables:
        raise TagSelectError("fusion needs at least one table")
    first = tables[0]
    for other in tables[1:]:
        if other.images != first.images or other.tags != first.tags:
            raise TagSelectError("fused tables must share images and tag order")
    w = _check_weights(weights, len(tables))
    # Each term is rounded, then added, in table order, as in
    # ``w0*T0 + w1*T1 + ...``; the sum is built in place, with one scratch
    # array for the terms.
    acc = w[0] * tables[0].scores
    term = np.empty_like(acc) if len(tables) > 1 else None
    for wi, table in zip(w[1:], tables[1:]):
        acc += np.multiply(wi, table.scores, out=term)
    return first._derived(acc)


def threshold_selection_strategy(
    truth: GroundTruth, vocab: Vocabulary
) -> SelectionStrategy:
    """The default fusion objective's selector: learn per-tag thresholds on
    the fused table and keep the seen tags that clear them.

    It selects as ``learn_all_thresholds(table, truth, vocab,
    fit_coeffs=False)`` and ``select_rows`` on the learned pool do, and
    raises their errors in their order.  What does not depend on the scores
    (the seen label rows, the truth images' table rows and the trained
    columns) is kept from the last table and built again when a table has
    other images or tags.  Each call then learns the thresholds only,
    without the statistics, which selection does not read.
    """
    key = rows = None

    def strategy(table: ScoreTable) -> SelectionResult:
        nonlocal key, rows
        require_finite(table)
        if key != (table.images, table.tags):
            built = _seen_label_rows(table, truth, vocab)
            _require_images(table)
            key, rows = (table.images, table.tags), built
        img_rows, cols, labels, _ = rows
        tau = np.zeros(0)
        if cols.size:
            tau, _ = _f_optimal_cuts(table.scores.T[cols][:, img_rows], labels)
        # select_rows orders its picks by (image, -score, tag), whatever
        # the order of the pool.
        return select_rows(table, cols, tau)

    return strategy


def _objective(
    tables: Sequence[ScoreTable],
    truth: GroundTruth,
    strategy: SelectionStrategy,
    coverage: list[str],
    objective: str,
) -> Callable[[np.ndarray], float]:
    """The objective of ``learn_weights`` as a function of the weights.

    Training labels are typically incomplete, so the objective masks each
    image down to its defined labels instead of demanding full coverage.
    Under that masking F, the included images and |P| depend on which
    coverage tags are ranked, not on their order, and every fused table
    ranks the same tags; so ``mf`` ranks a fused table and prepares its
    evaluation once, and only adds up the per-image F of each later
    selection over the same images, without building a report.  ``map``
    depends on the ranking only: it ranks and prepares every fused table
    and scores no selection.  Both equal ``evaluate``'s ``mf`` and ``map``
    bit for bit.
    """
    prepared = None

    def score(weights: np.ndarray) -> float:
        nonlocal prepared
        fused = fuse(tables, weights)
        selections = strategy(fused)
        if objective == "map":
            rankings = rank_columns(fused.restrict(coverage))
            return _prepare(truth, selections.images, rankings, False).map
        if prepared is None or prepared.images != selections.images:
            rankings = rank_columns(fused.restrict(coverage))
            prepared = _prepare(truth, selections.images, rankings, False)
        return _mean_f(prepared, selections)

    return score


def learn_weights(
    tables: Sequence[ScoreTable],
    truth: GroundTruth,
    vocab: Vocabulary,
    selection_strategy: SelectionStrategy | None = None,
    objective: str = "mf",
    grid_step: float = 0.05,
    max_sweeps: int = 20,
) -> FusionModel:
    """Coordinate ascent over simplex weights, starting from uniform.

    Each sweep visits the coordinates in index order; for each it tries the
    grid {0, grid_step, ..., 1}, renormalizing the remaining mass over the
    other coordinates proportionally (equal split when that mass is zero),
    and keeps the best strict improvement.  Ascent stops when a sweep gains
    less than 1e-9 or after ``max_sweeps``.  The result never scores below
    uniform averaging, and the history is non-decreasing by construction.
    """
    m = len(tables)
    if m < 2:
        raise TagSelectError("weight learning needs at least two tables")
    if objective not in ("mf", "map"):
        raise TagSelectError(f"objective must be 'mf' or 'map', got {objective!r}")
    if not 0.0 < grid_step <= 1.0:
        raise TagSelectError(f"grid_step must lie in (0, 1], got {grid_step!r}")
    if not isinstance(max_sweeps, numbers.Integral):
        raise TagSelectError(f"max_sweeps must be an integer, got {max_sweeps!r}")
    if max_sweeps < 1:
        raise TagSelectError("max_sweeps must be at least 1")
    if selection_strategy is None:
        selection_strategy = threshold_selection_strategy(truth, vocab)
    coverage = [t for t in tables[0].tags if truth.covers(t)]
    if not coverage:
        raise TagSelectError("ground truth covers no table tag; objective undefined")

    grid = [k * grid_step for k in range(int(1.0 / grid_step) + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    grid[-1] = 1.0

    objective_of = _objective(tables, truth, selection_strategy, coverage, objective)
    cache: dict[tuple[float, ...], float] = {}

    def score(w: np.ndarray) -> float:
        key = tuple(w.tolist())
        if key not in cache:
            cache[key] = objective_of(w)
        return cache[key]

    w = np.full(m, 1.0 / m)
    best = score(w)
    history = [best]
    for _ in range(max_sweeps):
        sweep_start = best
        for i in range(m):
            coord_best = best
            coord_w = w
            for v in grid:
                if abs(v - w[i]) < 1e-15:
                    continue
                cand = _replace_coordinate(w, i, v)
                s = score(cand)
                if s > coord_best:
                    coord_best = s
                    coord_w = cand
            if coord_best > best:
                best = coord_best
                w = coord_w
        history.append(best)
        if best - sweep_start < _SWEEP_TOL:
            break
    return FusionModel(tuple(w.tolist()), objective, tuple(history))


def _replace_coordinate(w: np.ndarray, i: int, v: float) -> np.ndarray:
    out = np.empty_like(w)
    others = np.delete(w, i)
    mass = float(others.sum())
    remaining = 1.0 - v
    if mass > 0.0:
        scaled = others * (remaining / mass)
    else:
        scaled = np.full(w.shape[0] - 1, remaining / (w.shape[0] - 1))
    out[:i] = scaled[:i]
    out[i] = v
    out[i + 1:] = scaled[i:]
    return out
