"""Gradient-based refinement of network weights found by the global search.

Six methods share one driver: resilient propagation (rp), one-step
secant (oss), plain gradient descent (gd), gradient descent with
momentum (gdm), gradient descent with an adaptive rate (gda), and
Polak-Ribiere conjugate gradients (cgpr). All of them descend the MSE
surrogate; the driver tracks the best iterate by classification error
(MSE as tiebreak) and returns that, never the last iterate.

Each method is a generator holding its state in locals. Every epoch it
yields each point it needs evaluated and is sent back that point's
(loss, gradient, error); then it yields _MOVE, to step to the last
point sent, or _STAY, to keep its point (a rejected gda step). It
returns when a line search finds no step. So no point, not even an
accepted probe, is evaluated twice.

The driver, `refine_many`, runs any number of starts, each with its own
method and its own training set, in lockstep: each round it scores the
next points of all live runs whose sets have one row count in one
stacked `mse_loss_and_gradient` pass. A stacked pass gives each member
the bits of its own call, so a run's result does not depend on the runs
beside it.

A run sets the four `LocalSearchConfig` fields; every other setting of
a method is a module constant: rp's RP_*, gda's GDA_*, and ARMIJO_C1,
BACKTRACK_SHRINK and MAX_BACKTRACKS of the oss and cgpr line search.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ParameterError, ShapeError
from .mlp import DatasetStack, MlpTopology, mse_loss_and_gradient

__all__ = ["METHODS", "LocalSearchConfig", "RefineResult", "refine_many"]

# Gradient components below this are treated as exactly zero.
GRAD_TOL = 1e-12

# The methods' fixed settings: rp's step-size growth and shrink factors
# and the start, floor and cap of a step size; gda's rate growth and
# shrink factors and the relative loss increase it still accepts; the
# line search's sufficient-decrease constant, the factor each backtrack
# shrinks the step by, and how many backtracks it may take.
RP_INCREASE, RP_DECREASE = 1.2, 0.5
RP_STEP_INIT, RP_STEP_MIN, RP_STEP_MAX = 0.1, 1e-6, 50.0
GDA_INCREASE, GDA_DECREASE, GDA_MAX_LOSS_INCREASE = 1.05, 0.7, 0.04
ARMIJO_C1, BACKTRACK_SHRINK, MAX_BACKTRACKS = 1e-4, 0.5, 30

# What a method yields to end an epoch.
_MOVE, _STAY = "move", "stay"


@dataclass(frozen=True)
class LocalSearchConfig:
    """The refinement settings a run chooses: the epoch budget, the
    patience, the learning rate of gd, gdm and gda, and gdm's momentum.
    Every other setting of a method is a module constant.
    """

    epochs: int = 500
    patience: int = 50
    learning_rate: float = 0.5
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1 or self.patience < 1:
            raise ParameterError("epochs and patience must be >= 1")
        if not (0 < self.learning_rate < np.inf):
            raise ParameterError(f"learning rate must be in (0, inf), got {self.learning_rate}")
        if not (0 <= self.momentum < 1):
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one refinement run.

    `stop_reason` is "stationary" (zero gradient), "patience" (no drop in
    error for `patience` epochs), "line_search" (no step decreased the
    loss) or "epochs" (the budget ran out).
    """

    params: np.ndarray
    final_train_error: float
    loss_history: np.ndarray
    error_history: np.ndarray
    stop_reason: str


def _rp(w, loss, grad, config):
    """Resilient propagation: per weight, the step size grows while the
    gradient keeps its sign, shrinks when it flips and holds when either
    gradient is zero; the weight moves by it against the gradient's sign,
    whatever the gradient's magnitude (Riedmiller and Braun, 1993)."""
    steps = np.full(w.size, RP_STEP_INIT)
    prev_grad = np.zeros_like(w)
    while True:
        product = prev_grad * grad
        steps = np.where(product > 0, np.minimum(steps * RP_INCREASE, RP_STEP_MAX),
                         np.where(product < 0, np.maximum(steps * RP_DECREASE, RP_STEP_MIN),
                                  steps))
        prev_grad = grad
        w = w - np.sign(grad) * steps
        _, grad, _ = yield w
        yield _MOVE


def _gdm(w, loss, grad, config):
    """Momentum descent. gd is this at momentum 0: the velocity is then
    learning_rate * grad plus a signed zero, so every new weight is plain
    descent's, up to the sign of a zero."""
    velocity = np.zeros_like(w)
    while True:
        velocity = (config.momentum * velocity
                    + config.learning_rate * (1.0 - config.momentum) * grad)
        w = w - velocity
        _, grad, _ = yield w
        yield _MOVE


def _gda(w, loss, grad, config):
    """Adaptive rate: grow on improvement, shrink and reject on blow-up;
    a loss increase within the tolerance band is accepted with the rate
    unchanged, so the trajectory can cross small ridges."""
    rate = config.learning_rate
    while True:
        proposed = w - rate * grad
        evaluated = yield proposed
        if evaluated[0] < loss:
            rate = rate * GDA_INCREASE
        elif evaluated[0] > loss * (1.0 + GDA_MAX_LOSS_INCREASE):
            rate = rate * GDA_DECREASE
            yield _STAY
            continue
        w, (loss, grad, _) = proposed, evaluated
        yield _MOVE


def _line_search(w, loss, grad, d):
    """Armijo backtracking along the descent direction d (Nocedal and
    Wright, section 3.1): yields w + a*d for a = 1, shrink, shrink**2,
    ..., at most MAX_BACKTRACKS + 1 points, and returns the first that
    passes sufficient decrease, as (point, (loss, grad, error)), or None."""
    slope = float(grad @ d)
    if slope >= 0:
        raise ContractError("line search requires a descent direction")
    a = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        point = w + a * d
        evaluated = yield point
        if evaluated[0] <= loss + ARMIJO_C1 * a * slope:
            return point, evaluated
        a *= BACKTRACK_SHRINK
    return None


def _oss(w, loss, grad, config):
    """One-step secant: the negative gradient mixed with the last step s
    and gradient change y through the two secant scalars; the first
    epoch, degenerate curvature (|s.y| below 1e-12) and a mix that is
    not a descent direction take steepest descent."""
    w_prev = grad_prev = None
    while True:
        d = -grad
        if w_prev is not None:
            s, y = w - w_prev, grad - grad_prev
            sty = float(s @ y)
            if not abs(sty) < 1e-12:
                b_c = float(s @ grad) / sty
                a_c = -(1.0 + float(y @ y) / sty) * b_c + float(y @ grad) / sty
                d = -grad + a_c * s + b_c * y
        if float(grad @ d) >= 0:
            d = -grad
        w_prev, grad_prev = w, grad
        found = yield from _line_search(w, loss, grad, d)
        if found is None:
            return
        w, (loss, grad, _) = found
        yield _MOVE


def _cgpr(w, loss, grad, config):
    """Polak-Ribiere conjugate directions: the mixing coefficient is
    clipped at zero, and the direction resets to steepest descent every
    `w.size` + 1 steps and whenever the mix is not a descent direction,
    so a poorly conditioned history can never push the search uphill
    for long. prev_grad passed the stationary test, so it is nonzero."""
    prev_grad = prev_d = None
    since_restart = 0
    while True:
        if prev_grad is None or since_restart >= w.size:
            d, since_restart = -grad, 0
        else:
            beta = max(float((grad - prev_grad) @ grad) / float(prev_grad @ prev_grad), 0.0)
            d, since_restart = -grad + beta * prev_d, since_restart + 1
        if float(grad @ d) >= 0:
            d, since_restart = -grad, 0
        prev_grad, prev_d = grad, d
        found = yield from _line_search(w, loss, grad, d)
        if found is None:
            return
        w, (loss, grad, _) = found
        yield _MOVE


# method(w, loss, grad, config) starts at the first point. Per epoch it
# yields points and is sent each one's (loss, grad, error), then yields
# _MOVE (to the last point sent) or _STAY; it returns to stop the run.
_METHODS = {"rp": _rp, "oss": _oss,
            "gd": lambda w, loss, grad, config: _gdm(w, loss, grad, replace(config, momentum=0.0)),
            "gdm": _gdm, "gda": _gda, "cgpr": _cgpr}
METHODS = tuple(_METHODS)


def _run(w, method: str, config: LocalSearchConfig):
    """One refinement run of `method` as a generator: it yields each
    point it needs evaluated, starting with w, is sent that point's
    (loss, grad, error), and returns the RefineResult."""
    loss, grad, error = yield w
    best_w, best_error, best_loss = w, error, loss
    loss_history = [loss]
    error_history = [error]

    step = _METHODS[method](w, loss, grad, config)
    stale_epochs = 0
    stop_reason = "epochs"
    for _ in range(config.epochs - 1):
        if np.abs(grad).max() < GRAD_TOL:
            stop_reason = "stationary"
            break
        try:
            request = next(step)
            while isinstance(request, np.ndarray):
                point, evaluated = request, (yield request)
                request = step.send(evaluated)
        except StopIteration:
            stop_reason = "line_search"
            break
        if request is _MOVE:  # _STAY keeps w, loss, grad and error
            w, (loss, grad, error) = point, evaluated
        loss_history.append(loss)
        error_history.append(error)
        # Only a drop in error resets the patience count; the best
        # iterate is the lowest error, with the lower MSE on a tie.
        stale_epochs = 0 if error < best_error else stale_epochs + 1
        if error < best_error or (error == best_error and loss < best_loss):
            best_w, best_error, best_loss = w, error, loss
        if stale_epochs >= config.patience:
            stop_reason = "patience"
            break

    return RefineResult(
        params=best_w.copy(),
        final_train_error=best_error,
        loss_history=np.array(loss_history),
        error_history=np.array(error_history),
        stop_reason=stop_reason,
    )


def refine_many(starts, methods, topology: MlpTopology, data,
                config: LocalSearchConfig) -> list:
    """One RefineResult per start: run i refines starts[i] in lockstep
    with the others, under `config` with method methods[i], on the
    `Dataset` data[i]; runs may share one `Dataset` object.

    Each start is used exactly as passed, never re-randomized, and each
    result's weights are its run's best iterate, so a result is never
    worse than its start on its training data. A run stops early at a
    stationary point, when a line search finds no step, or after
    `patience` epochs without a drop in classification error;
    `stop_reason` says which.

    Runs are grouped by their sets' row count, and each round makes one
    stacked pass per group, over one `DatasetStack` of its runs' sets,
    rebuilt only when one of its runs ends.
    """
    if len(starts) != len(methods):
        raise ParameterError(f"{len(starts)} starts for {len(methods)} methods")
    sets = list(data)
    if len(sets) != len(starts):
        raise ParameterError(f"{len(starts)} starts for {len(sets)} training sets")
    runs = []
    for i, (initial, method, train) in enumerate(zip(starts, methods, sets)):
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}, expected one of {METHODS}")
        w = np.array(initial, dtype=float)
        if w.shape != (topology.param_count,):
            raise ParameterError(f"expected {topology.param_count} weights, got {w.shape}")
        if train.n_features != topology.n_in:
            raise ShapeError(f"run {i}: {train.n_features} features do not match "
                             f"n_in={topology.n_in}")
        runs.append(_run(w, method, config))

    results = [None] * len(runs)
    requests = [next(run) for run in runs]
    by_rows = {}
    for i, train in enumerate(sets):
        by_rows.setdefault(len(train), []).append(i)
    groups = [(members, DatasetStack.of([sets[i] for i in members]))
              for members in by_rows.values()]
    while groups:
        kept = []
        for members, stack in groups:
            losses, grads, errors = mse_loss_and_gradient(
                np.stack([requests[i] for i in members]), topology, stack)
            live = []
            for i, loss, grad, error in zip(members, losses, grads, errors):
                try:
                    requests[i] = runs[i].send((float(loss), grad, float(error)))
                    live.append(i)
                except StopIteration as stop:
                    results[i] = stop.value
            if len(live) == len(members):
                kept.append((members, stack))
            elif live:
                kept.append((live, DatasetStack.of([sets[i] for i in live])))
        groups = kept
    return results
