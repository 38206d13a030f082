import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import codel.local_search as local_search
import codel.mlp as mlp
import oracles
from codel.datasets import two_gaussian_dataset, xor_dataset
from codel.errors import ContractError, ParameterError, ShapeError
from codel.local_search import (
    _METHODS,
    _MOVE,
    _STAY,
    LocalSearchConfig,
    METHODS,
    _line_search,
    refine_many,
)
from codel.mlp import MlpTopology, classification_error
from codel.optimizer import CodelConfig, run_codel
from oracles import mse_loss, refine_reference


_CFG = LocalSearchConfig()


def _refine(initial, method, topology, data, config):
    """One run of `method` from `initial`: `refine_many` with one start."""
    return refine_many([initial], [method], topology, [data], config)[0]

# rp constants that are all powers of two: every step size, and so
# every point of a short walk from 0, is exact, and each move reads back
# exactly as the difference of two points.
_DYADIC_RP = dict(RP_STEP_INIT=0.125, RP_INCREASE=2.0, RP_DECREASE=0.5,
                  RP_STEP_MIN=2.0 ** -20, RP_STEP_MAX=32.0)


def _first(method, w, grad, **knobs):
    """The first point `method` asks for, started at w with this gradient."""
    config = LocalSearchConfig(**knobs)
    return next(_METHODS[method](np.array(w, dtype=float), 0.0, np.array(grad, dtype=float),
                                 config))


def _walk(method, grads, **knobs):
    """The points `method` visits from 0, one epoch per gradient.

    grads[k] is the gradient at point k, the start being point 0. Each
    point the method asks for is sent a loss one below the last, so it
    takes every step whole: a line search accepts its first probe, and
    gda grows its rate. The last point is sent a zero gradient, never
    used.
    """
    grads = np.array(grads, dtype=float)
    config = LocalSearchConfig(**knobs)
    points = [np.zeros(grads.shape[1])]
    run = _METHODS[method](points[0], 0.0, grads[0], config)
    for k in range(1, len(grads) + 1):
        points.append(next(run))
        grad = grads[k] if k < len(grads) else np.zeros(grads.shape[1])
        assert run.send((-float(k), grad, 50.0)) is _MOVE
    return points


def _moves(points):
    return [b - a for a, b in zip(points, points[1:])]


def _search(f, x, d, g):
    """Drive the line search from x along d on the loss f: (the points it
    probed, in order, and the one it accepted or None)."""
    run, probes = _line_search(x, f(x), g, d), []
    try:
        probes.append(next(run))
        while True:
            probes.append(run.send((f(probes[-1]), g, 0.0)))
    except StopIteration as stop:
        found = stop.value
    return probes, None if found is None else found[0]


class TestStepRp:

    def test_same_sign_grows_step(self):
        points = _walk("rp", [[1.0], [2.0]])
        assert points[1][0] == -0.1
        assert np.isclose(points[1][0] - points[2][0], 0.12)
        assert points[2][0] == points[1][0] - 0.1 * 1.2

    def test_sign_flip_shrinks_step(self):
        points = _walk("rp", [[1.0], [1.0], [-3.0]])
        assert np.isclose(points[3][0] - points[2][0], 0.06)
        assert points[3][0] == points[2][0] + 0.1 * 1.2 * 0.5

    def test_zero_gradient_freezes_weight(self):
        """A zero gradient component leaves its weight in place and its
        step size held, while the other weight keeps adapting."""
        points = _walk("rp", [[1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        assert points[2][0] == points[1][0]
        # The step size held at 0.1: the next move is exactly 0.1.
        assert points[3][0] == points[2][0] - 0.1
        assert points[3][1] == points[2][1] - 0.1 * 1.2 * 1.2

    def test_magnitude_is_ignored(self):
        """Only the gradient's sign matters, so huge and tiny gradients of
        the same sign produce the same moves."""
        tiny = _walk("rp", [[1.0], [1e-9], [1.0]])
        huge = _walk("rp", [[1.0], [1e9], [1.0]])
        np.testing.assert_array_equal(tiny, huge)

    def test_steps_stay_within_limits(self):
        grads = np.random.default_rng(0).normal(0, 1, (80, 4))
        with mock.patch.multiple(local_search, **_DYADIC_RP):
            moves = _moves(_walk("rp", grads))
        for move in moves:
            assert np.all(np.abs(move) >= _DYADIC_RP["RP_STEP_MIN"])
            assert np.all(np.abs(move) <= _DYADIC_RP["RP_STEP_MAX"])

    def test_cap_and_floor_reached(self):
        with mock.patch.multiple(local_search, **_DYADIC_RP):
            up = _moves(_walk("rp", [[1.0]] * 60))
            down = _moves(_walk("rp", [[(-1.0) ** k] for k in range(60)]))
        assert -up[-1][0] == _DYADIC_RP["RP_STEP_MAX"]
        assert abs(down[-1][0]) == _DYADIC_RP["RP_STEP_MIN"]


class TestStepGd:

    def test_arithmetic(self):
        out = _first("gd", [1.0], [2.0], learning_rate=0.1)
        assert np.isclose(out[0], 0.8)

    def test_zero_gradient(self):
        """A zero gradient component leaves its weight exactly in place."""
        out = _first("gd", [1.0, -2.0], [0.0, 3.0], learning_rate=0.3)
        np.testing.assert_array_equal(out, [1.0, -2.0 - 0.3 * 3.0])

    def test_zero_rate(self):
        # The config rejects a zero rate; a rate too small to change a
        # unit weight holds it still, while a weight at 0 still moves.
        out = _first("gd", [1.0, 0.0], [5.0, 5.0], learning_rate=1e-300)
        np.testing.assert_array_equal(out, [1.0, -5e-300])


class TestStepGdm:

    def test_no_momentum_equals_plain_descent(self):
        grads = [[2.0, 4.0], [1.0, -3.0], [0.5, 0.25]]
        plain = [np.zeros(2)]
        for grad in grads:
            plain.append(plain[-1] - 0.1 * np.array(grad))
        np.testing.assert_array_equal(
            _walk("gdm", grads, learning_rate=0.1, momentum=0.0), plain)
        np.testing.assert_array_equal(
            _walk("gdm", grads, learning_rate=0.1, momentum=0.0),
            _walk("gd", grads, learning_rate=0.1),
        )

    def test_pure_momentum_term(self):
        # The first weight's gradient drops to zero, so its second move
        # is the momentum term alone.
        moves = _moves(_walk("gdm", [[40.0, 1.0], [0.0, 1.0]],
                             learning_rate=0.1, momentum=0.9))
        assert np.isclose(-moves[0][0], 0.4)
        assert np.isclose(-moves[1][0], 0.36)

    def test_cold_start_velocity(self):
        moves = _moves(_walk("gdm", [[1.0]], learning_rate=0.1, momentum=0.9))
        assert np.isclose(moves[0][0], -0.01)


class TestStepGda:

    def _decide(self, loss_now):
        """(accepted?, rate of the next proposal) after one proposal that
        scores loss_now against a current loss of 10, at rate 0.5."""
        run = _METHODS["gda"](np.array([1.0]), 10.0, np.array([1.0]),
                              LocalSearchConfig(learning_rate=0.5))
        assert next(run)[0] == 0.5
        decision = run.send((loss_now, np.array([1.0]), 50.0))
        assert decision in (_MOVE, _STAY)
        w = 0.5 if decision is _MOVE else 1.0
        return decision is _MOVE, w - next(run)[0]

    def test_improvement_grows_rate(self):
        accepted, rate = self._decide(9.0)
        assert np.isclose(rate, 0.5 * 1.05)
        assert accepted

    def test_blow_up_shrinks_and_rejects(self):
        accepted, rate = self._decide(10.5)
        assert np.isclose(rate, 0.5 * 0.7)
        assert not accepted

    def test_equal_loss_keeps_rate(self):
        """Only a drop in loss grows the rate; an equal loss is inside
        the tolerance band, so the step is taken at the same rate."""
        accepted, rate = self._decide(10.0)
        assert rate == 0.5
        assert accepted

    def test_small_increase_tolerated(self):
        accepted, rate = self._decide(10.2)
        assert rate == 0.5
        assert accepted

    def test_boundary_increase_tolerated(self):
        accepted, rate = self._decide(10.0 * 1.04)
        assert rate == 0.5
        assert accepted


class TestStepOss:
    """A first oss step from 0 at gradient g0 moves to -g0, so the second
    epoch sees s = -g0 and y = g1 - g0."""

    def test_first_call_is_steepest_descent(self):
        np.testing.assert_array_equal(_walk("oss", [[3.0, -1.0]])[1], [-3.0, 1.0])

    def test_orthogonal_history_reduces_to_steepest_descent(self):
        """At the third epoch s = (-1,-1) and y = (-0.5,-0.5) are both
        orthogonal to g = (-0.5,0.5), so both secant scalars vanish."""
        points = _walk("oss", [[1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]])
        s, y, g = points[2] - points[1], np.array([-0.5, -0.5]), np.array([-0.5, 0.5])
        assert s @ g == 0.0 and y @ g == 0.0 and s @ y != 0.0
        np.testing.assert_array_equal(_moves(points)[2], -g)

    def test_degenerate_curvature_resets(self):
        """s = (1,0) and y = (0,1) have s.y = 0."""
        d = _moves(_walk("oss", [[-1.0, 0.0], [-1.0, 1.0]]))[1]
        np.testing.assert_array_equal(d, [1.0, -1.0])

    def test_secant_direction_mixes_history(self):
        """A usable s.y bends the direction away from -g: s = (1,0),
        y = (2,1) and g = (1,1)."""
        d = _moves(_walk("oss", [[-1.0, 0.0], [1.0, 1.0]]))[1]
        # s.y = 2, b_c = 1/2, a_c = -(1 + 5/2) / 2 + 3/2 = -1/4.
        np.testing.assert_array_equal(d, [-1.0 - 0.25 + 1.0, -1.0 + 0.5])


class TestStepCgpr:

    def test_first_call_is_steepest_descent(self):
        np.testing.assert_array_equal(_walk("cgpr", [[1.0, 2.0]])[1], [-1.0, -2.0])

    def test_hand_mixed_direction(self):
        moves = _moves(_walk("cgpr", [[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(moves[1], [-1.0, -1.0])

    def test_negative_beta_clipped(self):
        moves = _moves(_walk("cgpr", [[1.0, 0.0], [0.5, 0.0]]))
        np.testing.assert_array_equal(moves[1], [-0.5, 0.0])

    def test_periodic_restart(self):
        """With 2 weights, every third step after a restart restarts."""
        moves = _moves(_walk("cgpr", [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(moves[1], [-1.0, -1.0])
        np.testing.assert_array_equal(moves[2], [-2.0, -1.0])
        # Mixing would give (-2, -2) here.
        np.testing.assert_array_equal(moves[3], [0.0, -1.0])

    def test_zero_previous_gradient_signals_convergence(self):
        """A zero gradient signals convergence: refine stops at it as
        stationary before cgpr takes a step, and cgpr handed one at any
        epoch refuses the zero direction. So the previous gradient that
        divides the mixing coefficient is never zero."""
        for grads in ([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(ContractError):
                _walk("cgpr", grads)
        data, topo = xor_dataset(), MlpTopology((2, 4, 1))
        result = _refine(np.zeros(topo.param_count), "cgpr", topo, data,
                         LocalSearchConfig())
        assert result.stop_reason == "stationary"
        assert result.loss_history.size == 1

    def test_uphill_mix_restarts_history(self):
        """g1 = (1,0), g2 = (-1,0.1) give beta = 2.01 and an uphill mix;
        the step takes -g2, and -g2 becomes the history."""
        g1, g2, g3 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.1, 0.0], [0.5, 0.5, 0.0]])
        assert g2 @ (-g2 + 2.01 * -g1) > 0
        points = _walk("cgpr", [g1, g2, g3])
        np.testing.assert_array_equal(points[2], points[1] + -g2)
        beta = float((g3 - g2) @ g3) / float(g2 @ g2)
        np.testing.assert_array_equal(points[3], points[2] + (-g3 + beta * -g2))


class TestLineSearch:

    def test_quadratic_needs_one_halving(self):
        f = lambda x: float(x[0] ** 2)
        probes, accepted = _search(f, np.array([1.0]), np.array([-2.0]), np.array([2.0]))
        np.testing.assert_array_equal(probes, [[-1.0], [0.0]])
        assert accepted is probes[-1]

    def test_linear_accepts_full_step(self):
        f = lambda x: float(x[0])
        probes, accepted = _search(f, np.array([0.0]), np.array([-1.0]), np.array([1.0]))
        np.testing.assert_array_equal(probes, [[-1.0]])
        assert accepted is probes[-1]

    def test_probe_on_the_bound_is_accepted(self):
        """Sufficient decrease is `<=`: on f(w) = 1 + w/2 with slope -1
        and c1 = 1/2, every probe lands exactly on its bound, and the
        first one is taken."""
        f = lambda x: float(1.0 + x[0] / 2.0)
        with mock.patch.object(local_search, "ARMIJO_C1", 0.5):
            probes, accepted = _search(f, np.array([0.0]), np.array([-1.0]), np.array([1.0]))
        assert f(probes[0]) == 1.0 + 0.5 * 1.0 * -1.0
        np.testing.assert_array_equal(probes, [[-1.0]])
        assert accepted is probes[-1]

    def test_non_descent_direction_rejected(self):
        f = lambda x: float(x[0] ** 2)
        with pytest.raises(ContractError):
            _search(f, np.array([1.0]), np.array([2.0]), np.array([2.0]))

    def test_no_acceptable_step_returns_zero(self):
        """A flat objective can never satisfy sufficient decrease: every
        allowed probe fails, and the search returns no step."""
        probes, accepted = _search(lambda x: 0.0, np.array([0.0]), np.array([-1.0]),
                                   np.array([1.0]))
        assert accepted is None
        assert len(probes) == local_search.MAX_BACKTRACKS + 1

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           max_backtracks=st.integers(0, 40), armijo_c1=st.floats(1e-6, 0.999))
    def test_armijo_on_convex_quadratics(self, seed, n, max_backtracks, armijo_c1):
        """Probes are x + a*d for a = 1, 1/2, 1/4, ... in order; each
        before the accepted one fails sufficient decrease, the accepted
        one passes it, and no search probes more than max_backtracks + 1
        points."""
        rng = np.random.default_rng(seed)
        m = rng.normal(0.0, 1.0, (n, n))
        a_mat, b = m @ m.T + 1e-3 * np.eye(n), rng.normal(0.0, 1.0, n)
        f = lambda x: float(0.5 * x @ a_mat @ x - b @ x)
        x = rng.normal(0.0, 1.0, n)
        g, d = a_mat @ x - b, rng.normal(0.0, 1.0, n)
        d = -d if g @ d > 0 else d
        slope = float(g @ d)
        assume(slope < 0)
        with mock.patch.multiple(local_search, MAX_BACKTRACKS=max_backtracks,
                                 ARMIJO_C1=armijo_c1):
            probes, accepted = _search(f, x, d, g)

        assert 1 <= len(probes) <= max_backtracks + 1
        passes = []
        for i, probe in enumerate(probes):
            a = local_search.BACKTRACK_SHRINK ** i
            assert probe.tobytes() == (x + a * d).tobytes()
            passes.append(f(probe) <= f(x) + armijo_c1 * a * slope)
        assert not any(passes[:-1])
        if accepted is None:
            assert len(probes) == max_backtracks + 1 and not passes[-1]
        else:
            assert accepted is probes[-1] and passes[-1]


class TestCgprOnQuadratic:

    def test_two_step_termination(self):
        """Conjugate directions finish a 2-D quadratic in two exact steps.
        cgpr's directions depend only on the gradients it is sent, so the
        whole step it takes from each point is read as its direction, and
        the test takes the exact step along it."""
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 2.0])
        x = w = np.zeros(2)
        run = _METHODS["cgpr"](w, 0.0, A @ x - b, _CFG)
        for k in range(2):
            g = A @ x - b
            point = next(run)
            d = point - w
            alpha = -float(g @ d) / float(d @ A @ d)
            x = x + alpha * d
            assert run.send((-(k + 1.0), A @ x - b, 0.0)) is _MOVE
            w = point
        assert np.linalg.norm(A @ x - b) < 1e-6


class TestRefine:

    def test_stationary_start_returned_unchanged(self):
        """All-zero weights on balanced labels have an exactly zero
        gradient, so every method stops immediately."""
        data = xor_dataset()
        topo = MlpTopology((2, 4, 1))
        start = np.zeros(topo.param_count)
        for method in METHODS:
            result = _refine(start, method, topo, data,
                             LocalSearchConfig(epochs=50))
            np.testing.assert_array_equal(result.params, start)
            assert result.loss_history.size == 1

    def test_never_worse_than_start(self):
        data = two_gaussian_dataset(n_per_class=30, n_features=5,
                                    separation=2.0, seed=3)
        topo = MlpTopology((5, 6, 1))
        for seed in range(5):
            start = np.random.default_rng(100 + seed).uniform(
                -2, 2, topo.param_count
            )
            err0 = classification_error(start, topo, data)
            mse0 = mse_loss(start, topo, data)
            for method in METHODS:
                result = _refine(start, method, topo, data,
                                 LocalSearchConfig(epochs=120))
                assert result.final_train_error <= err0
                assert mse_loss(result.params, topo, data) <= mse0 + 1e-12

    def test_line_search_methods_descend_monotonically(self):
        data = two_gaussian_dataset(n_per_class=30, n_features=5,
                                    separation=2.0, seed=3)
        topo = MlpTopology((5, 6, 1))
        for seed in range(5):
            start = np.random.default_rng(200 + seed).uniform(
                -2, 2, topo.param_count
            )
            for method in ("oss", "cgpr"):
                result = _refine(start, method, topo, data,
                                 LocalSearchConfig(epochs=120))
                assert np.all(np.diff(result.loss_history) <= 0.0)

    def test_refines_a_searched_start(self):
        """The hand-off mirrors real use: global search, then refinement."""
        data = xor_dataset()
        topo = MlpTopology((2, 4, 1))
        searched = run_codel(
            lambda p: classification_error(p, topo, data),
            topo.param_count,
            CodelConfig(population_size=10, nfe_max=600, seed=0),
        )
        for method in METHODS:
            result = _refine(searched.best_params, method, topo, data,
                             LocalSearchConfig(epochs=100))
            assert result.final_train_error <= searched.best_fitness

    def test_history_bounded_by_epochs(self):
        data = two_gaussian_dataset(n_per_class=10, n_features=3,
                                    separation=1.0, seed=9)
        topo = MlpTopology((3, 4, 1))
        start = np.random.default_rng(1).uniform(-2, 2, topo.param_count)
        result = _refine(start, "gd", topo, data,
                         LocalSearchConfig(epochs=15))
        assert result.loss_history.size <= 15
        assert result.error_history.size == result.loss_history.size

        single = _refine(start, "gd", topo, data,
                         LocalSearchConfig(epochs=1))
        assert single.loss_history.size == 1
        np.testing.assert_array_equal(single.params, start)

    def test_patience_stops_a_stalled_run(self):
        """A vanishing learning rate cannot move the error, so the run
        ends after exactly `patience` stale epochs."""
        data = two_gaussian_dataset(n_per_class=10, n_features=3,
                                    separation=1.0, seed=9)
        topo = MlpTopology((3, 4, 1))
        start = np.random.default_rng(2).uniform(-2, 2, topo.param_count)
        result = _refine(start, "gd", topo, data,
                         LocalSearchConfig(epochs=300,
                                           learning_rate=1e-12, patience=7))
        assert result.loss_history.size == 8

    def test_gradient_at_tolerance_is_not_stationary(self):
        """Only a gradient strictly below GRAD_TOL everywhere stops the
        run as stationary; one component at it still moves."""
        run = local_search._run(np.zeros(2), "gd", LocalSearchConfig())
        next(run)
        point = run.send((1.0, np.array([local_search.GRAD_TOL, 0.0]), 50.0))
        np.testing.assert_array_equal(point, [-0.5 * local_search.GRAD_TOL, 0.0])

    def test_wrong_length_rejected(self):
        data = xor_dataset()
        with pytest.raises(ParameterError):
            _refine(np.zeros(5), "rp", MlpTopology((2, 4, 1)), data,
                    LocalSearchConfig())

    def test_config_validation(self):
        with pytest.raises(ParameterError, match="newton"):
            _refine(_start(0), "newton", _TOPO, _DATA, LocalSearchConfig())
        bad = [
            dict(epochs=0),
            dict(patience=0),
            dict(learning_rate=0.0),
            dict(learning_rate=math.inf),
            dict(momentum=1.0),
        ]
        for kwargs in bad:
            with pytest.raises(ParameterError):
                LocalSearchConfig(**kwargs)


_DATA = two_gaussian_dataset(n_per_class=12, n_features=3, separation=1.0, seed=4)
_TOPO = MlpTopology((3, 3, 1))


def _start(seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, _TOPO.param_count)


def _assert_matches_reference(start, method, topology, data, config):
    result = _refine(start, method, topology, data, config)
    params, error, losses, errors = refine_reference(start, method, topology, data, config)
    assert result.params.tobytes() == params.tobytes()
    assert result.final_train_error == error
    assert result.loss_history.tobytes() == losses.tobytes()
    assert result.error_history.tobytes() == errors.tobytes()
    return result


class _ScriptedLoss:
    """Stand-in loss functions whose gradients follow a script.

    Points are numbered in the order any of the functions first sees
    them; point n gets the nth scripted gradient (the last one repeats)
    and the loss -n. The loss falls by one at every new point, so every
    descent step with a slope above -1e4 passes the sufficient-decrease
    test whole, and a run that probes through mse_loss_and_gradient sees
    the same losses and gradients as one that probes through mse_loss.
    """

    def __init__(self, gradients):
        self.gradients = np.array(gradients, dtype=float)
        self.points = {}

    def _index(self, params):
        return self.points.setdefault(params.tobytes(), len(self.points))

    def mse_loss_and_gradient(self, params, topology, data):
        if params.ndim == 2:
            rows = [self.mse_loss_and_gradient(row, topology, data) for row in params]
            return tuple(np.array(column) for column in zip(*rows))
        n = self._index(params)
        grad = self.gradients[min(n, len(self.gradients) - 1)]
        return (float(-n), grad.copy(), self.classification_error(params, topology, data))

    def mse_loss(self, params, topology, data):
        return float(-self._index(params))

    def classification_error(self, params, topology, data):
        return 50.0

    def install(self, monkeypatch, module):
        for name in ("mse_loss_and_gradient", "mse_loss", "classification_error"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(self, name))


class TestRefineMatchesReference:
    """The method table reproduces the per-method kernels bit for bit."""

    @settings(max_examples=120)
    @given(method=st.sampled_from(METHODS), seed=st.integers(0, 2 ** 32 - 1),
           zero_start=st.booleans(), epochs=st.integers(1, 150),
           patience=st.integers(1, 150), log_rate=st.floats(-12.0, math.log10(50.0)),
           max_backtracks=st.sampled_from([0, 3, 30]),
           armijo_c1=st.sampled_from([1e-4, 0.999]))
    def test_bit_identical_and_never_worse(self, method, seed, zero_start, epochs,
                                           patience, log_rate, max_backtracks,
                                           armijo_c1):
        start = np.zeros(_TOPO.param_count) if zero_start else _start(seed)
        config = LocalSearchConfig(epochs=epochs, patience=patience,
                                   learning_rate=10.0 ** log_rate)
        with mock.patch.multiple(local_search, MAX_BACKTRACKS=max_backtracks,
                                 ARMIJO_C1=armijo_c1):
            result = _assert_matches_reference(start, method, _TOPO, _DATA, config)
        assert result.final_train_error <= classification_error(start, _TOPO, _DATA)
        assert result.final_train_error == classification_error(result.params, _TOPO, _DATA)

    @pytest.mark.parametrize("method", METHODS)
    def test_stationary_start(self, method):
        data, topo = xor_dataset(), MlpTopology((2, 4, 1))
        result = _assert_matches_reference(np.zeros(topo.param_count), method, topo, data,
                                           LocalSearchConfig(epochs=50))
        assert result.stop_reason == "stationary"

    @pytest.mark.parametrize("method", METHODS)
    def test_single_epoch(self, method):
        result = _assert_matches_reference(_start(1), method, _TOPO, _DATA,
                                           LocalSearchConfig(epochs=1))
        assert result.stop_reason == "epochs"

    @pytest.mark.parametrize("method", METHODS)
    def test_patience_stop(self, method):
        config = LocalSearchConfig(epochs=300, patience=3, learning_rate=1e-12)
        with mock.patch.object(local_search, "RP_STEP_INIT", 1e-6):
            result = _assert_matches_reference(_start(2), method, _TOPO, _DATA, config)
        assert result.stop_reason == "patience"

    @pytest.mark.parametrize("method, armijo_c1", [("oss", 1e-4), ("cgpr", 0.999)])
    def test_zero_step_line_search(self, method, armijo_c1):
        config = LocalSearchConfig(epochs=100, patience=100)
        with mock.patch.multiple(local_search, MAX_BACKTRACKS=0, ARMIJO_C1=armijo_c1):
            result = _assert_matches_reference(_start(4), method, _TOPO, _DATA, config)
        assert result.stop_reason == "line_search"

    def test_gda_rejections(self, monkeypatch):
        points = []

        def counted(params, *args, _fn=local_search.mse_loss_and_gradient):
            points.extend(row.tobytes() for row in params)
            return _fn(params, *args)

        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        config = LocalSearchConfig(epochs=60, patience=60, learning_rate=50.0)
        result = _assert_matches_reference(_start(0), "gda", _TOPO, _DATA, config)
        # A rejected step stays put, so the loss repeats; the held loss,
        # gradient and error are reused. Every epoch probes one proposal
        # in one pass, which an accepted step takes as its loss, gradient
        # and error, so the start and each proposal cost one call each.
        rejected = np.count_nonzero(np.diff(result.loss_history) == 0.0)
        assert rejected >= 3
        assert len(points) == result.loss_history.size
        assert len(set(points)) == len(points)
        assert not hasattr(local_search, "classification_error")
        assert not hasattr(local_search, "mse_loss")

    def test_cgpr_periodic_restarts(self):
        config = LocalSearchConfig(epochs=100, patience=100)
        result = _assert_matches_reference(_start(3), "cgpr", _TOPO, _DATA, config)
        assert result.loss_history.size > 3 * (_TOPO.param_count + 1)

    def test_cgpr_uphill_mix_restarts(self, monkeypatch):
        """g1 = (1,0), g2 = (-1,0.1) give beta = 2.01 and an uphill mixed
        direction; the run must restart its history exactly as before."""
        gradients = [[1.0, 0.0], [-1.0, 0.1], [0.5, 0.5], [0.3, -0.2], [-0.1, 0.4]]
        config = LocalSearchConfig(epochs=8, patience=100)
        # The scripted loss never reads the set; refine_many checks its width.
        topology = SimpleNamespace(param_count=2, n_in=_DATA.n_features)
        _ScriptedLoss(gradients).install(monkeypatch, local_search)
        result = _refine(np.zeros(2), "cgpr", topology, _DATA, config)
        _ScriptedLoss(gradients).install(monkeypatch, oracles)
        params, _, losses, _ = refine_reference(np.zeros(2), "cgpr", topology, None, config)
        assert result.params.tobytes() == params.tobytes()
        assert result.loss_history.tobytes() == losses.tobytes()
        assert result.stop_reason == "epochs"


def _assert_lockstep_matches_alone(members, config):
    """refine_many over (start, method) members gives each member the
    reference's params and histories and its lone run's stop reason,
    bit for bit, however the other members run or stop."""
    starts = [start for start, _ in members]
    methods = [method for _, method in members]
    results = refine_many(starts, methods, _TOPO, [_DATA] * len(starts), config)
    assert len(results) == len(members)
    for (start, method), result in zip(members, results):
        params, error, losses, errors = refine_reference(start, method, _TOPO, _DATA, config)
        assert result.params.tobytes() == params.tobytes()
        assert result.final_train_error == error
        assert result.loss_history.tobytes() == losses.tobytes()
        assert result.error_history.tobytes() == errors.tobytes()
        assert result.stop_reason == _refine(start, method, _TOPO, _DATA, config).stop_reason
    return results


class TestRefineMany:
    """Runs in lockstep, one stacked pass per round, against each run alone."""

    # A zero start is stationary on _DATA's balanced classes; a tiny rate
    # stalls gd, gdm and gda into patience; no backtracks end oss and
    # cgpr on a line search; a short budget ends the rest on epochs.
    @settings(max_examples=100, deadline=None)
    @given(members=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)),
                                      st.sampled_from(METHODS)), min_size=1, max_size=8),
           epochs=st.integers(1, 80), patience=st.integers(1, 40),
           log_rate=st.floats(-12.0, math.log10(50.0)),
           max_backtracks=st.sampled_from([0, 3, 30]),
           armijo_c1=st.sampled_from([1e-4, 0.999]),
           rp_step_init=st.sampled_from([1e-6, 0.1]))
    def test_each_run_matches_its_reference(self, members, epochs, patience, log_rate,
                                            max_backtracks, armijo_c1, rp_step_init):
        members = [(np.zeros(_TOPO.param_count) if seed is None else _start(seed), method)
                   for seed, method in members]
        config = LocalSearchConfig(epochs=epochs, patience=patience,
                                   learning_rate=10.0 ** log_rate)
        with mock.patch.multiple(local_search, MAX_BACKTRACKS=max_backtracks,
                                 ARMIJO_C1=armijo_c1, RP_STEP_INIT=rp_step_init):
            _assert_lockstep_matches_alone(members, config)

    def test_four_stop_reasons_in_different_rounds(self):
        config = LocalSearchConfig(epochs=20, patience=5, learning_rate=1e-12)
        members = [(np.zeros(_TOPO.param_count), "gd"), (_start(1), "oss"),
                   (_start(3), "rp"), (_start(4), "rp")]
        with mock.patch.object(local_search, "MAX_BACKTRACKS", 0):
            results = _assert_lockstep_matches_alone(members, config)
        assert [r.stop_reason for r in results] == [
            "stationary", "line_search", "patience", "epochs"]
        assert len({r.loss_history.size for r in results}) == len(results)

    def test_each_round_is_one_pass(self, monkeypatch):
        """Each round stacks every live run's next point into one pass,
        and a run that stops leaves the later rounds."""
        passes = []

        def counted(params, *args, _fn=local_search.mse_loss_and_gradient):
            passes.append(len(params))
            return _fn(params, *args)

        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        config = LocalSearchConfig(epochs=20, patience=5, learning_rate=1e-12)
        results = refine_many([_start(3), _start(4), _start(1)], ["rp", "rp", "gda"],
                              _TOPO, [_DATA] * 3, config)
        # These methods evaluate the start and one point per epoch.
        sizes = [r.loss_history.size for r in results]
        assert len(set(sizes)) > 1
        assert passes == [sum(size > r for size in sizes) for r in range(max(sizes))]

    def test_runs_on_their_own_sets_match_each_run_alone(self, monkeypatch):
        """With one set per start, two of one row count and one of
        another, each run gets its lone run's result on its own set, bit
        for bit; runs of one row count share each round's pass, so every
        round makes one pass per row count that still has a live run."""
        passes = []

        def counted(params, topology, data, _fn=local_search.mse_loss_and_gradient):
            passes.append((len(params), data.columns.shape[-1]))
            return _fn(params, topology, data)

        sets = [two_gaussian_dataset(n_per_class=n, n_features=3, separation=1.0, seed=s)
                for n, s in ((12, 4), (12, 5), (9, 6))]
        members = [(_start(3), "rp", sets[0]), (_start(4), "gda", sets[1]),
                   (_start(1), "rp", sets[2]), (_start(5), "gdm", sets[0])]
        config = LocalSearchConfig(epochs=20, patience=5, learning_rate=1e-12)
        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        results = refine_many(*zip(*[(start, method) for start, method, _ in members]),
                              _TOPO, [data for _, _, data in members], config)
        monkeypatch.undo()
        for (start, method, data), result in zip(members, results):
            alone = _refine(start, method, _TOPO, data, config)
            assert result.params.tobytes() == alone.params.tobytes()
            assert result.loss_history.tobytes() == alone.loss_history.tobytes()
            assert result.error_history.tobytes() == alone.error_history.tobytes()
            assert result.stop_reason == alone.stop_reason
        # These methods evaluate the start and one point per epoch.
        sizes = [r.loss_history.size for r in results]
        for rows, group in ((24, (0, 1, 3)), (18, (2,))):
            live = [sum(sizes[i] > r for i in group) for r in range(max(sizes[i] for i in group))]
            assert [k for k, n in passes if n == rows] == live

    def test_wrong_width_refused_naming_the_run(self):
        wide = two_gaussian_dataset(n_per_class=4, n_features=4, separation=1.0, seed=0)
        with pytest.raises(ShapeError, match="run 1"):
            refine_many([_start(0), _start(1)], ["rp", "gd"], _TOPO, [_DATA, wide], _CFG)
        with pytest.raises(ShapeError, match="run 0"):
            refine_many([_start(0)], ["rp"], _TOPO, [wide], _CFG)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            refine_many([_start(0)], ["gd", "rp"], _TOPO, [_DATA] * 2, LocalSearchConfig())
        with pytest.raises(ParameterError):
            refine_many([np.zeros(5)], ["gd"], _TOPO, [_DATA], LocalSearchConfig())
        with pytest.raises(ParameterError):
            refine_many([_start(0)], ["gd"], _TOPO, [_DATA, _DATA], LocalSearchConfig())


class TestRefineCallPattern:
    """Every point refine evaluates costs exactly one
    mse_loss_and_gradient pass, and src/ has no plain loss left."""

    # A large gda rate gets rejections; a strict cgpr test gets backtracks.
    _KNOBS = {"gda": dict(learning_rate=50.0)}

    @pytest.mark.parametrize("method", METHODS)
    def test_one_pass_per_point(self, method, monkeypatch):
        points, probes, searches, passes = [], [], [], []

        def counted(params, *args, _fn=local_search.mse_loss_and_gradient):
            passes.append(len(params))
            points.extend(row.tobytes() for row in params)
            return _fn(params, *args)

        def recorded_search(*args, _fn=local_search._line_search):
            search, reply = _fn(*args), None
            try:
                while True:
                    probe = search.send(reply)
                    probes.append(probe.tobytes())
                    reply = yield probe
            except StopIteration as stop:
                searches.append(stop.value)
                return stop.value

        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        monkeypatch.setattr(local_search, "_line_search", recorded_search)
        if method == "cgpr":
            monkeypatch.setattr(local_search, "ARMIJO_C1", 0.99)
        start = _start(0)
        config = LocalSearchConfig(epochs=60, patience=60, **self._KNOBS.get(method, {}))
        result = _assert_matches_reference(start, method, _TOPO, _DATA, config)

        assert not hasattr(local_search, "mse_loss")
        assert not hasattr(mlp, "mse_loss")
        # A lone run's every pass stacks one point.
        assert passes == [1] * len(points)
        assert len(set(points)) == len(points)
        assert points[0] == start.tobytes()
        if method in ("oss", "cgpr"):
            # Each probe is evaluated once; the accepted one is not
            # evaluated again, and some searches had to backtrack.
            assert points == [start.tobytes()] + probes
            assert len(searches) == result.loss_history.size - 1
            assert len(probes) > len(searches)
        else:
            # The start, then one point per epoch: the next weights, or
            # gda's proposal whether it is accepted or not.
            assert len(points) == result.loss_history.size
            assert len(probes) == 0


class TestStopReason:

    def test_each_exit_names_itself(self):
        xor, xor_topo = xor_dataset(), MlpTopology((2, 3, 1))
        runs = {
            "stationary": (np.zeros(xor_topo.param_count), "gd", xor_topo, xor, {}),
            "patience": (_start(2), "gd", _TOPO, _DATA,
                         dict(learning_rate=1e-12, patience=4)),
            "line_search": (_start(4), "oss", _TOPO, _DATA, {}),
            "epochs": (_start(5), "rp", _TOPO, _DATA, dict(epochs=5)),
        }
        # Only oss and cgpr search a line, so no backtracks ends the oss
        # run on a line search and leaves the other runs as they are.
        for reason, (start, method, topo, data, knobs) in runs.items():
            with mock.patch.object(local_search, "MAX_BACKTRACKS", 0):
                result = _refine(start, method, topo, data, LocalSearchConfig(**knobs))
            assert result.stop_reason == reason
