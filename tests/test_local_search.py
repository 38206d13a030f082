import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codel.local_search as local_search
import codel.mlp as mlp
import oracles
from codel.datasets import two_gaussian_dataset, xor_dataset
from codel.errors import ContractError, ParameterError
from codel.local_search import (
    _STEPPERS,
    LocalSearchConfig,
    METHODS,
    backtracking_line_search,
    refine,
)
from codel.mlp import MlpTopology, classification_error, mse_loss
from codel.optimizer import CodelConfig, run_codel
from oracles import refine_reference


_CFG = LocalSearchConfig()


def _stepper(method, size, config=None, **knobs):
    """A fresh `method` step function for `size` weights."""
    config = config or LocalSearchConfig(method=method, **knobs)
    return _STEPPERS[method](np.zeros(size), config)


def _linear(grad):
    """A loss with slope `grad` everywhere: every descent step passes the
    sufficient-decrease test whole, so a line step moves by exactly d."""
    return lambda x: float(grad @ x)


def _move(step, grad, w=None):
    """How far one step from w (default 0) moves on the loss _linear(grad)."""
    grad = np.array(grad, dtype=float)
    w = np.zeros(grad.size) if w is None else np.array(w, dtype=float)
    loss_at = _linear(grad)
    return step(w, loss_at(w), grad, loss_at) - w


class TestStepRp:

    def _primed(self, *grads):
        """An rp step that has already seen these gradients."""
        step = _stepper("rp", 1)
        for g in grads:
            _move(step, [g])
        return step

    def test_same_sign_grows_step(self):
        out = self._primed(1.0)(np.array([1.0]), 0.0, np.array([2.0]), None)
        assert np.isclose(1.0 - out[0], 0.12)
        assert np.isclose(out[0], 1.0 - 0.12)

    def test_sign_flip_shrinks_step(self):
        out = self._primed(1.0, 1.0)(np.array([1.0]), 0.0, np.array([-3.0]), None)
        assert np.isclose(out[0] - 1.0, 0.06)
        assert np.isclose(out[0], 1.0 + 0.06)

    def test_zero_gradient_freezes_weight(self):
        step = self._primed(1.0)
        out = step(np.array([1.0]), 0.0, np.array([0.0]), None)
        assert out[0] == 1.0
        # The step size held at 0.1: the next move is exactly 0.1.
        assert _move(step, [1.0])[0] == -0.1

    def test_magnitude_is_ignored(self):
        """Only the gradient's sign matters, so huge and tiny gradients of
        the same sign produce the same move."""
        a, b = self._primed(1.0), self._primed(1.0)
        np.testing.assert_array_equal(_move(a, [1e-9]), _move(b, [1e9]))
        np.testing.assert_array_equal(_move(a, [1.0]), _move(b, [1.0]))

    def test_steps_stay_within_limits(self):
        rng = np.random.default_rng(0)
        step = _stepper("rp", 4)
        for _ in range(80):
            size = np.abs(_move(step, rng.normal(0, 1, 4)))
            assert np.all(size >= _CFG.rp_step_min)
            assert np.all(size <= _CFG.rp_step_max)

    def test_cap_and_floor_reached(self):
        up = _stepper("rp", 1)
        for _ in range(60):
            move = _move(up, [1.0])
        assert -move[0] == _CFG.rp_step_max

        down = _stepper("rp", 1)
        sign = -1.0
        for _ in range(60):
            move = _move(down, [sign])
            sign = -sign
        assert abs(move[0]) == _CFG.rp_step_min


class TestStepGd:

    def test_arithmetic(self):
        out = _stepper("gd", 1, learning_rate=0.1)(np.array([1.0]), 0.0, np.array([2.0]), None)
        assert np.isclose(out[0], 0.8)

    def test_zero_gradient(self):
        step = _stepper("gd", 2, learning_rate=0.3)
        np.testing.assert_array_equal(
            step(np.array([1.0, -2.0]), 0.0, np.zeros(2), None), [1.0, -2.0]
        )

    def test_zero_rate(self):
        # The config rejects a zero rate; the update rule itself holds still.
        step = _stepper("gd", 1, SimpleNamespace(learning_rate=0.0))
        np.testing.assert_array_equal(
            step(np.array([1.0]), 0.0, np.array([5.0]), None), [1.0]
        )


class TestStepGdm:

    def test_no_momentum_equals_plain_descent(self):
        w = np.array([1.0, -1.0])
        g = np.array([2.0, 4.0])
        gdm = _stepper("gdm", 2, learning_rate=0.1, momentum=0.0)
        gd = _stepper("gd", 2, learning_rate=0.1)
        np.testing.assert_array_equal(gdm(w, 0.0, g, None), gd(w, 0.0, g, None))

    def test_pure_momentum_term(self):
        step = _stepper("gdm", 1, learning_rate=0.1, momentum=0.9)
        assert np.isclose(-_move(step, [40.0])[0], 0.4)
        assert np.isclose(-_move(step, [0.0])[0], 0.36)

    def test_cold_start_velocity(self):
        step = _stepper("gdm", 1, learning_rate=0.1, momentum=0.9)
        assert np.isclose(_move(step, [1.0])[0], -0.01)


class TestStepGda:

    def _decide(self, loss_now):
        """(accepted?, rate of the next proposal) after one proposal that
        scores loss_now against a current loss of 10, at rate 0.5."""
        step = _stepper("gda", 1, learning_rate=0.5)
        w, g = np.array([1.0]), np.array([1.0])
        out = step(w, 10.0, g, lambda p: loss_now)
        assert out is w or out[0] == 0.5
        # An unchanged loss is accepted without touching the rate.
        follow = step(w, 10.0, g, lambda p: 10.0)
        return out is not w, 1.0 - follow[0]

    def test_improvement_grows_rate(self):
        accepted, rate = self._decide(9.0)
        assert np.isclose(rate, 0.5 * 1.05)
        assert accepted

    def test_blow_up_shrinks_and_rejects(self):
        accepted, rate = self._decide(10.5)
        assert np.isclose(rate, 0.5 * 0.7)
        assert not accepted

    def test_small_increase_tolerated(self):
        accepted, rate = self._decide(10.2)
        assert rate == 0.5
        assert accepted

    def test_boundary_increase_tolerated(self):
        accepted, rate = self._decide(10.0 * 1.04)
        assert rate == 0.5
        assert accepted


class TestStepOss:

    def _after(self, s, y, g):
        """The direction taken at gradient g, after a step s that
        changed the gradient by y."""
        step = _stepper("oss", 2)
        g = np.array(g, dtype=float)
        _move(step, g - y)
        return _move(step, g, w=s)

    def test_first_call_is_steepest_descent(self):
        np.testing.assert_array_equal(_move(_stepper("oss", 2), [3.0, -1.0]), [-3.0, 1.0])

    def test_orthogonal_history_reduces_to_steepest_descent(self):
        """With s = y = (1,0) and g = (0,1) both secant scalars vanish."""
        d = self._after([1.0, 0.0], np.array([1.0, 0.0]), [0.0, 1.0])
        np.testing.assert_array_equal(d, [0.0, -1.0])

    def test_degenerate_curvature_resets(self):
        d = self._after([1.0, 0.0], np.array([0.0, 1.0]), [2.0, 5.0])
        np.testing.assert_array_equal(d, [-2.0, -5.0])

    def test_secant_direction_mixes_history(self):
        """A usable s.y bends the direction away from -g."""
        d = self._after([1.0, 0.0], np.array([2.0, 1.0]), [1.0, 1.0])
        # s.y = 2, b_c = 1/2, a_c = -(1 + 5/2) / 2 + 3/2 = -1/4.
        np.testing.assert_array_equal(d, [-1.0 - 0.25 + 1.0, -1.0 + 0.5])


class TestStepCgpr:

    def test_first_call_is_steepest_descent(self):
        np.testing.assert_array_equal(_move(_stepper("cgpr", 2), [1.0, 2.0]), [-1.0, -2.0])

    def test_hand_mixed_direction(self):
        step = _stepper("cgpr", 2)
        _move(step, [1.0, 0.0])
        np.testing.assert_array_equal(_move(step, [0.0, 1.0]), [-1.0, -1.0])

    def test_negative_beta_clipped(self):
        step = _stepper("cgpr", 2)
        _move(step, [1.0, 0.0])
        np.testing.assert_array_equal(_move(step, [0.5, 0.0]), [-0.5, 0.0])

    def test_periodic_restart(self):
        """With 2 weights, every third step after a restart restarts."""
        step = _stepper("cgpr", 2)
        _move(step, [1.0, 0.0])
        np.testing.assert_array_equal(_move(step, [0.0, 1.0]), [-1.0, -1.0])
        np.testing.assert_array_equal(_move(step, [1.0, 0.0]), [-2.0, -1.0])
        # Mixing would give (-2, -2) here.
        np.testing.assert_array_equal(_move(step, [0.0, 1.0]), [0.0, -1.0])

    def test_zero_previous_gradient_signals_convergence(self, monkeypatch):
        """A zero previous gradient leaves no conjugate direction: the
        step falls back to -grad and the history restarts from it."""
        # The real line search refuses the zero direction of a zero
        # gradient, so take every step whole.
        monkeypatch.setattr(local_search, "backtracking_line_search",
                            lambda f, x, d, g, f0, config: 1.0)
        step = _stepper("cgpr", 2)
        _move(step, [0.0, 0.0])
        np.testing.assert_array_equal(_move(step, [1.0, 1.0]), [-1.0, -1.0])
        # beta = ((2,1) - (1,1)).(2,1) / 2 = 1, mixed with d = (-1,-1).
        np.testing.assert_array_equal(_move(step, [2.0, 1.0]), [-3.0, -2.0])

    def test_uphill_mix_restarts_history(self):
        """g1 = (1,0), g2 = (-1,0.1) give beta = 2.01 and an uphill mix;
        the step takes -g2, and -g2 becomes the history."""
        g1, g2, g3 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.1, 0.0], [0.5, 0.5, 0.0]])
        step = _stepper("cgpr", 3)
        _move(step, g1)
        assert g2 @ (-g2 + 2.01 * -g1) > 0
        np.testing.assert_array_equal(_move(step, g2), -g2)
        beta = float((g3 - g2) @ g3) / float(g2 @ g2)
        np.testing.assert_array_equal(_move(step, g3), -g3 + beta * -g2)


class TestLineSearch:

    def test_quadratic_needs_one_halving(self):
        f = lambda x: float(x[0] ** 2)
        a = backtracking_line_search(f, np.array([1.0]), np.array([-2.0]),
                                     np.array([2.0]), 1.0)
        assert a == 0.5

    def test_linear_accepts_full_step(self):
        f = lambda x: float(x[0])
        a = backtracking_line_search(f, np.array([0.0]), np.array([-1.0]),
                                     np.array([1.0]), 0.0)
        assert a == 1.0

    def test_non_descent_direction_rejected(self):
        f = lambda x: float(x[0] ** 2)
        with pytest.raises(ContractError):
            backtracking_line_search(f, np.array([1.0]), np.array([2.0]),
                                     np.array([2.0]), 1.0)

    def test_no_acceptable_step_returns_zero(self):
        """A flat objective can never satisfy sufficient decrease."""
        f = lambda x: 0.0
        a = backtracking_line_search(f, np.array([0.0]), np.array([-1.0]),
                                     np.array([1.0]), 0.0)
        assert a == 0.0


class TestCgprOnQuadratic:

    def test_two_step_termination(self):
        """Conjugate directions finish a 2-D quadratic in two exact steps."""
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 2.0])
        x = np.zeros(2)
        step = _stepper("cgpr", 2)
        for _ in range(2):
            g = A @ x - b
            d = _move(step, g)
            alpha = -float(g @ d) / float(d @ A @ d)
            x = x + alpha * d
        assert np.linalg.norm(A @ x - b) < 1e-6


class TestRefine:

    def test_stationary_start_returned_unchanged(self):
        """All-zero weights on balanced labels have an exactly zero
        gradient, so every method stops immediately."""
        data = xor_dataset()
        topo = MlpTopology((2, 4, 1))
        start = np.zeros(topo.param_count)
        for method in METHODS:
            result = refine(start, topo, data,
                            LocalSearchConfig(method=method, epochs=50))
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
                result = refine(start, topo, data,
                                LocalSearchConfig(method=method, epochs=120))
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
                result = refine(start, topo, data,
                                LocalSearchConfig(method=method, epochs=120))
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
            result = refine(searched.best_params, topo, data,
                            LocalSearchConfig(method=method, epochs=100))
            assert result.final_train_error <= searched.best_fitness

    def test_history_bounded_by_epochs(self):
        data = two_gaussian_dataset(n_per_class=10, n_features=3,
                                    separation=1.0, seed=9)
        topo = MlpTopology((3, 4, 1))
        start = np.random.default_rng(1).uniform(-2, 2, topo.param_count)
        result = refine(start, topo, data,
                        LocalSearchConfig(method="gd", epochs=15))
        assert result.loss_history.size <= 15
        assert result.error_history.size == result.loss_history.size

        single = refine(start, topo, data,
                        LocalSearchConfig(method="gd", epochs=1))
        assert single.loss_history.size == 1
        np.testing.assert_array_equal(single.params, start)

    def test_patience_stops_a_stalled_run(self):
        """A vanishing learning rate cannot move the error, so the run
        ends after exactly `patience` stale epochs."""
        data = two_gaussian_dataset(n_per_class=10, n_features=3,
                                    separation=1.0, seed=9)
        topo = MlpTopology((3, 4, 1))
        start = np.random.default_rng(2).uniform(-2, 2, topo.param_count)
        result = refine(start, topo, data,
                        LocalSearchConfig(method="gd", epochs=300,
                                          learning_rate=1e-12, patience=7))
        assert result.loss_history.size == 8

    def test_wrong_length_rejected(self):
        data = xor_dataset()
        with pytest.raises(ParameterError):
            refine(np.zeros(5), MlpTopology((2, 4, 1)), data,
                   LocalSearchConfig())

    def test_config_validation(self):
        bad = [
            dict(method="newton"),
            dict(epochs=0),
            dict(patience=0),
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(rp_increase=0.9),
            dict(rp_decrease=1.1),
            dict(rp_step_min=0.2, rp_step_init=0.1),
            dict(gda_increase=0.9),
            dict(backtrack_shrink=1.0),
        ]
        for kwargs in bad:
            with pytest.raises(ParameterError):
                LocalSearchConfig(**kwargs)


_DATA = two_gaussian_dataset(n_per_class=12, n_features=3, separation=1.0, seed=4)
_TOPO = MlpTopology((3, 3, 1))


def _start(seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, _TOPO.param_count)


def _assert_matches_reference(start, topology, data, config):
    result = refine(start, topology, data, config)
    params, error, losses, errors = refine_reference(start, topology, data, config)
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
        config = LocalSearchConfig(method=method, epochs=epochs, patience=patience,
                                   learning_rate=10.0 ** log_rate,
                                   max_backtracks=max_backtracks, armijo_c1=armijo_c1)
        result = _assert_matches_reference(start, _TOPO, _DATA, config)
        assert result.final_train_error <= classification_error(start, _TOPO, _DATA)
        assert result.final_train_error == classification_error(result.params, _TOPO, _DATA)

    @pytest.mark.parametrize("method", METHODS)
    def test_stationary_start(self, method):
        data, topo = xor_dataset(), MlpTopology((2, 4, 1))
        result = _assert_matches_reference(np.zeros(topo.param_count), topo, data,
                                           LocalSearchConfig(method=method, epochs=50))
        assert result.stop_reason == "stationary"

    @pytest.mark.parametrize("method", METHODS)
    def test_single_epoch(self, method):
        result = _assert_matches_reference(_start(1), _TOPO, _DATA,
                                           LocalSearchConfig(method=method, epochs=1))
        assert result.stop_reason == "epochs"

    @pytest.mark.parametrize("method", METHODS)
    def test_patience_stop(self, method):
        config = LocalSearchConfig(method=method, epochs=300, patience=3,
                                   learning_rate=1e-12, rp_step_init=1e-6)
        result = _assert_matches_reference(_start(2), _TOPO, _DATA, config)
        assert result.stop_reason == "patience"

    @pytest.mark.parametrize("method, armijo_c1", [("oss", 1e-4), ("cgpr", 0.999)])
    def test_zero_step_line_search(self, method, armijo_c1):
        config = LocalSearchConfig(method=method, epochs=100, patience=100,
                                   max_backtracks=0, armijo_c1=armijo_c1)
        result = _assert_matches_reference(_start(4), _TOPO, _DATA, config)
        assert result.stop_reason == "line_search"

    def test_gda_rejections(self, monkeypatch):
        points = []

        def counted(params, *args, _fn=local_search.mse_loss_and_gradient):
            points.append(params.tobytes())
            return _fn(params, *args)

        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        config = LocalSearchConfig(method="gda", epochs=60, patience=60, learning_rate=50.0)
        result = _assert_matches_reference(_start(0), _TOPO, _DATA, config)
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
        config = LocalSearchConfig(method="cgpr", epochs=100, patience=100)
        result = _assert_matches_reference(_start(3), _TOPO, _DATA, config)
        assert result.loss_history.size > 3 * (_TOPO.param_count + 1)

    def test_cgpr_uphill_mix_restarts(self, monkeypatch):
        """g1 = (1,0), g2 = (-1,0.1) give beta = 2.01 and an uphill mixed
        direction; the run must restart its history exactly as before."""
        gradients = [[1.0, 0.0], [-1.0, 0.1], [0.5, 0.5], [0.3, -0.2], [-0.1, 0.4]]
        config = LocalSearchConfig(method="cgpr", epochs=8, patience=100)
        topology = SimpleNamespace(param_count=2)
        _ScriptedLoss(gradients).install(monkeypatch, local_search)
        result = refine(np.zeros(2), topology, None, config)
        _ScriptedLoss(gradients).install(monkeypatch, oracles)
        params, _, losses, _ = refine_reference(np.zeros(2), topology, None, config)
        assert result.params.tobytes() == params.tobytes()
        assert result.loss_history.tobytes() == losses.tobytes()
        assert result.stop_reason == "epochs"


class TestRefineCallPattern:
    """Every point refine evaluates costs exactly one
    mse_loss_and_gradient pass, and mse_loss is never called."""

    # A large gda rate gets rejections; a strict cgpr test gets backtracks.
    _KNOBS = {"gda": dict(learning_rate=50.0), "cgpr": dict(armijo_c1=0.99)}

    @pytest.mark.parametrize("method", METHODS)
    def test_one_pass_per_point(self, method, monkeypatch):
        points, probes, searches = [], [], []

        def counted(params, *args, _fn=local_search.mse_loss_and_gradient):
            points.append(params.tobytes())
            return _fn(params, *args)

        def plain_loss(*args, _fn=mlp.mse_loss):
            points.append("mse_loss")
            return _fn(*args)

        def recorded_search(f, *args, _fn=local_search.backtracking_line_search):
            def probe(x):
                probes.append(x.tobytes())
                return f(x)
            searches.append(_fn(probe, *args))
            return searches[-1]

        monkeypatch.setattr(local_search, "mse_loss_and_gradient", counted)
        monkeypatch.setattr(mlp, "mse_loss", plain_loss)
        monkeypatch.setattr(local_search, "backtracking_line_search", recorded_search)
        start = _start(0)
        config = LocalSearchConfig(method=method, epochs=60, patience=60,
                                   **self._KNOBS.get(method, {}))
        result = _assert_matches_reference(start, _TOPO, _DATA, config)

        assert not hasattr(local_search, "mse_loss")
        assert "mse_loss" not in points
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
            "stationary": (np.zeros(xor_topo.param_count), xor_topo, xor, dict(method="gd")),
            "patience": (_start(2), _TOPO, _DATA,
                         dict(method="gd", learning_rate=1e-12, patience=4)),
            "line_search": (_start(4), _TOPO, _DATA, dict(method="oss", max_backtracks=0)),
            "epochs": (_start(5), _TOPO, _DATA, dict(method="rp", epochs=5)),
        }
        for reason, (start, topo, data, knobs) in runs.items():
            assert refine(start, topo, data, LocalSearchConfig(**knobs)).stop_reason == reason
