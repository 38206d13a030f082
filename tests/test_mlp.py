import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codel.mlp as mlp
from codel.errors import ParameterError, ShapeError
from codel.mlp import (
    Dataset,
    DatasetStack,
    MlpTopology,
    _forward_activations,
    _sigmoid_in_place,
    classification_error,
    decode,
    mse_loss_and_gradient,
    predict,
)

from oracles import (
    central_difference,
    classification_error_reference,
    mse_loss,
    percent_wrong_reference,
    predict_reference,
    sigmoid_reference,
)


def _random_dataset(rng, n_rows, n_features):
    return Dataset(rng.normal(0, 1, (n_rows, n_features)),
                   rng.integers(0, 2, n_rows))


class TestTopology:

    def test_param_count_small_net(self):
        assert MlpTopology((2, 3, 1)).param_count == 13

    def test_param_count_two_hidden(self):
        # (13*10+10) + (10*4+4) + (4*1+1)
        assert MlpTopology((13, 10, 4, 1)).param_count == 189

    def test_requires_hidden_layer(self):
        with pytest.raises(ParameterError):
            MlpTopology((2, 1))

    def test_rejects_empty_layer(self):
        with pytest.raises(ParameterError):
            MlpTopology((2, 0, 1))


class TestEncodeDecode:
    """decode's views are the one reader and writer of the flat layout."""

    def test_round_trip_identity(self):
        """Layers read from a vector or a stack and written through the
        views of a fresh array give the same array back."""
        rng = np.random.default_rng(0)
        for sizes in [(2, 3, 1), (5, 4, 4, 2), (1, 1, 1)]:
            topo = MlpTopology(sizes)
            for shape in [(topo.param_count,), (3, topo.param_count)]:
                v = rng.normal(0, 1, shape)
                out = np.empty(shape)
                for (w, b), (w_out, b_out) in zip(decode(v, topo), decode(out, topo)):
                    w_out[...], b_out[...] = w, b
                np.testing.assert_array_equal(out, v)

    def test_layout_is_weights_then_biases_per_layer(self):
        """Row j of a weight block is neuron j's incoming weights."""
        topo = MlpTopology((2, 3, 1))
        v = np.arange(13.0)
        layers = decode(v, topo)
        w1, b1 = layers[0]
        w2, b2 = layers[1]
        np.testing.assert_array_equal(w1, [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(b1, [6, 7, 8])
        np.testing.assert_array_equal(w2, [[9, 10, 11]])
        np.testing.assert_array_equal(b2, [12])

    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 9), min_size=3, max_size=5),
           k=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_stack_rows_and_marker_order(self, seed, sizes, k):
        """Layer l of stack row j is layer l of decode(stack[j]), and
        markers written through a fresh vector's views in the documented
        order (per layer, weights by destination then source, then
        biases) fill every slot once, in order."""
        topo = MlpTopology(tuple(sizes))
        stack = np.random.default_rng(seed).normal(0, 1, (k, topo.param_count))
        layers = decode(stack, topo)
        for j in range(k):
            for (w, b), (w_j, b_j) in zip(layers, decode(stack[j], topo), strict=True):
                assert w.shape == (k, *w_j.shape) and b.shape == (k, *b_j.shape)
                assert np.shares_memory(w, stack) and np.shares_memory(b, stack)
                assert w[j].tobytes() == w_j.tobytes() and b[j].tobytes() == b_j.tobytes()

        flat = np.empty(topo.param_count)
        marker = 0
        for (w, b), n_src, n_dst in zip(decode(flat, topo), sizes[:-1], sizes[1:], strict=True):
            assert w.shape == (n_dst, n_src) and b.shape == (n_dst,)
            for dst in range(n_dst):
                for src in range(n_src):
                    w[dst, src] = marker
                    marker += 1
            for dst in range(n_dst):
                b[dst] = marker
                marker += 1
        assert marker == topo.param_count
        np.testing.assert_array_equal(flat, np.arange(topo.param_count))

    def test_wrong_length_rejected(self):
        topo = MlpTopology((2, 3, 1))
        for shape in [(12,), (2, 12), (2, 1, 13), ()]:
            with pytest.raises(ShapeError):
                decode(np.zeros(shape), topo)


def _outputs(params, topo, rows):
    """The output layer's activations for a batch of rows, (rows, units)."""
    columns = np.ascontiguousarray(np.transpose(rows), dtype=float)
    return _forward_activations(decode(params, topo), columns)[-1].T


class TestForward:

    def test_zero_params_give_half_everywhere(self):
        topo = MlpTopology((4, 5, 2))
        rng = np.random.default_rng(1)
        out = _outputs(np.zeros(topo.param_count), topo, rng.normal(0, 3, (6, 4)))
        np.testing.assert_array_equal(out, np.full((6, 2), 0.5))

    def test_chain_of_unit_neurons(self):
        """w = 1, b = 0 everywhere: input 0 yields sigmoid(1/2) at the top."""
        topo = MlpTopology((1, 1, 1))
        out = _outputs([1.0, 0.0, 1.0, 0.0], topo, [[0.0]])
        assert np.isclose(out[0, 0], 1.0 / (1.0 + np.exp(-0.5)))

    def test_saturated_output_neuron(self):
        topo = MlpTopology((1, 1, 1))
        out = _outputs([0.0, 0.0, 1.0, -20.0], topo, [[3.0]])
        assert out[0, 0] < 1e-8

    def test_saturated_hidden_neuron_pins_output_at_half(self):
        topo = MlpTopology((1, 1, 1))
        out = _outputs([1.0, 0.0, 1.0, 0.0], topo, [[-40.0]])
        assert 0.5 <= out[0, 0] < 0.5 + 1e-12

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(2)
        topo = MlpTopology((3, 4, 2))
        params = rng.normal(0, 1, topo.param_count)
        batch = rng.normal(0, 1, (5, 3))
        out = _outputs(params, topo, batch)
        for i in range(5):
            # batched and single-row matmuls round differently
            np.testing.assert_allclose(out[i], _outputs(params, topo, batch[i:i + 1])[0],
                                       rtol=1e-12)

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        topo = MlpTopology((2, 6, 1))
        for _ in range(20):
            params = rng.normal(0, 5, topo.param_count)
            out = _outputs(params, topo, rng.normal(0, 2, (8, 2)))
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch_rejected(self):
        topo = MlpTopology((3, 4, 1))
        with pytest.raises(ShapeError):
            predict(np.zeros(topo.param_count), topo, np.zeros(4))


class TestSigmoid:

    def test_bit_identical_to_two_branch_formula(self):
        tiny = np.finfo(float).tiny
        special = np.array([
            0.0, -0.0, 1e-17, -1e-17, 1e-300, -1e-300,
            tiny / 2, -tiny / 2, 5e-324, -5e-324,
            745.0, -745.0, 800.0, -800.0,
        ])
        draws = np.random.default_rng(5).normal(0.0, 1.0, 1_000_000)
        for z in (special, draws, draws * 40.0, draws.reshape(1000, 1000)):
            ours, ref = _sigmoid_in_place(z.copy()), sigmoid_reference(z)
            assert ours.shape == ref.shape
            np.testing.assert_array_equal(ours.view(np.int64), ref.view(np.int64))

    def test_extremes_saturate_without_overflow(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = _sigmoid_in_place(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestClassificationError:

    def test_threshold_sends_half_to_one(self):
        """Zero parameters output exactly 0.5, which reads as class 1."""
        topo = MlpTopology((2, 3, 1))
        params = np.zeros(topo.param_count)
        rows = np.zeros((4, 2))
        labels = predict(params, topo, rows)
        np.testing.assert_array_equal(labels, [1, 1, 1, 1])
        assert classification_error(params, topo, Dataset(rows, [1, 1, 1, 1])) == 0.0
        assert classification_error(params, topo, Dataset(rows, [0, 0, 0, 0])) == 100.0
        assert classification_error(params, topo, Dataset(rows, [0, 1, 1, 1])) == 25.0

    def test_error_range(self):
        rng = np.random.default_rng(4)
        topo = MlpTopology((3, 4, 1))
        for _ in range(20):
            params = rng.normal(0, 2, topo.param_count)
            err = classification_error(params, topo, _random_dataset(rng, 10, 3))
            assert 0.0 <= err <= 100.0

    def test_output_layer_rescaling_keeps_decisions(self):
        """Scaling the top layer by c > 0 never moves a sample across 0.5.

        The output pre-activation scales by c, and the sigmoid sits at
        0.5 exactly where the pre-activation is 0.
        """
        rng = np.random.default_rng(5)
        topo = MlpTopology((3, 4, 1))
        for c in (0.2, 3.0, 17.0):
            params = rng.normal(0, 1, topo.param_count)
            data = _random_dataset(rng, 12, 3)
            scaled = params.copy()
            w, b = decode(scaled, topo)[-1]
            w *= c
            b *= c
            assert (classification_error(params, topo, data)
                    == classification_error(scaled, topo, data))

    def test_empty_dataset_unconstructible(self):
        """The empty case is cut off at the type: no rows cannot build."""
        data = Dataset(np.zeros((2, 2)), [0, 1])
        with pytest.raises(ShapeError):
            Dataset(data.rows[[]], data.labels[[]])


# Output pre-activations where sigmoid(z) >= 0.5 and z >= 0 can disagree:
# the sigmoid rounds to exactly 0.5 a little below zero.
EDGE_Z = (0.0, -0.0, 1e-17, -1e-17, 4.5e-17, -4.5e-17, 1e-16, -1e-16, 1e-15, -1e-15)


class TestDecisionsMatchSigmoidRule:
    """Decisions on pre-activations at and near zero against the
    reference sigmoid(z) >= 0.5."""

    @given(seed=st.integers(0, 2**32 - 1),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14),
                       st.floats(-50.0, 50.0)),
           cancel=st.booleans(),
           n_in=st.integers(1, 4), n_hidden=st.integers(1, 3), n_rows=st.integers(1, 20))
    @settings(max_examples=300)
    def test_classification_error_and_predict_match_reference(
            self, seed, z, cancel, n_in, n_hidden, n_rows):
        """The output bias is set so the pre-activation lands on or next to z.

        Without `cancel` the output weights are zero, so every row's
        pre-activation is exactly z (or +0.0 for z = -0.0). With it, the
        bias cancels one row's weighted sum, leaving that row within a few
        ulps of the sum's size around z and the other rows spread around.
        """
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, n_hidden, 1))
        data = Dataset(rng.normal(0, 1, (n_rows, n_in)), rng.integers(0, 2, n_rows))
        params = rng.normal(0, 2, topo.param_count)
        w_out, b_out = decode(params, topo)[-1]
        if cancel:
            hidden = _forward_activations(decode(params, topo), data.columns)[-2].T
            b_out[0] = z - (hidden @ w_out.T)[rng.integers(n_rows), 0]
        else:
            w_out[...], b_out[0] = 0.0, z

        assert (classification_error(params, topo, data)
                == classification_error_reference(params, topo, data))
        np.testing.assert_array_equal(predict(params, topo, data.rows),
                                      predict_reference(params, topo, data.rows))


def _edge_stack(rng, topo, rows, k, scale, z):
    """k members with weights at `scale`; each member's output layer is
    random, zero with bias z (every row's pre-activation is exactly z),
    or biased so one row's pre-activation lands within a few ulps of z,
    where the output sigmoid rounds to 0.5 or next to it."""
    stack = np.empty((k, topo.param_count))
    for v, mode in zip(stack, rng.integers(0, 3, k)):
        v[:] = rng.normal(0, scale, topo.param_count)
        w_out, b_out = decode(v, topo)[-1]
        if mode == 1:
            w_out[...], b_out[...] = 0.0, z
        elif mode == 2:
            hidden = _forward_activations(decode(v, topo), np.ascontiguousarray(rows.T))[-2].T
            b_out[...] = z - (hidden @ w_out.T)[rng.integers(len(rows))]
    return stack


class TestStackedForward:
    """The chunked stacked error against one member at a time, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           n_in=st.integers(1, 13), n_out=st.integers(1, 2), n_rows=st.integers(1, 499),
           members_per_chunk=st.one_of(st.none(), st.integers(1, 8)),
           k_chunks=st.floats(0.01, 3.0), log_scale=st.floats(-3.0, 1.0),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14)))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_per_member_calls(self, seed, widths, n_in, n_out, n_rows,
                                           members_per_chunk, k_chunks, log_scale, z):
        """k spans zero to three chunks; a drawn chunk size is set through
        the budget, and None keeps the module's own."""
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, n_out))
        data = _random_dataset(rng, n_rows, n_in)
        budget = (mlp._CHUNK_DOUBLES if members_per_chunk is None
                  else members_per_chunk * n_rows * widths[0])
        chunk = max(1, budget // (n_rows * widths[0]))
        k = min(max(1, round(k_chunks * chunk)), 60)
        stack = _edge_stack(rng, topo, data.rows, k, 10.0 ** log_scale, z)

        with mock.patch.object(mlp, "_CHUNK_DOUBLES", budget):
            errors = classification_error(stack, topo, data)
        assert errors.shape == (k,)
        per_member = [classification_error(v, topo, data) for v in stack]
        assert errors.tobytes() == np.array(per_member).tobytes()
        assert per_member == [classification_error_reference(v, topo, data) for v in stack]

    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           n_in=st.integers(1, 13), n_out=st.integers(1, 2), n_rows=st.integers(1, 200),
           k=st.integers(1, 8), log_scale=st.floats(-3.0, 1.0),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14)))
    @settings(max_examples=100)
    def test_predict_stack_rows_equal_per_member_calls(self, seed, widths, n_in, n_out,
                                                       n_rows, k, log_scale, z):
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, n_out))
        rows = rng.normal(0, 1, (n_rows, n_in))
        stack = _edge_stack(rng, topo, rows, k, 10.0 ** log_scale, z)
        labels = predict(stack, topo, rows)
        assert labels.shape == (k, n_rows)
        for member, row in zip(stack, labels):
            assert row.tobytes() == predict(member, topo, rows).tobytes()
            np.testing.assert_array_equal(row, predict_reference(member, topo, rows))

    def test_one_vector_gives_a_float(self):
        topo = MlpTopology((2, 3, 1))
        data = Dataset(np.zeros((4, 2)), [0, 1, 1, 1])
        error = classification_error(np.zeros(topo.param_count), topo, data)
        assert type(error) is float and error == 25.0
        errors = classification_error(np.zeros((1, topo.param_count)), topo, data)
        assert isinstance(errors, np.ndarray) and errors.tolist() == [25.0]

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (2, 1, 17), ()])
    def test_wrong_parameter_shape_rejected(self, shape):
        topo = MlpTopology((2, 3, 1))
        data = Dataset(np.zeros((4, 2)), [0, 1, 1, 1])
        with pytest.raises(ShapeError):
            classification_error(np.zeros(shape), topo, data)
        with pytest.raises(ShapeError):
            predict(np.zeros(shape), topo, data.rows)


def _cancelling_stack(rng, topo, k):
    """k members with weights drawn in the default box [-10, 10], clipped
    so that many sit on its faces, whose output unit 0 reads one hidden
    unit at +-10 and cancels it with a bias of -+10: where that unit
    saturates to exactly 1.0, z is exactly 0 (class 1), and where it
    falls short, z is a small number of either sign."""
    stack = np.clip(rng.normal(0, 10, (k, topo.param_count)), -10.0, 10.0)
    for v in stack:
        (_, b1), (w2, b2) = decode(v, topo)
        j = rng.integers(b1.size)
        b1[j] = 10.0
        w2[0], w2[0, j] = 0.0, rng.choice([-10.0, 10.0])
        b2[0] = -w2[0, j]
    return stack


_CERTIFIED_NETS = dict(
    seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 13), hidden=st.integers(1, 12),
    n_out=st.integers(1, 2), n_rows=st.integers(1, 300), log_scale=st.floats(-3.0, 4.0),
    k=st.integers(1, 6), z=st.sampled_from(EDGE_Z))


def _certified_case(seed, n_in, hidden, n_out, n_rows, log_scale, k, z):
    """A one-hidden-layer net, rows at 10^log_scale, and a stack of edge
    members at z, box cancellations and plain box members."""
    rng = np.random.default_rng(seed)
    topo = MlpTopology((n_in, hidden, n_out))
    data = Dataset(rng.normal(0, 10.0**log_scale, (n_rows, n_in)), rng.integers(0, 2, n_rows))
    stack = np.vstack([_edge_stack(rng, topo, data.rows, k, 10.0, z),
                       _cancelling_stack(rng, topo, k),
                       rng.uniform(-10.0, 10.0, (k, topo.param_count))])
    return topo, data, stack


class TestCertifiedPass:
    """The fast pass decides a member only where its rounding bound
    proves the exact pass's decisions, and every other member goes
    through the exact pass, so classification_error moves no bit.
    Killed mutants: the bound times 0, the hidden weights not negated
    (so the fast pass computes sigmoid(-z1)) and the 2^-40 band term
    dropped, by the first test; the bound's gamma terms times 0, by the
    second; the 2^1000 cut dropped, by the fifth; no `np.errstate`
    around the fast pass, by the last."""

    @given(**_CERTIFIED_NETS)
    @settings(max_examples=120, deadline=None)
    def test_certified_errors_equal_the_exact_pass(self, seed, n_in, hidden, n_out, n_rows,
                                                   log_scale, k, z):
        topo, data, stack = _certified_case(seed, n_in, hidden, n_out, n_rows, log_scale, k, z)
        layers = decode(stack, topo)
        exact = mlp._exact_errors(layers, data)
        z_fast, bound = mlp._fast_output(layers, data)
        decided = np.all(np.abs(z_fast) > bound[:, None], axis=1)
        certified = mlp._percent_wrong(z_fast > 0.0, data.labels)
        assert certified[decided].tobytes() == exact[decided].tobytes()
        assert classification_error(stack, topo, data).tobytes() == exact.tobytes()
        assert exact.tolist() == [classification_error_reference(v, topo, data) for v in stack]

    @given(**_CERTIFIED_NETS)
    @settings(max_examples=60, deadline=None)
    def test_fast_pass_error_is_far_inside_its_bound(self, seed, n_in, hidden, n_out, n_rows,
                                                     log_scale, k, z):
        """The bound is a worst case; the measured gap to the exact
        pass's pre-activation stays under 2^-6 of it."""
        topo, data, stack = _certified_case(seed, n_in, hidden, n_out, n_rows, log_scale, k, z)
        layers = decode(stack, topo)
        (_, _), (w2, b2) = layers
        z_fast, bound = mlp._fast_output(layers, data)
        hidden_out = np.swapaxes(_forward_activations(layers, data.columns)[-2], 1, 2)
        z_exact = (hidden_out @ np.swapaxes(w2, 1, 2) + b2[:, None, :])[..., 0]
        assert np.all(np.abs(z_fast - z_exact) <= 2.0**-6 * bound[:, None])

    def test_only_undecided_members_reach_the_exact_pass(self):
        """A member whose every row sits at -1e-17, where the exact
        sigmoid rounds to 0.5 and gives class 1, goes to the exact pass;
        a member with every row at 5 does not."""
        rng = np.random.default_rng(11)
        topo = MlpTopology((3, 4, 1))
        data = _random_dataset(rng, 30, 3)
        clear, edge = rng.uniform(-10.0, 10.0, (2, topo.param_count))
        for v, z in ((clear, 5.0), (edge, -1e-17)):
            w2, b2 = decode(v, topo)[-1]
            w2[...], b2[...] = 0.0, z
        with mock.patch.object(mlp, "_exact_errors", wraps=mlp._exact_errors) as exact:
            errors = classification_error(np.stack([clear, edge, clear]), topo, data)
        exact.assert_called_once()
        (layers, _), _ = exact.call_args
        assert np.array_equal(layers[0][0], decode(edge[None], topo)[0][0])
        wrong_if_one = 100.0 * np.count_nonzero(data.labels == 0) / len(data)
        assert errors.tolist() == [wrong_if_one] * 3

    def test_a_nan_z_leaves_its_member_undecided(self):
        """min propagates NaN: of three members whose every row sits at
        z = 5, the one given a NaN z in one row goes to the exact pass,
        though its bound is finite and its other rows clear it."""
        rng = np.random.default_rng(14)
        topo = MlpTopology((3, 4, 1))
        data = _random_dataset(rng, 30, 3)
        stack = rng.uniform(-10.0, 10.0, (3, topo.param_count))
        for v in stack:
            w2, b2 = decode(v, topo)[-1]
            w2[...], b2[...] = 0.0, 5.0
        fast_output = mlp._fast_output

        def nan_in_member_one(layers, data):
            z, bound = fast_output(layers, data)
            z[1, 7] = np.nan
            assert np.all(np.isfinite(bound))
            return z, bound

        with (mock.patch.object(mlp, "_fast_output", nan_in_member_one),
              mock.patch.object(mlp, "_exact_errors", wraps=mlp._exact_errors) as exact):
            errors = classification_error(stack, topo, data)
        exact.assert_called_once()
        (layers, _), _ = exact.call_args
        assert np.array_equal(layers[0][0], decode(stack[1:2], topo)[0][0])
        wrong_if_one = 100.0 * np.count_nonzero(data.labels == 0) / len(data)
        assert errors.tolist() == [wrong_if_one] * 3

    def test_deeper_nets_take_the_exact_pass_alone(self):
        rng = np.random.default_rng(12)
        topo = MlpTopology((3, 4, 2, 1))
        data = _random_dataset(rng, 20, 3)
        stack = rng.uniform(-10.0, 10.0, (5, topo.param_count))
        with (mock.patch.object(mlp, "_fast_output", wraps=mlp._fast_output) as fast,
              mock.patch.object(mlp, "_exact_errors", wraps=mlp._exact_errors) as exact):
            errors = classification_error(stack, topo, data)
        fast.assert_not_called()
        exact.assert_called_once()
        assert errors.tolist() == [classification_error_reference(v, topo, data) for v in stack]

    def test_scales_from_two_to_the_1000_get_no_bound(self):
        """Rows or weights that large could overflow a sum of the exact
        pass while the fast pass's stays finite; such members always go
        to the exact pass."""
        topo = MlpTopology((2, 3, 1))
        rows = np.array([[1.0, -2.0], [0.5, 3.0]])
        params = np.full((3, topo.param_count), 0.25)
        decode(params[1], topo)[0][0][...] = 2.0**1000
        decode(params[2], topo)[1][1][...] = 2.0**1000
        for scale, finite in ((1.0, [True, False, False]), (2.0**998, [True, False, False]),
                              (2.0**1000, [False, False, False])):
            _, bound = mlp._fast_output(decode(params, topo), Dataset(rows * scale, [0, 1]))
            assert np.isfinite(bound).tolist() == finite

    @pytest.mark.parametrize("weight, row_scale", [(1e200, 1.0), (1e300, 1e10),
                                                   (1e-300, 1e300), (1.0, 1e300)])
    def test_huge_scales_add_no_warning(self, weight, row_scale):
        """Weights that a refiner can reach, or rows near the largest
        float, overflow the bound; the member falls back with no warning
        from the fast pass, so a call warns exactly as the exact pass
        alone does."""
        rng = np.random.default_rng(13)
        topo = MlpTopology((3, 4, 2))
        data = Dataset(rng.normal(0, row_scale, (25, 3)), rng.integers(0, 2, 25))
        params = rng.uniform(-1.0, 1.0, topo.param_count) * weight
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = classification_error_reference(params, topo, data)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            exact = mlp._exact_errors(decode(params[None], topo), data)
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            error = classification_error(params, topo, data)
        assert error == exact[0] == reference
        assert [str(w.message) for w in raised] == [str(w.message) for w in expected]
        if not expected:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert classification_error(params, topo, data) == error


class TestMseGradient:

    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           n_in=st.integers(1, 13), n_rows=st.integers(1, 120),
           log_scale=st.floats(-3.0, 1.0),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14)),
           members_per_chunk=st.integers(1, 4), more=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_error_equals_classification_error(self, seed, widths, n_in, n_rows,
                                               log_scale, z, members_per_chunk, more):
        """The error read off the loss's own pass is classification_error's,
        for one vector and for a stack that classification_error runs in
        several chunks."""
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, 1))
        data = _random_dataset(rng, n_rows, n_in)
        k = members_per_chunk + more
        stack = _edge_stack(rng, topo, data.rows, k, 10.0 ** log_scale, z)
        params = stack[0]
        loss, _, error = mse_loss_and_gradient(params, topo, data)
        assert error == classification_error(params, topo, data)
        assert loss == mse_loss(params, topo, data)

        with mock.patch.object(mlp, "_CHUNK_DOUBLES", members_per_chunk * n_rows * widths[0]):
            errors = classification_error(stack, topo, data)
        assert errors.tobytes() == mse_loss_and_gradient(stack, topo, data)[2].tobytes()

    def test_matches_central_differences(self):
        """Backprop agrees with the finite-difference oracle per component."""
        rng = np.random.default_rng(6)
        topo = MlpTopology((2, 3, 1))
        for _ in range(20):
            params = rng.normal(0, 1, topo.param_count)
            data = _random_dataset(rng, 8, 2)
            _, grad, _ = mse_loss_and_gradient(params, topo, data)
            fd = central_difference(
                lambda p: mse_loss(p, topo, data), params, h=1e-5
            )
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_loss_agrees_with_plain_loss(self):
        rng = np.random.default_rng(7)
        topo = MlpTopology((3, 5, 1))
        params = rng.normal(0, 1, topo.param_count)
        data = _random_dataset(rng, 9, 3)
        loss, _, _ = mse_loss_and_gradient(params, topo, data)
        assert np.isclose(loss, mse_loss(params, topo, data), rtol=1e-12)

    def test_saturated_fit_has_vanishing_gradient(self):
        """Outputs pinned at the labels leave nothing to descend."""
        topo = MlpTopology((1, 1, 1))
        params = np.array([40.0, -20.0, 40.0, -20.0])
        data = Dataset([[0.0], [1.0]], [0, 1])
        loss, grad, _ = mse_loss_and_gradient(params, topo, data)
        assert loss < 1e-6
        assert np.linalg.norm(grad) < 1e-6

    def test_duplicated_dataset_changes_nothing(self):
        rng = np.random.default_rng(8)
        topo = MlpTopology((2, 4, 1))
        params = rng.normal(0, 1, topo.param_count)
        data = _random_dataset(rng, 6, 2)
        doubled = Dataset(np.vstack([data.rows, data.rows]),
                          np.concatenate([data.labels, data.labels]))
        loss_a, grad_a, _ = mse_loss_and_gradient(params, topo, data)
        loss_b, grad_b, _ = mse_loss_and_gradient(params, topo, doubled)
        assert np.isclose(loss_a, loss_b, rtol=1e-12)
        np.testing.assert_allclose(grad_a, grad_b, rtol=1e-12)

    def test_parameter_stack_rejected(self):
        """The plain loss takes one vector, so a (k, D) stack is a shape
        error there; the pass with gradient takes (D,) or (k, D) only."""
        topo = MlpTopology((2, 3, 1))
        data = Dataset(np.zeros((4, 2)), [0, 1, 1, 0])
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, topo.param_count)), topo, data)
        for shape in [(5,), (2, 5), (2, 1, topo.param_count), ()]:
            with pytest.raises(ShapeError):
                mse_loss_and_gradient(np.zeros(shape), topo, data)

    def test_gradient_length_matches_params(self):
        topo = MlpTopology((4, 3, 2))
        rng = np.random.default_rng(9)
        _, grad, _ = mse_loss_and_gradient(
            rng.normal(0, 1, topo.param_count), topo, _random_dataset(rng, 5, 4)
        )
        assert grad.shape == (topo.param_count,)


class TestStackedLossAndGradient:
    """The stacked loss pass against one member at a time, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           widths=st.lists(st.integers(1, 12), min_size=1, max_size=2),
           n_in=st.integers(1, 13), n_rows=st.integers(1, 400),
           log_scale=st.floats(-3.0, 1.0),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14)))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_per_member_calls(self, seed, k, widths, n_in, n_rows,
                                           log_scale, z):
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, 1))
        data = _random_dataset(rng, n_rows, n_in)
        stack = _edge_stack(rng, topo, data.rows, k, 10.0 ** log_scale, z)

        losses, grads, errors = mse_loss_and_gradient(stack, topo, data)
        assert losses.shape == errors.shape == (k,)
        assert grads.shape == stack.shape
        each = [mse_loss_and_gradient(v, topo, data) for v in stack]
        assert all(type(loss) is float and type(error) is float
                   and grad.shape == (topo.param_count,) for loss, grad, error in each)
        assert losses.tobytes() == np.array([loss for loss, _, _ in each]).tobytes()
        assert grads.tobytes() == np.array([grad for _, grad, _ in each]).tobytes()
        assert errors.tobytes() == np.array([error for _, _, error in each]).tobytes()


    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           widths=st.lists(st.integers(1, 12), min_size=1, max_size=2),
           n_in=st.integers(1, 13), n_rows=st.integers(1, 400),
           log_scale=st.floats(-3.0, 1.0),
           z=st.one_of(st.sampled_from(EDGE_Z), st.floats(-1e-14, 1e-14)))
    @settings(max_examples=200, deadline=None)
    def test_stack_of_sets_equals_each_members_own_set(self, seed, k, widths, n_in,
                                                       n_rows, log_scale, z):
        """A stack of per-member sets gives member i the loss, gradient
        and error of its own call on the i-th set, and that error is
        classification_error's on that set."""
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, 1))
        sets = [_random_dataset(rng, n_rows, n_in) for _ in range(k)]
        stack = np.concatenate([_edge_stack(rng, topo, data.rows, 1, 10.0 ** log_scale, z)
                                for data in sets])

        losses, grads, errors = mse_loss_and_gradient(stack, topo, DatasetStack.of(sets))
        assert losses.shape == errors.shape == (k,)
        assert grads.shape == stack.shape
        for v, data, loss, grad, error in zip(stack, sets, losses, grads, errors):
            own_loss, own_grad, own_error = mse_loss_and_gradient(v, topo, data)
            assert (own_loss, own_error) == (loss, error)
            assert own_grad.tobytes() == grad.tobytes()
            assert error == classification_error(v, topo, data)

    def test_stack_of_sets_must_match_the_members(self):
        rng = np.random.default_rng(3)
        topo = MlpTopology((2, 3, 1))
        sets = DatasetStack.of([_random_dataset(rng, 5, 2) for _ in range(3)])
        for k in (1, 2, 4):
            with pytest.raises(ShapeError):
                mse_loss_and_gradient(np.zeros((k, topo.param_count)), topo, sets)


class TestInputWidth:
    """A set whose width is not the net's input layer is a ShapeError,
    not numpy's matmul mismatch."""

    @pytest.mark.parametrize("n_features", [2, 4])
    def test_loss_and_error_refuse_the_wrong_width(self, n_features):
        rng = np.random.default_rng(4)
        topo = MlpTopology((3, 4, 1))
        data = _random_dataset(rng, 6, n_features)
        for params in (np.zeros(topo.param_count), np.zeros((2, topo.param_count))):
            with pytest.raises(ShapeError, match="n_in=3"):
                mse_loss_and_gradient(params, topo, data)
            with pytest.raises(ShapeError, match="n_in=3"):
                classification_error(params, topo, data)
        with pytest.raises(ShapeError, match="n_in=3"):
            mse_loss_and_gradient(np.zeros((2, topo.param_count)), topo,
                                  DatasetStack.of([data, data]))


class TestUnitsMajorPass:
    """The units-major loss pass on drawn deep and narrow nets, hidden
    layers of width 1 among them."""

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           n_in=st.integers(1, 5), n_rows=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_members_match_their_own_calls_and_the_oracles(self, seed, k, widths, n_in,
                                                           n_rows):
        """Per member: its own call's bits, classification_error's error,
        the plain loss to 1e-12 relative, and central differences on
        criterion 5's terms (h = 1e-5, relative error below 1e-5 over a
        1e-6 floor)."""
        rng = np.random.default_rng(seed)
        topo = MlpTopology((n_in, *widths, 1))
        data = _random_dataset(rng, n_rows, n_in)
        stack = rng.uniform(-2.0, 2.0, (k, topo.param_count))

        losses, grads, errors = mse_loss_and_gradient(stack, topo, data)
        assert errors.tobytes() == classification_error(stack, topo, data).tobytes()
        for v, loss, grad, error in zip(stack, losses, grads, errors):
            own_loss, own_grad, own_error = mse_loss_and_gradient(v, topo, data)
            assert (own_loss, own_error) == (loss, error)
            assert own_grad.tobytes() == grad.tobytes()
            assert error == classification_error(v, topo, data)
            assert abs(loss - mse_loss(v, topo, data)) <= 1e-12 * abs(loss)
            fd = central_difference(lambda p: mse_loss(p, topo, data), v, h=1e-5)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-5


class TestPercentWrong:

    @pytest.mark.parametrize("n_rows", [1, 7, 64, 401])
    def test_equals_the_count_of_disagreements(self, n_rows):
        """On one set's positives and on a stack's, the sum of the
        disagreeing booleans gives the `count_nonzero` percentage bit
        for bit."""
        rng = np.random.default_rng(n_rows)
        sets = [_random_dataset(rng, n_rows, 2) for _ in range(5)]
        ones = rng.integers(0, 2, (5, n_rows)).astype(bool)
        single = mlp._percent_wrong(ones, sets[0].positives)
        assert single.tobytes() == percent_wrong_reference(ones, sets[0].labels).tobytes()
        stack = DatasetStack.of(sets)
        stacked = mlp._percent_wrong(ones, stack.positives)
        assert stacked.tobytes() == percent_wrong_reference(ones, stack.labels).tobytes()


class TestContainers:

    def test_dataset_validation(self):
        with pytest.raises(ParameterError):
            Dataset([[0.0], [1.0]], [0, 2])
        with pytest.raises(ShapeError):
            Dataset([[0.0], [1.0]], [0, 1, 1])
        with pytest.raises(ParameterError):
            Dataset([[np.nan], [1.0]], [0, 1])

    def test_fast_pass_inputs_are_built_once(self):
        """The transposed rows with their row of ones, and the largest
        magnitude, are cached: a search's objective calls share them."""
        data = Dataset([[1.0, -3.0], [2.0, 0.5]], [0, 1])
        assert data.columns_with_ones is data.columns_with_ones
        np.testing.assert_array_equal(data.columns_with_ones, [[1.0, 2.0], [-3.0, 0.5], [1.0, 1.0]])
        assert data.max_abs == 3.0

    def test_positives_are_cached_read_only_booleans(self):
        """The labels as booleans, True for class 1, built once and
        read-only, like the other cached inputs."""
        data = Dataset([[0.0], [1.0], [2.0]], [1, 0, 1])
        assert data.positives is data.positives
        assert data.positives.dtype == bool
        assert data.positives.tolist() == [True, False, True]
        with pytest.raises(ValueError):
            data.positives[0] = False

    def test_forward_pass_inputs_are_built_once(self):
        """The units-major pass reads the transposed rows, C-contiguous,
        read-only and cached."""
        data = Dataset([[1.0, -3.0], [2.0, 0.5]], [0, 1])
        assert data.columns is data.columns
        assert data.columns.flags.c_contiguous and not data.columns.flags.writeable
        np.testing.assert_array_equal(data.columns, [[1.0, 2.0], [-3.0, 0.5]])

    def test_rows_and_labels_are_private_read_only_copies(self):
        """A write into the caller's arrays after a pass leaves the
        Dataset, and the inputs it cached, as built; its own arrays
        refuse writes."""
        rng = np.random.default_rng(7)
        rows, labels = rng.normal(0, 1, (40, 3)), rng.integers(0, 2, 40)
        original = (rows.copy(), labels.copy())
        topo = MlpTopology((3, 4, 1))
        w = rng.uniform(-2, 2, topo.param_count)
        data = Dataset(rows, labels)
        mse_loss_and_gradient(w, topo, data)
        rows *= -1
        labels ^= 1
        fresh = Dataset(*original)
        np.testing.assert_array_equal(data.rows, original[0])
        loss, _, error = mse_loss_and_gradient(w, topo, data)
        assert (loss, error) == mse_loss_and_gradient(w, topo, fresh)[::2]
        assert predict(w, topo, data.rows).tobytes() == predict(w, topo, fresh.rows).tobytes()
        with pytest.raises(ValueError):
            data.rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            data.labels[0] = 1
