import json
import re

import numpy as np
import pytest

from conftest import (
    analytic_grad,
    check_gradient,
    finite_diff_grad,
    max_rel_error,
    peak_bytes,
    reference_backward,
    reference_forward,
)
from gbpl import nnet
from gbpl.methods import FittedPolicy, squared_surrogate
from gbpl.losses import (
    CrossEntropyLogitsLoss,
    FullVectorSurrogateLoss,
    MaskedRegressionLoss,
    WeightedLogisticLoss,
)


class TestArchitecture:
    def test_param_count_small(self):
        arch = nnet.MlpArchitecture(2, (3,), 1, nnet.HEAD_TANH)
        assert arch.param_count == 2 * 3 + 3 + 3 * 1 + 1 == 13

    def test_head_constraints(self):
        with pytest.raises(ValueError):
            nnet.MlpArchitecture(2, (), 3, nnet.HEAD_TANH)
        with pytest.raises(ValueError):
            nnet.MlpArchitecture(2, (), 1, nnet.HEAD_SOFTMAX)
        with pytest.raises(ValueError):
            nnet.MlpArchitecture(2, (), 1, "sigmoid")


def _with_entry(a, value):
    """A copy of ``a`` whose second entry is ``value``."""
    a = a.copy()
    a.flat[1] = value
    return a


class TestLossAdapters:
    @pytest.mark.parametrize("build, message", [
        (lambda x: MaskedRegressionLoss(x, np.zeros(3), np.zeros(4, dtype=np.intp)),
         "targets row count differs from x"),
        (lambda x: WeightedLogisticLoss(x, np.zeros(4), np.ones(3)),
         "weights row count differs from x"),
        (lambda x: WeightedLogisticLoss(x, np.zeros(4), np.array([1.0, -1.0, 0.0, 0.0])),
         "weights must be nonnegative"),
        (lambda x: WeightedLogisticLoss(x, np.zeros(4), _with_entry(np.ones(4), np.nan)),
         "weights must be finite"),
        (lambda x: WeightedLogisticLoss(x, np.zeros(4), _with_entry(np.ones(4), np.inf)),
         "weights must be finite"),
        (lambda x: MaskedRegressionLoss(x, np.zeros(4), np.zeros(3, dtype=np.intp)),
         r"cols row count differs from x: shape \(3,\), not \(4,\)"),
        (lambda x: MaskedRegressionLoss(x, np.zeros(4), np.array([0, 1, -1, 0])),
         "cols must be nonnegative"),
        (lambda x: CrossEntropyLogitsLoss(x, np.array([0.0, 1.0, 1.0, 0.0])),
         "targets must be integer column indices, got float64"),
        (lambda x: CrossEntropyLogitsLoss(x, np.array([0, -1, 1, 0])),
         "targets must be nonnegative"),
        (lambda x: squared_surrogate(x, _with_entry(np.zeros(4), np.nan), 0.1, (),
                                     nnet.HEAD_TANH),
         "targets must be finite"),
        (lambda x: squared_surrogate(_with_entry(x, np.inf), np.zeros(4), 0.1, (),
                                     nnet.HEAD_TANH),
         "x must be finite"),
    ], ids=["targets-rows", "weights-rows", "negative-weights", "nan-weight", "inf-weight",
            "cols-rows", "negative-cols", "non-integer-class", "negative-class", "nan-target",
            "inf-covariate"])
    def test_adapter_rejects_mismatched_or_negative_arrays(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(np.zeros((4, 2)))


class TestInit:
    def test_biases_zero_no_hidden(self):
        arch = nnet.MlpArchitecture(4, (), 1, nnet.HEAD_IDENTITY)
        params = nnet.init_params(arch, np.random.default_rng(0))
        w, b = nnet.unflatten(arch, params)[0]
        assert np.all(b == 0.0)
        assert w.shape == (4, 1)

    def test_same_seed_bitwise_identical(self):
        arch = nnet.MlpArchitecture(3, (5, 5), 2, nnet.HEAD_SOFTMAX)
        p1 = nnet.init_params(arch, np.random.default_rng(17))
        p2 = nnet.init_params(arch, np.random.default_rng(17))
        assert np.array_equal(p1, p2)

    def test_uniform_bound_per_layer(self):
        arch = nnet.MlpArchitecture(8, (16,), 4, nnet.HEAD_IDENTITY)
        params = nnet.init_params(arch, np.random.default_rng(3))
        for (w, b), (fan_in, fan_out) in zip(nnet.unflatten(arch, params), arch.layer_dims):
            s = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= s)
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_params_tanh_is_zero(self):
        arch = nnet.MlpArchitecture(3, (4,), 1, nnet.HEAD_TANH)
        out = nnet.forward(arch, np.zeros(arch.param_count), np.random.default_rng(0).standard_normal((10, 3)))
        assert np.all(out == 0.0)

    def test_zero_params_softmax_uniform(self):
        arch = nnet.MlpArchitecture(3, (4,), 5, nnet.HEAD_SOFTMAX)
        out = nnet.forward(arch, np.zeros(arch.param_count), np.ones((6, 3)))
        np.testing.assert_allclose(out, 0.2, rtol=0, atol=1e-15)

    def test_tanh_strictly_inside_unit_interval(self):
        # float64 tanh saturates to exactly 1.0 for |z| > ~19, so the strict
        # bound is tested at the scale ordinary initializations produce
        rng = np.random.default_rng(5)
        arch = nnet.MlpArchitecture(4, (8, 8), 1, nnet.HEAD_TANH)
        params = nnet.init_params(arch, rng)
        out = nnet.forward(arch, params, rng.standard_normal((1000, 4)))
        assert np.all(np.abs(out) < 1.0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        arch = nnet.MlpArchitecture(4, (8,), 3, nnet.HEAD_SOFTMAX)
        params = nnet.init_params(arch, rng) * 5.0
        out = nnet.forward(arch, params, rng.standard_normal((500, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out > 0.0)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(7)
        arch = nnet.MlpArchitecture(4, (8,), 2, nnet.HEAD_SOFTMAX)
        params = nnet.init_params(arch, rng)
        x = rng.standard_normal((20, 4))
        assert np.array_equal(nnet.forward(arch, params, x), nnet.forward(arch, params, x))

    def test_dimension_mismatch(self):
        arch = nnet.MlpArchitecture(4, (), 1, nnet.HEAD_IDENTITY)
        with pytest.raises(ValueError):
            nnet.forward(arch, np.zeros(arch.param_count), np.zeros((3, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        rng = np.random.default_rng(11)
        arch = nnet.MlpArchitecture(3, (6,), 2, nnet.HEAD_SOFTMAX)
        params = nnet.init_params(arch, rng)
        x = rng.standard_normal((9, 3))
        g = nnet.backward(arch, params, x, np.zeros((9, 2)))
        assert np.all(g == 0.0)

    def test_shape_mismatch(self):
        arch = nnet.MlpArchitecture(3, (), 1, nnet.HEAD_IDENTITY)
        with pytest.raises(ValueError):
            nnet.backward(arch, np.zeros(arch.param_count), np.zeros((4, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("with_workspace", [False, True], ids=["stateless", "workspace"])
    def test_empty_batch_rejected_naming_the_cause(self, with_workspace):
        arch = nnet.MlpArchitecture(3, (4,), 1, nnet.HEAD_TANH)
        params = np.zeros(arch.param_count)
        x = np.zeros((0, 3))
        ws = None
        if with_workspace:
            ws = nnet.Workspace(arch, 4)
            nnet.forward(arch, params, x, ws)
        with pytest.raises(ValueError, match="x has no rows"):
            nnet.backward(arch, params, x, np.zeros((0, 1)), ws)

    def test_linear_least_squares_closed_form(self):
        # single affine layer, identity head, 0.5 * ||Xw + b - y||^2:
        # grad_w = X'(Xw + b - y), grad_b = sum of residuals
        rng = np.random.default_rng(12)
        n, d = 40, 3
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        arch = nnet.MlpArchitecture(d, (), 1, nnet.HEAD_IDENTITY)
        params = rng.standard_normal(arch.param_count)
        w, b = params[:d], params[d]
        resid = x @ w + b - y
        expected = np.concatenate([x.T @ resid, [resid.sum()]])
        adapter = MaskedRegressionLoss(x, y, np.zeros(n, dtype=np.intp))
        got = analytic_grad(arch, params, adapter)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_matches_finite_differences_random_upstream(self):
        # fixed random upstream G makes the scalar sum(G * output) exactly linear
        # in the output, so backward must reproduce its FD gradient
        rng = np.random.default_rng(13)
        for head, out_dim in ((nnet.HEAD_TANH, 1), (nnet.HEAD_SOFTMAX, 4), (nnet.HEAD_IDENTITY, 3)):
            arch = nnet.MlpArchitecture(5, (7,), out_dim, head)
            params = nnet.init_params(arch, rng) + 0.05 * rng.standard_normal(arch.param_count)
            x = rng.standard_normal((12, 5))
            g_up = rng.standard_normal((12, out_dim))
            exact = nnet.backward(arch, params, x, g_up)
            coords = rng.choice(arch.param_count, size=40, replace=False)
            approx = finite_diff_grad(
                lambda w: float((nnet.forward(arch, w, x) * g_up).sum()), params, coords
            )
            assert max_rel_error(exact[coords], approx) < 1e-5

    def test_gradient_check_50_triples_per_head(self):
        rng = np.random.default_rng(14)
        for head in (nnet.HEAD_TANH, nnet.HEAD_SOFTMAX, nnet.HEAD_IDENTITY):
            for _ in range(50):
                d = int(rng.integers(2, 6))
                hidden = tuple(int(h) for h in rng.integers(3, 9, size=rng.integers(0, 3)))
                k = 1 if head == nnet.HEAD_TANH else int(rng.integers(2, 5))
                arch = nnet.MlpArchitecture(d, hidden, k, head)
                n = int(rng.integers(4, 16))
                x = rng.standard_normal((n, d))
                if head == nnet.HEAD_TANH:
                    adapter = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.7)
                elif head == nnet.HEAD_SOFTMAX:
                    adapter = FullVectorSurrogateLoss(x, rng.standard_normal((n, k)), 1.3)
                else:  # least squares: the surrogate at zeta = 1 on an identity head
                    adapter = FullVectorSurrogateLoss(x, rng.standard_normal((n, k)), 1.0)
                check_gradient(arch, adapter, rng, n_coords=50)


_HEAD_CASES = ((nnet.HEAD_TANH, 1), (nnet.HEAD_SOFTMAX, 4), (nnet.HEAD_IDENTITY, 3))

# the posterior-viz net and the default net with the binary and the K = 5 head
_PAPER_NETS = pytest.mark.parametrize("arch", [
    nnet.MlpArchitecture(1, (64, 64), 1, nnet.HEAD_TANH),
    nnet.MlpArchitecture(10, (128, 128), 1, nnet.HEAD_TANH),
    nnet.MlpArchitecture(10, (128, 128), 5, nnet.HEAD_SOFTMAX)],
    ids=["viz-tanh", "default-tanh", "default-softmax"])


def _net_and_batch(rng, head, out_dim, n):
    arch = nnet.MlpArchitecture(5, (9, 7), out_dim, head)
    params = nnet.init_params(arch, rng) + 0.1 * rng.standard_normal(arch.param_count)
    return arch, params, rng.standard_normal((n, 5)), rng.standard_normal((n, out_dim))


class TestWorkspace:
    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_workspace_backward_matches_stateless_bitwise(self, head, out_dim):
        arch, params, x, g = _net_and_batch(np.random.default_rng(40), head, out_dim, 16)
        ws = nnet.Workspace(arch, 16)
        out = nnet.forward(arch, params, x, ws)
        kept = out.tobytes()
        assert kept == nnet.forward(arch, params, x).tobytes()
        got = nnet.backward(arch, params, x, g, ws)  # writes its deltas over the hidden layers
        assert got is ws.grad
        assert got.tobytes() == nnet.backward(arch, params, x, g).tobytes()
        assert got.tobytes() == reference_backward(arch, params, x, g).tobytes()
        assert out.tobytes() == kept  # the returned output is left alone

    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_short_batch_uses_leading_rows(self, head, out_dim):
        rng = np.random.default_rng(41)
        arch, params, x, g = _net_and_batch(rng, head, out_dim, 16)
        ws = nnet.Workspace(arch, 16)
        nnet.forward(arch, params, x, ws)
        nnet.backward(arch, params, x, g, ws)  # leaves stale rows behind the short batch
        xs, gs = x[3:10] + 0.5, g[3:10]
        out = nnet.forward(arch, params, xs, ws)
        assert out.shape == (7, out_dim)
        assert out.tobytes() == nnet.forward(arch, params, xs).tobytes()
        got = nnet.backward(arch, params, xs, gs, ws)
        assert got.tobytes() == nnet.backward(arch, params, xs, gs).tobytes()
        assert got.tobytes() == reference_backward(arch, params, xs, gs).tobytes()

    @_PAPER_NETS
    def test_minibatch_backward_matches_reference_bitwise(self, arch):
        # 128 rows, the training minibatch: the hidden deltas multiply by a
        # contiguous copy of W^T in the scratch, whose stale contents must not
        # move a bit; the 128-wide products run in row blocks
        rng = np.random.default_rng(45)
        ws = nnet.Workspace(arch, 128)
        for i in range(3):  # the first backward makes the scratch, the later ones find NaN
            params = nnet.init_params(arch, rng) + 0.05 * rng.standard_normal(arch.param_count)
            x = rng.standard_normal((128, arch.input_dim))
            g = rng.standard_normal((128, arch.output_dim))
            want = reference_backward(arch, params, x, g).tobytes()
            assert nnet.backward(arch, params, x, g).tobytes() == want
            nnet.forward(arch, params, x, ws)
            if i:
                ws.scratch.fill(np.nan)
            assert nnet.backward(arch, params, x, g, ws).tobytes() == want
            assert ws.scratch.shape == (arch.param_count,)
            w_t = np.ascontiguousarray(nnet.unflatten(arch, params)[1][0].T)
            assert ws.scratch[:w_t.size].tobytes() == w_t.tobytes()

    @_PAPER_NETS
    def test_every_row_count_matches_reference_bitwise(self, arch):
        # the 128-wide products run in row blocks of 56, and a block of one row
        # would round differently; every short last minibatch has its own size
        rng = np.random.default_rng(46)
        params = nnet.init_params(arch, rng) + 0.05 * rng.standard_normal(arch.param_count)
        ws = nnet.Workspace(arch, 300)
        for n in range(1, 301):
            x = rng.standard_normal((n, arch.input_dim))
            g = rng.standard_normal((n, arch.output_dim))
            want = reference_forward(arch, params, x)[0].tobytes()
            assert nnet.forward(arch, params, x).tobytes() == want, n
            assert nnet.forward(arch, params, x, ws).tobytes() == want, n
            want = reference_backward(arch, params, x, g).tobytes()
            assert nnet.backward(arch, params, x, g, ws).tobytes() == want, n
            assert nnet.backward(arch, params, x, g).tobytes() == want, n

    def test_stateless_forward_returns_independent_arrays(self):
        rng = np.random.default_rng(42)
        arch, params, x, _ = _net_and_batch(rng, nnet.HEAD_IDENTITY, 3, 10)
        a = nnet.forward(arch, params, x)
        kept = a.copy()
        b = nnet.forward(arch, params, 2.0 * x)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept)

    def test_forward_allocates_no_gradient_buffers(self):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(43), nnet.HEAD_TANH, 1, 6)
        ws = nnet.Workspace(arch, 6)
        nnet.forward(arch, params, x, ws)
        assert ws.grad is None

    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_inputs_are_not_mutated(self, head, out_dim):
        arch, params, x, g = _net_and_batch(np.random.default_rng(44), head, out_dim, 12)
        copies = [a.copy() for a in (params, x, g)]
        ws = nnet.Workspace(arch, 12)
        nnet.forward(arch, params, x)
        nnet.backward(arch, params, x, g)
        nnet.forward(arch, params, x, ws)
        nnet.backward(arch, params, x, g, ws)
        for before, after in zip(copies, (params, x, g)):
            assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("shape", [1, 7, 18049, (128, 128), (56, 10)])
    def test_aligned_empty(self, shape):
        kept = [nnet.aligned_empty(shape) for _ in range(20)]  # different heap states
        for a in kept:
            assert a.ctypes.data % nnet._ALIGN == 0
            assert a.shape == np.empty(shape).shape and a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable

    @_PAPER_NETS
    def test_fit_buffers_start_on_the_alignment_boundary(self, arch):
        rng = np.random.default_rng(45)
        params = nnet.init_params(arch, rng)
        x = rng.normal(size=(128, arch.input_dim))
        ws = nnet.Workspace(arch, 128)
        out = nnet.forward(arch, params, x, ws)
        nnet.backward(arch, params, x, np.ones_like(out), ws)
        for a in (params, *ws.acts, ws.grad, ws.scratch):
            assert a.ctypes.data % nnet._ALIGN == 0


class TestBlocks:
    @pytest.mark.parametrize("step", (1, 2, 8, 56, 128))
    def test_blocks_tile_the_rows_without_a_lone_computed_row(self, step):
        for n in range(301):
            written = []
            for lo, start, stop in nnet._blocks(n, step):
                assert 0 <= lo <= start < stop <= n, (n, step)
                assert stop - lo > 1 or n == 1 or step == 1, (n, step)
                written.extend(range(start, stop))
            assert written == list(range(n)), (n, step)

    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_one_row_workspace_matches_per_row_forward_bitwise(self, head, out_dim):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(58), head, out_dim, 9)
        want = np.concatenate([nnet.forward(arch, params, x[i:i + 1]) for i in range(9)])
        assert nnet.forward(arch, params, x, nnet.Workspace(arch, 1)).tobytes() == want.tobytes()


_STREAM_SIZES = (1, nnet.BLOCK_ROWS, nnet.BLOCK_ROWS + 1, 3 * nnet.BLOCK_ROWS - 7)


class TestStreaming:
    @pytest.mark.parametrize("n", _STREAM_SIZES)
    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_blocked_forward_matches_one_pass_bitwise(self, head, out_dim, n):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(50), head, out_dim, n)
        want = reference_forward(arch, params, x)[0].tobytes()
        assert nnet.forward(arch, params, x).tobytes() == want
        assert nnet.forward(arch, params, x, nnet.Workspace(arch, 128)).tobytes() == want

    @pytest.mark.parametrize("n", (1, 2, nnet.BLOCK_ROWS, nnet.BLOCK_ROWS + 1, 1529))
    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_rows_match_the_gathered_rows_bitwise(self, head, out_dim, n):
        rng = np.random.default_rng(57)
        arch, params, x, _ = _net_and_batch(rng, head, out_dim, n + 300)
        rows = rng.permutation(n + 300)[:n]
        want = nnet.forward(arch, params, x[rows]).tobytes()
        assert nnet.forward(arch, params, x, rows=rows).tobytes() == want
        want = nnet.forward(arch, params, x[rows], nnet.Workspace(arch, 128)).tobytes()
        assert nnet.forward(arch, params, x, nnet.Workspace(arch, 128), rows).tobytes() == want

    @pytest.mark.parametrize("head,out_dim", ((nnet.HEAD_SOFTMAX, 3), (nnet.HEAD_IDENTITY, 2)))
    def test_default_width_narrow_head_within_roundoff(self, head, out_dim):
        # BLAS may pick its kernel by problem size: OpenBLAS computes a 128 -> 2..4
        # product of a few thousand rows with another summation order than one
        # block's, so a row can move by a few ulp between the two
        rng = np.random.default_rng(51)
        arch = nnet.MlpArchitecture(10, (128, 128), out_dim, head)
        params = nnet.init_params(arch, rng)
        x = rng.standard_normal((4200, 10))
        want = reference_forward(arch, params, x)[0]
        np.testing.assert_allclose(nnet.forward(arch, params, x), want, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n", (10, 16, 40))
    def test_result_is_a_fresh_array(self, n):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(52), nnet.HEAD_IDENTITY, 3, n)
        ws = nnet.Workspace(arch, 16)
        out = nnet.forward(arch, params, x, ws)
        assert out.shape == (n, 3)
        assert not any(np.shares_memory(out, a) for a in ws.acts)
        kept = out.copy()
        nnet.forward(arch, params, 2.0 * x, ws)
        assert np.array_equal(out, kept)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cached_views_follow_in_place_updates(self, dtype):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(53), nnet.HEAD_TANH, 1, 40)
        params = params.astype(dtype)
        ws = nnet.Workspace(arch, 16)
        before = nnet.forward(arch, params, x, ws)
        params *= 0.5
        after = nnet.forward(arch, params, x, ws)
        want = reference_forward(arch, params.astype(np.float64), x)[0]
        assert after.tobytes() == want.tobytes()
        assert not np.array_equal(before, after)

    def test_backward_rejects_more_rows_than_the_workspace(self):
        arch, params, x, g = _net_and_batch(np.random.default_rng(54), nnet.HEAD_TANH, 1, 9)
        ws = nnet.Workspace(arch, 8)
        nnet.forward(arch, params, x, ws)
        with pytest.raises(ValueError, match="9 rows.*holds 8"):
            nnet.backward(arch, params, x, g, ws)

    @pytest.mark.parametrize("head", [nnet.HEAD_TANH, nnet.HEAD_IDENTITY])
    def test_rank_one_products_match_reference_bitwise(self, head):
        # the first layer of a 1-input net and the input gradient below a
        # 1-output head are broadcasts, not matrix products
        rng = np.random.default_rng(55)
        arch = nnet.MlpArchitecture(1, (64, 64), 1, head)
        params = nnet.init_params(arch, rng) + 0.1 * rng.standard_normal(arch.param_count)
        x, g = rng.standard_normal((200, 1)), rng.standard_normal((200, 1))
        assert nnet.forward(arch, params, x).tobytes() == \
            reference_forward(arch, params, x)[0].tobytes()
        assert nnet.backward(arch, params, x, g).tobytes() == \
            reference_backward(arch, params, x, g).tobytes()

    def test_decide_peak_memory_bounded_by_the_block(self):
        # one pass over 20,000 rows used to hold two 20,000 x 128 activations (41 MB)
        rng = np.random.default_rng(56)
        arch = nnet.MlpArchitecture(10, (128, 128), 1, nnet.HEAD_TANH)
        policy = FittedPolicy(arch, nnet.init_params(arch, rng))
        x = rng.standard_normal((20000, 10))
        assert peak_bytes(lambda: policy.decide(x)) < 4 * 2**20


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        arch = nnet.MlpArchitecture(6, (10, 4), 3, nnet.HEAD_SOFTMAX)
        params = nnet.init_params(arch, rng)
        nnet.save_params(tmp_path / "m", arch, params)
        arch2, params2 = nnet.load_params(tmp_path / "m")
        assert arch2 == arch
        assert np.array_equal(params, params2)

    def test_blob_is_little_endian_float64(self, tmp_path):
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        params = np.arange(3, dtype=np.float64)
        nnet.save_params(tmp_path / "m", arch, params)
        raw = (tmp_path / "m" / "params.bin").read_bytes()
        assert np.array_equal(np.frombuffer(raw, dtype="<f8"), params)

    def test_wrong_length_vector_leaves_no_directory(self, tmp_path):
        arch = nnet.MlpArchitecture(3, (4,))
        with pytest.raises(ValueError, match="does not match the architecture"):
            nnet.save_params(tmp_path / "m", arch, np.zeros(3))
        assert not (tmp_path / "m").exists()

    @staticmethod
    def _save_as(directory, dtype, params=None):
        """A 2→3→1 model whose sidecar's ``"dtype"`` key is ``dtype`` (``None``
        drops the key) and whose blob is written in it if it is ``>f8`` or ``<f4``."""
        arch = nnet.MlpArchitecture(2, (3,), 1, nnet.HEAD_IDENTITY)
        params = nnet.init_params(arch, np.random.default_rng(3)) if params is None else params
        nnet.save_params(directory, arch, params)
        sidecar = json.loads((directory / "arch.json").read_text())
        if dtype is None:
            del sidecar["dtype"]
        else:
            sidecar["dtype"] = dtype
            if dtype in (">f8", "<f4"):
                (directory / "params.bin").write_bytes(params.astype(dtype).tobytes())
        (directory / "arch.json").write_text(json.dumps(sidecar))
        return params

    def test_big_endian_float64_blob_loads_bit_for_bit(self, tmp_path):
        params = self._save_as(tmp_path, ">f8")
        _, loaded = nnet.load_params(tmp_path)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == params.tobytes()

    def test_float32_blob_loads_within_float32_rounding(self, tmp_path):
        params = self._save_as(tmp_path, "<f4")
        _, loaded = nnet.load_params(tmp_path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, params.astype(np.float32))
        np.testing.assert_allclose(loaded, params, rtol=np.finfo(np.float32).eps, atol=0)

    @pytest.mark.parametrize(
        "dtype, message",
        [(None, "missing key 'dtype'"),
         *((bad, f"key 'dtype' must be float64 or float32 .*, got {re.escape(repr(bad))}")
           for bad in ("<i8", "float-ish", 8))],
        ids=["missing", "integer", "unreadable", "not-a-string"],
    )
    def test_sidecar_without_a_float_dtype_rejected(self, tmp_path, dtype, message):
        self._save_as(tmp_path, dtype)
        sidecar = re.escape(str(tmp_path / "arch.json"))
        with pytest.raises(ValueError, match=f"{sidecar}: {message}"):
            nnet.load_params(tmp_path)
