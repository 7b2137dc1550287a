import tracemalloc

import numpy as np
import pytest

from conftest import (
    analytic_grad,
    check_gradient,
    finite_diff_grad,
    max_rel_error,
    reference_backward,
    reference_forward,
)
from gbpl import nnet
from gbpl.methods import FittedPolicy
from gbpl.losses import (
    BinarySurrogateLoss,
    FullVectorSurrogateLoss,
    MaskedRegressionLoss,
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

    def test_batch_row_counts(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            nnet.Batch(x, targets=np.zeros(3))
        with pytest.raises(ValueError):
            nnet.Batch(x, weights=np.array([1.0, -1.0, 0.0, 0.0]))


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
        adapter = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
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
                    adapter = BinarySurrogateLoss(nnet.Batch(x, rng.standard_normal(n)), 0.7)
                elif head == nnet.HEAD_SOFTMAX:
                    adapter = FullVectorSurrogateLoss(
                        nnet.Batch(x, rng.standard_normal((n, k))), 1.3
                    )
                else:  # least squares: the surrogate at zeta = 1 on an identity head
                    adapter = FullVectorSurrogateLoss(
                        nnet.Batch(x, rng.standard_normal((n, k))), 1.0
                    )
                check_gradient(arch, adapter, rng, n_coords=50)


_HEAD_CASES = ((nnet.HEAD_TANH, 1), (nnet.HEAD_SOFTMAX, 4), (nnet.HEAD_IDENTITY, 3))


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
        assert out.tobytes() == nnet.forward(arch, params, x).tobytes()
        got = nnet.backward(arch, params, x, g, ws)
        assert got is ws.grad
        assert got.tobytes() == nnet.backward(arch, params, x, g).tobytes()
        assert got.tobytes() == reference_backward(arch, params, x, g).tobytes()

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
        assert ws.grad is None and ws.deltas is None

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


_STREAM_SIZES = (1, nnet.BLOCK_ROWS, nnet.BLOCK_ROWS + 1, 3 * nnet.BLOCK_ROWS - 7)


class TestStreaming:
    @pytest.mark.parametrize("n", _STREAM_SIZES)
    @pytest.mark.parametrize("head,out_dim", _HEAD_CASES)
    def test_blocked_forward_matches_one_pass_bitwise(self, head, out_dim, n):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(50), head, out_dim, n)
        want = reference_forward(arch, params, x)[0].tobytes()
        assert nnet.forward(arch, params, x).tobytes() == want
        assert nnet.forward(arch, params, x, nnet.Workspace(arch, 128)).tobytes() == want

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

    def test_streamed_result_is_a_fresh_array(self):
        arch, params, x, _ = _net_and_batch(np.random.default_rng(52), nnet.HEAD_IDENTITY, 3, 40)
        ws = nnet.Workspace(arch, 16)
        out = nnet.forward(arch, params, x, ws)
        assert out.shape == (40, 3)
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
        tracemalloc.start()
        try:
            policy.decide(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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
