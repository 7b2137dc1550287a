import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gbpl import dgp
from gbpl.counterfactual import LoggedDataset
from gbpl.surrogate import FullFeedbackDataset


class TestSpecValidation:
    def test_binary_forces_two_actions(self):
        with pytest.raises(ValueError):
            dgp.DgpSpec(family="binary1", n=10, k=5)

    def test_onedim_forces_shape(self):
        spec = dgp.DgpSpec(family="onedimviz", n=10)
        assert spec.d == 1 and spec.k == 2 and spec.noise_sd == 0.6
        with pytest.raises(ValueError):
            dgp.DgpSpec(family="onedimviz", n=10, d=3)

    def test_multi_defaults(self):
        spec = dgp.DgpSpec(family="multi2", n=10)
        assert spec.k == 5 and spec.d == 10 and spec.noise_sd == 1.0

    @pytest.mark.parametrize("family", ["multi1", "onedimviz"])
    @pytest.mark.parametrize("k", [1, 0])
    def test_fewer_than_two_actions_rejected(self, family, k):
        with pytest.raises(ValueError, match=f"family {family} needs K >= 2"):
            dgp.DgpSpec(family=family, n=10, k=k)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            dgp.DgpSpec(family="binary9", n=10)


class TestFullFeedback:
    def test_reproducible_bitwise(self):
        for family in ("binary1", "binary3", "multi1", "onedimviz"):
            spec = dgp.DgpSpec(family=family, n=50, seed=123)
            d1, g1 = dgp.generate_full_feedback(spec)
            d2, g2 = dgp.generate_full_feedback(spec)
            assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
            assert np.array_equal(g1, g2)

    def test_noiseless_oracle_matches_argmax(self):
        for family in ("binary2", "multi3"):
            spec = dgp.DgpSpec(family=family, n=200, noise_sd=0.0, seed=7)
            data, gamma = dgp.generate_full_feedback(spec)
            np.testing.assert_array_equal(data.y.argmax(axis=1), gamma.argmax(axis=1))
            np.testing.assert_allclose(data.y, gamma, atol=1e-15)

    def test_binary1_noiseless_effect_bounded(self):
        spec = dgp.DgpSpec(family="binary1", n=500, noise_sd=0.0, seed=3)
        data, gamma = dgp.generate_full_feedback(spec)
        diff = data.y[:, 0] - data.y[:, 1]
        assert np.all(np.abs(diff) <= 2.0)
        np.testing.assert_allclose(diff, gamma[:, 0] - gamma[:, 1], atol=1e-15)

    def test_binary2_effect_formula(self):
        spec = dgp.DgpSpec(family="binary2", n=300, noise_sd=0.0, seed=11)
        data, _ = dgp.generate_full_feedback(spec)
        expected = 1.5 * np.sin(data.x[:, 0] + data.x[:, 1])
        np.testing.assert_allclose(data.y[:, 0] - data.y[:, 1], expected, atol=1e-12)

    def test_binary3_effect_formula(self):
        spec = dgp.DgpSpec(family="binary3", n=300, noise_sd=0.0, seed=12)
        data, _ = dgp.generate_full_feedback(spec)
        x = data.x
        expected = 2.5 * ((x[:, 0] > 0).astype(float) - 0.5 + 0.2 * x[:, 1])
        np.testing.assert_allclose(data.y[:, 0] - data.y[:, 1], expected, atol=1e-12)

    def test_onedimviz_ranges_and_effect(self):
        spec = dgp.DgpSpec(family="onedimviz", n=400, noise_sd=0.0, seed=5)
        data, _ = dgp.generate_full_feedback(spec)
        assert data.d == 1 and data.k == 2
        assert np.all(np.abs(data.x) <= 2.5)
        np.testing.assert_allclose(
            data.y[:, 0] - data.y[:, 1], 1.2 * np.sin(data.x[:, 0]), atol=1e-12
        )

    def test_multi_gamma_shapes(self):
        spec = dgp.DgpSpec(family="multi1", n=60, seed=9)
        data, gamma = dgp.generate_full_feedback(spec)
        assert data.y.shape == (60, 5)
        assert gamma.shape == (60, 5)


class TestOneDimTruth:
    def test_outcome_gap_mean_is_the_family_effect(self):
        data, gamma = dgp.generate_full_feedback(dgp.DgpSpec(family="onedimviz", n=50))
        np.testing.assert_array_equal(gamma[:, 0], gamma[:, 1] + dgp.onedim_effect(data.x[:, 0]))


class TestLogged:
    def test_yobs_matches_hidden_table(self):
        spec = dgp.DgpSpec(family="multi2", n=300, seed=20)
        logged, full = dgp.generate_logged(spec, "softmax", clip=0.05)
        cols = logged.action_columns()
        np.testing.assert_array_equal(logged.y_obs, full.y[np.arange(300), cols])

    def test_overlap_floor(self):
        spec = dgp.DgpSpec(family="binary1", n=500, seed=21)
        logged, _ = dgp.generate_logged(spec, "logistic", clip=0.1)
        assert logged.true_propensity.min() >= 0.1 - 1e-12

    def test_uniform_when_clip_is_one_over_k(self):
        spec = dgp.DgpSpec(family="multi1", n=100, k=4, seed=22)
        logged, _ = dgp.generate_logged(spec, "softmax", clip=0.25)
        np.testing.assert_allclose(logged.true_propensity, 0.25, atol=1e-12)

    def test_action_frequencies_match_propensities(self):
        spec = dgp.DgpSpec(family="multi3", n=50_000, k=3, seed=23)
        logged, _ = dgp.generate_logged(spec, "softmax", clip=0.05)
        e_mean = logged.true_propensity.mean(axis=0)
        cols = logged.action_columns()
        for a in range(3):
            freq = np.mean(cols == a)
            se = np.sqrt(e_mean[a] * (1 - e_mean[a]) / logged.n)
            assert abs(freq - e_mean[a]) < 3.0 * se

    def test_binary_labels_and_determinism(self):
        spec = dgp.DgpSpec(family="binary2", n=100, seed=24)
        l1, _ = dgp.generate_logged(spec, "logistic", clip=0.05)
        l2, _ = dgp.generate_logged(spec, "logistic", clip=0.05)
        assert set(np.unique(l1.a)) <= {0, 1}
        assert np.array_equal(l1.a, l2.a) and np.array_equal(l1.y_obs, l2.y_obs)

    def test_invalid_clip(self):
        spec = dgp.DgpSpec(family="binary2", n=10, seed=0)
        with pytest.raises(ValueError):
            dgp.generate_logged(spec, "logistic", clip=0.9)


class TestCsvRoundtrip:
    def test_full_feedback(self, tmp_path):
        spec = dgp.DgpSpec(family="binary1", n=40, seed=30)
        data, _ = dgp.generate_full_feedback(spec)
        path = tmp_path / "full.csv"
        dgp.write_full_feedback_csv(path, data)
        loaded = dgp.read_full_feedback_csv(path)
        np.testing.assert_array_equal(loaded.x, data.x)
        np.testing.assert_array_equal(loaded.y, data.y)

    def test_logged(self, tmp_path):
        spec = dgp.DgpSpec(family="multi1", n=40, k=3, seed=31)
        logged, _ = dgp.generate_logged(spec, "softmax", clip=0.05)
        path = tmp_path / "logged.csv"
        dgp.write_logged_csv(path, logged)
        loaded = dgp.read_logged_csv(path)
        np.testing.assert_array_equal(loaded.x, logged.x)
        np.testing.assert_array_equal(loaded.a, logged.a)
        np.testing.assert_array_equal(loaded.y_obs, logged.y_obs)
        np.testing.assert_array_equal(loaded.true_propensity, logged.true_propensity)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(2, 4))  # (n, d, K)


def _same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestCsvRoundtripProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_full_feedback_bit_exact(self, data):
        n, d, k = data.draw(_SHAPES)
        full = FullFeedbackDataset(data.draw(hnp.arrays(np.float64, (n, d), elements=_FINITE)),
                                   data.draw(hnp.arrays(np.float64, (n, k), elements=_FINITE)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "full.csv"
            dgp.write_full_feedback_csv(path, full)
            loaded = dgp.read_full_feedback_csv(path)
        _same_bits(loaded.x, full.x)
        _same_bits(loaded.y, full.y)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_logged_bit_exact(self, data):
        n, d, k = data.draw(_SHAPES)
        labels = (0, 1) if k == 2 else tuple(range(1, k + 1))
        e = None
        if data.draw(st.booleans()):
            w = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(1e-3, 1.0)))
            e = w / w.sum(axis=1, keepdims=True)
        logged = LoggedDataset(
            data.draw(hnp.arrays(np.float64, (n, d), elements=_FINITE)),
            data.draw(hnp.arrays(np.intp, n, elements=st.sampled_from(labels))),
            data.draw(hnp.arrays(np.float64, n, elements=_FINITE)), k, e)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "logged.csv"
            dgp.write_logged_csv(path, logged)
            loaded = dgp.read_logged_csv(path, k=None if e is not None else k)
        _same_bits(loaded.x, logged.x)
        np.testing.assert_array_equal(loaded.a, logged.a)
        _same_bits(loaded.y_obs, logged.y_obs)
        if e is None:
            assert loaded.true_propensity is None
        else:
            _same_bits(loaded.true_propensity, e)


# (reader, file text, reader keyword arguments, the cause the error must name)
_MALFORMED_CSV = {
    "empty_file": (dgp.read_full_feedback_csv, "", {}, "empty file"),
    "header_only": (dgp.read_full_feedback_csv, "x_1,y_1,y_2\n", {}, "no data rows"),
    "ragged_rows": (dgp.read_full_feedback_csv, "x_1,y_1,y_2\n1.0,2.0,3.0\n1.0,2.0\n", {},
                    "line 3 has 2 fields"),
    "columns_out_of_order": (dgp.read_full_feedback_csv, "y_1,y_2,x_1\n1.0,2.0,3.0\n", {},
                             "expected columns x_1,y_1,y_2"),
    "nan_value": (dgp.read_full_feedback_csv, "x_1,y_1,y_2\n1.0,nan,3.0\n", {},
                  "non-finite value in column 'y_1' on line 2"),
    "non_numeric_value": (dgp.read_full_feedback_csv, "x_1,y_1,y_2\n1.0,abc,3.0\n", {},
                          "non-numeric"),
    "logged_k_unknown": (dgp.read_logged_csv,
                         "x_1,action,y_obs\n0.1,1,0.5\n0.2,2,0.1\n0.3,4,0.2\n", {},
                         "no e_ columns"),
    "logged_non_integer_action": (dgp.read_logged_csv,
                                  "x_1,action,y_obs,e_1,e_2\n0.1,1.7,0.5,0.5,0.5\n", {},
                                  "non-integer action"),
    "logged_no_covariates": (dgp.read_logged_csv, "action,y_obs,e_1,e_2\n1,0.5,0.5,0.5\n", {},
                             "x must be a 2-D"),
    "logged_k_disagrees_with_e": (dgp.read_logged_csv,
                                  "x_1,action,y_obs,e_1,e_2\n0.1,1,0.5,0.5,0.5\n", {"k": 3},
                                  "true_propensity must be"),
}


class TestMalformedCsv:
    @pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
    def test_rejected_naming_file_and_cause(self, case, tmp_path):
        reader, text, kwargs, cause = _MALFORMED_CSV[case]
        path = tmp_path / f"{case}.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            reader(path, **kwargs)
        assert str(path) in str(info.value)
        assert cause in str(info.value)

    def test_logged_k_given_without_e_columns(self, tmp_path):
        path = tmp_path / "logged.csv"
        path.write_text("x_1,action,y_obs\n0.1,1,0.5\n0.2,2,0.1\n0.3,4,0.2\n")
        logged = dgp.read_logged_csv(path, k=5)
        assert logged.k == 5
        np.testing.assert_array_equal(logged.a, [1, 2, 4])
