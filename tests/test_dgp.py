import csv

import numpy as np
import pytest

from gbpl import dgp


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

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            dgp.DgpSpec(family="binary9", n=10)


class TestFullFeedback:
    def test_reproducible_bitwise(self):
        for family in ("binary1", "binary3", "multi1", "onedimviz"):
            spec = dgp.DgpSpec(family=family, n=50, seed=123)
            d1, t1 = dgp.generate_full_feedback(spec)
            d2, t2 = dgp.generate_full_feedback(spec)
            assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
            assert np.array_equal(t1.gamma, t2.gamma)

    def test_noiseless_oracle_matches_argmax(self):
        for family in ("binary2", "multi3"):
            spec = dgp.DgpSpec(family=family, n=200, noise_sd=0.0, seed=7)
            data, truth = dgp.generate_full_feedback(spec)
            np.testing.assert_array_equal(data.y.argmax(axis=1), truth.oracle_cols)
            np.testing.assert_allclose(data.y, truth.gamma, atol=1e-15)

    def test_binary1_noiseless_effect_bounded(self):
        spec = dgp.DgpSpec(family="binary1", n=500, noise_sd=0.0, seed=3)
        data, truth = dgp.generate_full_feedback(spec)
        diff = data.y[:, 0] - data.y[:, 1]
        assert np.all(np.abs(diff) <= 2.0)
        np.testing.assert_allclose(diff, truth.gamma[:, 0] - truth.gamma[:, 1], atol=1e-15)

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
        data, truth = dgp.generate_full_feedback(spec)
        assert data.y.shape == (60, 5)
        assert truth.gamma.shape == (60, 5)
        np.testing.assert_array_equal(truth.oracle_cols, truth.gamma.argmax(axis=1))


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


def _write_csv(path, x, resp):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(x.shape[1])] + ["response"])
        for row, r in zip(x, resp):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(r))])


class TestSemisynthetic:
    def test_constant_response_rejected(self, tmp_path):
        p = tmp_path / "const.csv"
        _write_csv(p, np.random.default_rng(0).standard_normal((10, 2)), np.ones(10))
        with pytest.raises(ValueError, match="zero variance"):
            dgp.semisynthetic_from_csv(p, 2, 0)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "one.csv"
        _write_csv(p, np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            dgp.semisynthetic_from_csv(p, 2, 0)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,response\nabc,1.0\n2.0,2.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            dgp.semisynthetic_from_csv(p, 2, 0)

    def test_standardization_idempotent(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 3))
        resp = rng.standard_normal(50) * 4.0 + 2.0
        z = (resp - resp.mean()) / resp.std()
        p1, p2 = tmp_path / "raw.csv", tmp_path / "std.csv"
        _write_csv(p1, x, resp)
        _write_csv(p2, x, z)
        d1 = dgp.semisynthetic_from_csv(p1, 3, effect_seed=5)
        d2 = dgp.semisynthetic_from_csv(p2, 3, effect_seed=5)
        np.testing.assert_allclose(d1.y, d2.y, atol=1e-12)

    def test_effect_bounded_by_tanh_range(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((80, 4))
        resp = rng.standard_normal(80)
        p = tmp_path / "data.csv"
        _write_csv(p, x, resp)
        data = dgp.semisynthetic_from_csv(p, 3, effect_seed=9)
        z = (resp - resp.mean()) / resp.std()
        for a in range(3):
            effects = data.y[:, a] - z
            assert np.all(np.abs(effects) < 1.0)


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
