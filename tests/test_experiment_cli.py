import argparse
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import peak_bytes
from gbpl import cli, nnet
from gbpl import experiment as ex
from gbpl.configio import add_flags, from_dict, schema, to_dict
from gbpl.dgp import (
    DgpSpec,
    generate_full_feedback,
    read_full_feedback_csv,
    read_logged_csv,
    write_full_feedback_csv,
)
from gbpl.evaluation import PacBayesInputs
from gbpl.posterior import GibbsConfig, SgldConfig, TrainConfig
from gbpl.surrogate import KIND_FULL_VECTOR, empirical_welfare


def _write_inputs(tmp):
    """Under ``tmp``: a good binary data CSV and model, and one broken data CSV
    or model of each kind that ``_BAD_INPUTS`` names."""
    data, _ = generate_full_feedback(DgpSpec(family="binary2", n=40, d=3, seed=4))
    write_full_feedback_csv(tmp / "data.csv", data)
    (tmp / "short.csv").write_text("x_1,y_1,y_2\n0.5,1.0\n")
    (tmp / "text.csv").write_text("x_1,y_1,y_2\n0.5,one,1.0\n")
    (tmp / "one_outcome.csv").write_text("x_1,y_1\n0.5,1.0\n")
    (tmp / "binary.csv").write_bytes(b"\xea\xc8\x00\xff" * 16)
    (tmp / "huge_field.csv").write_text("x_1,y_1,y_2\n" + "1" * 200_000 + ",1,1\n")
    wide, _ = generate_full_feedback(DgpSpec(family="binary2", n=40, d=5, seed=4))
    write_full_feedback_csv(tmp / "wide.csv", wide)
    rng = np.random.default_rng(0)
    arch = nnet.MlpArchitecture(3, (4,))
    for name in ("model", "short_model", "keyless_model", "unknown_key_model", "list_arch_model"):
        nnet.save_params(tmp / name, arch, nnet.init_params(arch, rng))
    arch3 = nnet.MlpArchitecture(3, (4,), 3, nnet.HEAD_SOFTMAX)
    nnet.save_params(tmp / "three_action_model", arch3, nnet.init_params(arch3, rng))
    blob = tmp / "short_model" / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    (tmp / "keyless_model" / "arch.json").write_text("{}")
    (tmp / "unknown_key_model" / "arch.json").write_text(
        '{"arch": {"input_dim": 3, "hidden_dims": [4], "width": 1}, "dim": 21}')
    (tmp / "list_arch_model" / "arch.json").write_text('{"arch": [1, 2], "dim": 3}')


# bad data CSVs: file under the test's tmp directory, cause in the message
_BAD_CSVS = {
    "missing-csv": ("missing.csv", "No such file or directory"),
    "short-row": ("short.csv", "line 2 has 2 fields, the header 3"),
    "non-numeric": ("text.csv", "non-numeric value"),
    "one-outcome-column": ("one_outcome.csv", "need at least two actions"),
    "not-utf8": ("binary.csv", "unreadable as CSV text: 'utf-8' codec can't decode"),
    "field-over-the-csv-limit": ("huge_field.csv",
                                 "unreadable as CSV text: field larger than field limit"),
}
# case -> (argv without --out, expected message); "{tmp}" is the test's tmp directory
_BAD_INPUTS = {
    **{f"train-{case}": (["train", "--data", f"{{tmp}}/{name}"], f"{{tmp}}/{name}: {cause}")
       for case, (name, cause) in _BAD_CSVS.items()},
    **{f"evaluate-{case}": (["evaluate", "--data", f"{{tmp}}/{name}", "--model", "{tmp}/model"],
                            f"{{tmp}}/{name}: {cause}")
       for case, (name, cause) in _BAD_CSVS.items()},
    "evaluate-missing-model": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/missing"],
        "{tmp}/missing/arch.json: No such file or directory"),
    "evaluate-short-params": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/short_model"],
        "{tmp}/short_model/params.bin: 20 parameters, but the declared architecture has 21"),
    "evaluate-arch-without-keys": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/keyless_model"],
        "{tmp}/keyless_model/arch.json: missing key 'arch'"),
    "evaluate-arch-with-unknown-key": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/unknown_key_model"],
        "{tmp}/unknown_key_model/arch.json: MlpArchitecture: unknown key(s) width"),
    "evaluate-arch-not-an-object": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/list_arch_model"],
        "{tmp}/list_arch_model/arch.json: MlpArchitecture must be a JSON object, got [1, 2]"),
    "evaluate-other-covariate-count": (
        ["evaluate", "--data", "{tmp}/wide.csv", "--model", "{tmp}/model"],
        "model {tmp}/model takes 3 covariates, but data {tmp}/wide.csv has 5"),
    "evaluate-other-action-count": (
        ["evaluate", "--data", "{tmp}/data.csv", "--model", "{tmp}/three_action_model"],
        "model {tmp}/three_action_model takes 3 actions, but data {tmp}/data.csv has 2"),
    "simulate-missing-csv-path": (
        ["simulate", "--family", "semisynthetic_csv", "--csv-path", "{tmp}/missing.csv",
         "--n", "30"],
        "{tmp}/missing.csv: No such file or directory"),
}


def _fast_train():
    return {"learning_rate": 1e-2, "batch_size": 64, "max_epochs": 5, "patience": 3}


def _smoke_config(out, methods=None, trials=2, feedback=None):
    cfg = {
        "dgp": {"family": "binary2", "n": 200, "d": 4},
        "methods": methods
        or [
            {"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
            {"name": "DiffReg", "kind": "diff_reg"},
        ],
        "trials": trials,
        "base_seed": 7,
        "train": _fast_train(),
        "hidden": [8],
        "output_dir": str(out),
    }
    if feedback:
        cfg["feedback"] = feedback
    return cfg


class TestSplit:
    def test_disjoint_and_counts(self):
        train, val, test = ex.split_rows(203, (0.6, 0.2, 0.2), [0, 1])
        assert len(val) == int(np.floor(0.2 * 203))
        assert len(test) == int(np.floor(0.2 * 203))
        assert len(train) == 203 - len(val) - len(test)  # remainder goes to train
        all_rows = np.concatenate([train, val, test])
        assert len(np.unique(all_rows)) == 203

    def test_deterministic(self):
        a = ex.split_rows(100, (0.6, 0.2, 0.2), [5, 1])
        b = ex.split_rows(100, (0.6, 0.2, 0.2), [5, 1])
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRunExperiment:
    def test_smoke_outputs(self, tmp_path):
        cfg = ex.parse_config(_smoke_config(tmp_path / "run"))
        out = ex.run_experiment(cfg)
        trials = (out / "trials.csv").read_text().strip().splitlines()
        assert len(trials) == 1 + 2 * 2  # header + trials * methods
        agg = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(agg) == 1 + 2  # header + one row per method
        assert (out / "welfare_lists.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["trials"] == 2

    def test_rerun_byte_identical(self, tmp_path):
        raw = _smoke_config(tmp_path / "a")
        ex.run_experiment(ex.parse_config(raw))
        first = {
            name: (tmp_path / "a" / name).read_bytes()
            for name in ("trials.csv", "aggregate.csv", "welfare_lists.csv", "manifest.json")
        }
        ex.run_experiment(ex.parse_config(raw))
        for name, blob in first.items():
            assert (tmp_path / "a" / name).read_bytes() == blob

    def test_adding_method_leaves_others_untouched(self, tmp_path):
        base = _smoke_config(tmp_path / "b1")
        ex.run_experiment(ex.parse_config(base))
        rows_before = [
            line
            for line in (tmp_path / "b1" / "trials.csv").read_text().splitlines()
            if "DiffReg" in line or "GBPLNet" in line
        ]
        extended = _smoke_config(
            tmp_path / "b2",
            methods=[
                {"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
                {"name": "WeightedLogistic", "kind": "weighted_logistic"},
                {"name": "DiffReg", "kind": "diff_reg"},
            ],
        )
        ex.run_experiment(ex.parse_config(extended))
        rows_after = [
            line
            for line in (tmp_path / "b2" / "trials.csv").read_text().splitlines()
            if "DiffReg" in line or "GBPLNet" in line
        ]
        assert rows_before == rows_after

    def test_cv_variant_records_selected_zeta(self, tmp_path):
        cfg = ex.parse_config(
            _smoke_config(
                tmp_path / "cv",
                methods=[{"name": "GBPLNet (CV)", "kind": "gbpl", "zeta_grid": [1.0, 0.1]}],
                trials=2,
            )
        )
        out = ex.run_experiment(cfg)
        lines = (out / "trials.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            selected = float(line.split(",")[4])
            assert selected in (1.0, 0.1)

    def test_fixed_zeta_equals_one_member_grid(self, tmp_path):
        # a fixed scale and a grid of that one scale are the same candidate map
        outs = []
        for tag, spec in (("fixed", {"zeta": 0.1}), ("grid", {"zeta_grid": [0.1]})):
            methods = [{"name": "GBPLNet", "kind": "gbpl", **spec}]
            outs.append(ex.run_experiment(ex.parse_config(
                _smoke_config(tmp_path / tag, methods))))
        for name in ("trials.csv", "aggregate.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_logged_ipw_true_propensity(self, tmp_path):
        cfg = ex.parse_config(
            _smoke_config(
                tmp_path / "logged",
                methods=[
                    {"name": "GBPLNet-IPW (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
                    {"name": "PluginReg", "kind": "plugin_reg_k"},
                ],
                feedback={"mode": "logged", "logging": "logistic", "pseudo": "ipw",
                          "propensity": "true"},
            )
        )
        out = ex.run_experiment(cfg)
        assert (out / "aggregate.csv").read_text().count("\n") == 3

    def test_logged_dr_fitted_propensity_multi(self, tmp_path):
        raw = _smoke_config(
            tmp_path / "dr",
            methods=[{"name": "GBPL-full-DR (zeta=0.1)", "kind": "gbpl", "zeta": 0.1}],
            trials=1,
            feedback={"mode": "logged", "logging": "softmax", "pseudo": "dr",
                      "propensity": "fitted"},
        )
        raw["dgp"] = {"family": "multi1", "n": 150, "d": 4, "k": 3}
        out = ex.run_experiment(ex.parse_config(raw))
        assert (out / "trials.csv").exists()

    def test_logged_dr_with_cross_fitting(self, tmp_path):
        raw = _smoke_config(
            tmp_path / "cf",
            methods=[{"name": "GBPLNet-DR (zeta=0.1)", "kind": "gbpl", "zeta": 0.1}],
            trials=1,
            feedback={"mode": "logged", "logging": "logistic", "pseudo": "dr",
                      "propensity": "true", "folds": 2},
        )
        out = ex.run_experiment(ex.parse_config(raw))
        assert (out / "trials.csv").read_text().count("\n") == 2  # header + one row

    def test_unknown_method_kind_rejected(self, tmp_path):
        raw = _smoke_config(tmp_path / "bad", methods=[{"name": "x", "kind": "mystery"}])
        with pytest.raises(ValueError):
            ex.parse_config(raw)

    def test_method_name_with_comma_reads_back(self, tmp_path):
        names = {"GBPL, zeta 0.1", "DiffReg"}
        methods = [{"name": "GBPL, zeta 0.1", "kind": "gbpl", "zeta": 0.1},
                   {"name": "DiffReg", "kind": "diff_reg"}]
        out = ex.run_experiment(ex.parse_config(_smoke_config(tmp_path / "run", methods)))
        for name in ("trials.csv", "aggregate.csv", "welfare_lists.csv"):
            with (out / name).open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert {row["method"] for row in rows} == names
            assert all(None not in row for row in rows)  # no spilled fields

    def test_cv_without_grid_uses_default(self):
        spec = ex.MethodSpec(name="GBPLNet (CV)", kind="gbpl")
        assert spec.zeta_grid == ex.DEFAULT_ZETA_GRID == (1.0, 0.1, 0.01, 0.001)
        with pytest.raises(ValueError):
            ex.MethodSpec(name="bad", kind="gbpl", zeta=0.1, zeta_grid=(1.0,))


def _multi5(out, methods, feedback=None):
    raw = _smoke_config(out, methods, feedback=feedback)
    raw["dgp"] = {"family": "multi1", "n": 200, "d": 4, "k": 5}
    return raw


# configs that parse into dataclasses but used to fail inside run_experiment
_RUN_TIME_FAILURES = {
    "logistic-logging-k5": (
        lambda out: _multi5(out, [{"name": "GBPL", "kind": "gbpl", "zeta": 0.1}],
                            {"mode": "logged", "logging": "logistic"}),
        "logistic logging is binary only"),
    "diff-reg-k5": (
        lambda out: _multi5(out, [{"name": "GBPL", "kind": "gbpl", "zeta": 0.1},
                                  {"name": "dr", "kind": "diff_reg"}]),
        "'dr': diff_reg needs two actions"),
    "n-leaves-no-validation-rows": (
        lambda out: _with(_smoke_config(out), ("dgp", "n"), 4),
        r"dgp.n = 4 with split \(0.6, 0.2, 0.2\) leaves no validation rows"),
    "more-folds-than-training-rows": (
        lambda out: _with(_smoke_config(out, feedback={"mode": "logged", "folds": 30}),
                          ("dgp", "n"), 40),
        "feedback.folds = 30 exceeds the 24 training rows"),
}


def _with(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


# configs that used to run, but not as written: a repeated scale was fitted twice for one
# row, and a trial overwrites both seeds, though manifest.json recorded them
_MISREAD = {
    "repeated-zeta": (
        lambda out: _smoke_config(out, [{"name": "cv-twice", "kind": "gbpl",
                                         "zeta_grid": [0.1, 1.0, 0.1]}]),
        "'cv-twice'.*repeats"),
    "dgp-seed": (lambda out: _with(_smoke_config(out), ("dgp", "seed"), 3),
                 "dgp.seed must be 0.*base_seed"),
    "train-seed": (lambda out: _with(_smoke_config(out), ("train", "seed"), 1),
                   "train.seed must be 0.*base_seed"),
    # folds cross-fit the DR outcome regression, which these modes never fit
    "folds-full-feedback": (lambda out: _smoke_config(out, feedback={"folds": 2}),
                            "folds = 2 cross-fits the outcome regression"),
    "folds-ipw": (lambda out: _smoke_config(out, feedback={"mode": "logged", "pseudo": "ipw",
                                                           "folds": 2}),
                  "folds = 2 cross-fits the outcome regression"),
}


def _check_usage_error(tmp_path, capsys, raw, message):
    """``raw`` fails to parse with ``message``, and ``gbpl experiment`` exits 2 on it
    before creating its output directory."""
    with pytest.raises(ValueError, match=message):
        ex.parse_config(raw(tmp_path / "run"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw(tmp_path / "run")))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["experiment", "--config", str(config)])
    assert exit_info.value.code == 2
    assert "gbpl experiment: error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestConfigValidation:
    def _raw(self, method):
        return _smoke_config("unused", methods=[method])

    def test_empty_zeta_grid_rejected(self):
        with pytest.raises(ValueError, match="'cv-empty'.*empty"):
            ex.parse_config(self._raw({"name": "cv-empty", "kind": "gbpl", "zeta_grid": []}))

    def test_nonpositive_zeta_rejected(self):
        with pytest.raises(ValueError, match="'fixed-zero'.*positive"):
            ex.parse_config(self._raw({"name": "fixed-zero", "kind": "gbpl", "zeta": 0.0}))

    def test_nonpositive_grid_entry_rejected(self):
        with pytest.raises(ValueError, match="'cv-negative'.*positive"):
            ex.parse_config(
                self._raw({"name": "cv-negative", "kind": "gbpl", "zeta_grid": [1.0, -0.1]})
            )

    def test_unknown_top_level_key_rejected(self):
        raw = _smoke_config("unused")
        raw["trails"] = 3
        with pytest.raises(ValueError, match="ExperimentConfig.*trails"):
            ex.parse_config(raw)

    def test_unknown_method_key_names_the_method(self):
        method = {"name": "typo", "kind": "gbpl", "zeta": 0.1, "zetta": 0.2}
        with pytest.raises(ValueError, match="'typo'.*zetta"):
            ex.parse_config(self._raw(method))

    @pytest.mark.parametrize(
        "path, value, owner",
        [
            (("trials",), 2.5, "ExperimentConfig: trials"),  # non-integral number for int
            (("hidden",), [4.7], "ExperimentConfig: hidden"),  # the same, inside a tuple
            (("trials",), True, "ExperimentConfig: trials"),  # bool for int
            (("dgp", "n"), "200", "DgpSpec: n"),  # string for int
            (("trials",), None, "ExperimentConfig: trials"),  # null for a non-optional field
            (("output_dir",), 5, "ExperimentConfig: output_dir"),  # non-string for str
            (("methods", 0, "zeta"), True, "MethodSpec 'm': zeta"),  # bool for float
        ],
    )
    def test_wrongly_typed_value_rejected(self, path, value, owner):
        raw = _with(self._raw({"name": "m", "kind": "gbpl", "zeta": 0.1}), path, value)
        with pytest.raises(ValueError, match=f"{owner} must be"):
            ex.parse_config(raw)

    @pytest.mark.parametrize(
        "path, value, message",
        [(("eta",), float("nan"), "ExperimentConfig: eta must be finite, got nan"),
         (("methods", 0, "zeta"), float("inf"), "MethodSpec 'm': zeta must be finite, got inf"),
         (("dgp", "noise_sd"), float("nan"), "DgpSpec: noise_sd must be finite, got nan"),
         (("split",), [0.6, float("nan"), 0.2], "ExperimentConfig: split must be finite")],
        ids=["eta-nan", "method-zeta-inf", "noise-sd-nan", "split-entry-nan"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, path, value, message):
        # json.dumps writes NaN and Infinity, and json.loads reads them back as floats
        raw = lambda out: _with(_smoke_config(out, [{"name": "m", "kind": "gbpl", "zeta": 0.1}]),
                                path, value)
        _check_usage_error(tmp_path, capsys, raw, message)

    @pytest.mark.parametrize(
        "build, field",
        [(lambda v: GibbsConfig(zeta=v), "zeta"),
         (lambda v: GibbsConfig(zeta=0.1, tau2=v), "tau2"),
         (lambda v: TrainConfig(learning_rate=v), "learning_rate"),
         (lambda v: TrainConfig(weight_decay=v), "weight_decay"),
         (lambda v: SgldConfig(step_size=v), "step_size"),
         (lambda v: SgldConfig(clip_norm=v), "clip_norm"),
         (lambda v: DgpSpec(family="binary1", n=10, noise_sd=v), "noise_sd"),
         (lambda v: PacBayesInputs(0.5, v, 10, 0.05, 1.0, 1.0, 0.5), "kl"),
         (lambda v: PacBayesInputs(0.5, 1.0, 10, 0.05, v, 1.0, 0.5), "v and b"),
         (lambda v: ex.MethodSpec("m", "gbpl", zeta=v), "zeta")],
        ids=["gibbs-zeta", "gibbs-tau2", "learning-rate", "weight-decay", "step-size",
             "clip-norm", "noise-sd", "kl", "v", "method-zeta"],
    )
    def test_nan_fails_the_range_check_when_built(self, build, field):
        with pytest.raises(ValueError, match=field):
            build(float("nan"))

    def test_one_fold_rejected(self):
        with pytest.raises(ValueError, match="folds must be 0 or at least 2"):
            ex.FeedbackSpec(mode="logged", folds=1)

    @pytest.mark.parametrize("kind", ["diff_reg", "plugin_reg_k"])
    @pytest.mark.parametrize("spec", [{"zeta": 0.1}, {"zeta_grid": [0.1]}])
    def test_baseline_with_a_scale_rejected(self, kind, spec):
        with pytest.raises(ValueError, match="'base'.*no zeta"):
            ex.parse_config(self._raw({"name": "base", "kind": kind, **spec}))

    @pytest.mark.parametrize("raw, message", list(_RUN_TIME_FAILURES.values()),
                             ids=list(_RUN_TIME_FAILURES))
    def test_config_that_would_fail_mid_run_rejected(self, tmp_path, capsys, raw, message):
        _check_usage_error(tmp_path, capsys, raw, message)

    @pytest.mark.parametrize("raw, message", list(_MISREAD.values()), ids=list(_MISREAD))
    def test_config_that_would_run_other_than_written_rejected(self, tmp_path, capsys, raw,
                                                                message):
        _check_usage_error(tmp_path, capsys, raw, message)

    def test_as_many_folds_as_training_rows_accepted(self):
        raw = _with(_smoke_config("unused", feedback={"mode": "logged", "folds": 24}),
                    ("dgp", "n"), 40)
        assert ex.parse_config(raw).feedback.folds == 24

    @pytest.mark.parametrize(
        "change, message",
        [({"methods": []}, "need at least one method"),
         ({"methods": [{"name": "m", "kind": "gbpl", "zeta": 0.1},
                       {"name": "m", "kind": "diff_reg"}]}, "method names must be unique"),
         ({"trials": 0}, "trials must be positive")],
        ids=["no-methods", "duplicate-names", "no-trials"],
    )
    def test_experiment_config_checks(self, change, message):
        with pytest.raises(ValueError, match=message):
            ex.parse_config({**_smoke_config("unused"), **change})

    @pytest.mark.parametrize(
        "change, message",
        [({"mode": "partial"}, "feedback mode must be 'full' or 'logged'"),
         ({"pseudo": "aipw"}, "pseudo must be 'ipw' or 'dr'"),
         ({"propensity": "estimated"}, "propensity must be 'true' or 'fitted'")],
    )
    def test_feedback_spec_checks(self, change, message):
        with pytest.raises(ValueError, match=message):
            ex.FeedbackSpec(**change)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_rejected(self, jobs):
        raw = _smoke_config("unused")
        raw["jobs"] = jobs
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ex.parse_config(raw)

    def test_integral_float_for_int_accepted(self):
        raw = _smoke_config("unused")
        raw["trials"] = 3.0
        assert ex.parse_config(raw).trials == 3

    @pytest.mark.parametrize(
        "change",
        [{"split": (0.5, 0.5)}, {"split": (0.7, 0.2, 0.2)}, {"level": 1.5}, {"level": 0.0},
         {"grid_points": 0}, {"eval_points": (float("nan"), 1.0)}],
    )
    def test_viz_config_checked_when_built(self, change):
        with pytest.raises(ValueError, match="split|level|eval_points"):
            ex.PosteriorVizConfig(output_dir="unused", **change)

    @pytest.mark.parametrize(
        "n, split, part",
        [(4, (0.6, 0.2, 0.2), "validation"), (9, (0.6, 0.3, 0.1), "test"),
         (2, (1e-10, 0.5, 0.5 + 5e-10), "training")],
    )
    def test_viz_split_that_leaves_a_part_empty_rejected(self, n, split, part):
        with pytest.raises(ValueError, match=rf"^n = {n} with split .* leaves no {part} rows"):
            ex.PosteriorVizConfig(output_dir="unused", n=n, split=split)
        assert ex.PosteriorVizConfig(output_dir="unused", n=10 * n + 1, split=split).split == split


class TestPosteriorVizSeeds:
    def test_nested_seeds_take_the_run_seed(self):
        cfg = ex.PosteriorVizConfig(output_dir="unused", seed=3)
        assert cfg.train.seed == cfg.sgld.seed == 3
        manifest = to_dict(cfg)
        assert manifest["train"]["seed"] == manifest["sgld"]["seed"] == 3
        given = ex.PosteriorVizConfig(output_dir="unused", seed=3, sgld=SgldConfig(seed=3))
        assert given == cfg

    @pytest.mark.parametrize(
        "nested, message",
        [({"train": TrainConfig(seed=7)}, "train.seed must be 0 or seed = 3, got 7"),
         ({"sgld": SgldConfig(seed=1)}, "sgld.seed must be 0 or seed = 3, got 1")],
        ids=["train", "sgld"],
    )
    def test_other_nested_seed_rejected(self, nested, message):
        with pytest.raises(ValueError, match=message):
            ex.PosteriorVizConfig(output_dir="unused", seed=3, **nested)


class TestManifestRoundTrip:
    def test_experiment_manifest_rebuilds_its_config(self, tmp_path):
        cfg = ex.parse_config(_smoke_config(tmp_path / "run"))
        out = ex.run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert from_dict(ex.ExperimentConfig, manifest) == cfg

    def test_default_viz_manifest_rebuilds_its_config(self, tmp_path):
        cfg = ex.PosteriorVizConfig(output_dir=str(tmp_path / "viz"))
        out = ex.run_posterior_viz(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert from_dict(ex.PosteriorVizConfig, manifest) == cfg


class TestPosteriorViz:
    @pytest.fixture(scope="class")
    @staticmethod
    def viz_dir(tmp_path_factory):
        out = tmp_path_factory.mktemp("viz")
        cfg = ex.PosteriorVizConfig(
            output_dir=str(out),
            n=300,
            hidden=(16, 16),
            train=TrainConfig(max_epochs=10, patience=5, weight_decay=1e-4),
            sgld=SgldConfig(step_size=1e-4, burn_in=40, n_draws=25, thin=2, batch_size=64),
            grid_points=50,
            seed=2,
        )
        ex.run_posterior_viz(cfg)
        return out

    def test_band_ordering_and_target_column(self, viz_dir):
        lines = (viz_dir / "score_grid.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 50
        for line in lines:
            x, f_mean, f_lo, f_hi, target = map(float, line.split(","))
            assert f_lo <= f_mean <= f_hi
            assert target == np.clip(1.2 * np.sin(x), -1.0, 1.0)

    def test_welfare_interval_positive_width(self, viz_dir):
        header, row = (viz_dir / "welfare_interval.csv").read_text().strip().splitlines()
        mean, lo, hi, level = map(float, row.split(","))
        assert lo <= mean <= hi
        assert hi > lo  # distinct draws spread the welfare
        draws = (viz_dir / "welfare_draws.csv").read_text().strip().splitlines()[1:]
        assert len(draws) == 25

    def test_score_draws_at_points(self, viz_dir):
        lines = (viz_dir / "score_draws_at_points.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 25 * 5
        xs = {float(line.split(",")[0]) for line in lines}
        assert xs == {-2.0, -1.0, 0.0, 1.0, 2.0}

    def test_manifest_echoes_config(self, viz_dir):
        manifest = json.loads((viz_dir / "manifest.json").read_text())
        assert manifest["n"] == 300
        assert manifest["sgld"]["n_draws"] == 25


class TestTrialMemory:
    def test_peak_does_not_grow_with_the_zeta_grid(self, tmp_path):
        # members are fitted as the selection asks for them and dropped once another one
        # beats them; a trial that held every member added a parameter vector per member.
        # Randomized (K = 3) welfare leaves no ties to keep several members alive
        def run(grid, name):
            raw = _smoke_config(tmp_path / name, [{"name": "cv", "kind": "gbpl",
                                                   "zeta_grid": grid}], trials=1)
            raw.update(dgp={"family": "multi1", "n": 300, "d": 4, "k": 3}, hidden=[128, 128])
            cfg = ex.parse_config(raw)
            return peak_bytes(lambda: ex.run_experiment(cfg))

        run([1.0, 0.1], "warm-up")  # lazy imports and caches out of the measured runs
        small = run([1.0, 0.1], "two")
        large = run([1.0, 0.3, 0.1, 0.03, 0.01, 0.003], "six")
        vector = nnet.MlpArchitecture(4, (128, 128), 3, nnet.HEAD_SOFTMAX).param_count * 8
        assert large - small < vector, (large - small) / vector

    @pytest.mark.parametrize("grown,split", [("test", (0.06, 0.03, 0.91)),
                                             ("validation", (0.06, 0.83, 0.11))])
    def test_held_out_rows_are_scored_by_index(self, tmp_path, grown, split):
        # 4,000 more rows go to one held-out part while the 300 training rows stay: the
        # peak grows by the data itself, but not by a copy of that part's covariates, as
        # it did when a trial copied its test and validation rows before scoring them
        d, base = 40, (0.3, 0.15, 0.55)

        def run(n, split, name):
            raw = _smoke_config(tmp_path / name, [{"name": "cv", "kind": "gbpl",
                                                   "zeta_grid": [1.0, 0.1]}], trials=1)
            raw.update(dgp={"family": "binary2", "n": n, "d": d}, split=list(split))
            cfg = ex.parse_config(raw)
            return peak_bytes(lambda: ex.run_experiment(cfg))

        small_sizes, large_sizes = ex._split_sizes(1000, base), ex._split_sizes(5000, split)
        assert small_sizes[0] == large_sizes[0] == 300
        assert sum(large_sizes[1:]) - sum(small_sizes[1:]) == 4000
        run(1000, base, "warm-up")  # lazy imports and caches out of the measured runs
        small = run(1000, base, "small")
        large = run(5000, split, "large")
        data = 4000 * (d + 2) * 8  # x and the two outcome columns of the added rows
        copy = 4000 * d * 8
        assert large - small < data + copy / 2, (large - small - data) / copy


class TestPosteriorVizMemory:
    def test_peak_stays_below_half_the_draw_matrix(self, tmp_path):
        # the default (64, 64) net with 300 draws: an (S, P) draw matrix alone is 300 x 4,353
        # float64 = 9.96 MB; the run keeps only each draw's grid, welfare and point summaries
        cfg = ex.PosteriorVizConfig(
            output_dir=str(tmp_path / "v"),
            train=TrainConfig(max_epochs=2, patience=2, weight_decay=1e-4),
            sgld=SgldConfig(burn_in=0, n_draws=300, thin=1),
        )
        draw_matrix = cfg.sgld.n_draws * nnet.MlpArchitecture(1, cfg.hidden, 1).param_count * 8
        assert draw_matrix == 300 * 4353 * 8
        assert peak_bytes(lambda: ex.run_posterior_viz(cfg)) < draw_matrix / 2


class TestPosteriorVizReferenceScale:
    def test_reference_run_welfare_band(self, tmp_path):
        # full sampler settings; the credible interval is checked only as an
        # order-of-magnitude band, not an exact number
        out = ex.run_posterior_viz(ex.PosteriorVizConfig(output_dir=str(tmp_path / "v"), seed=0))
        header, row = (out / "welfare_interval.csv").read_text().strip().splitlines()
        mean, lo, hi, _ = map(float, row.split(","))
        assert lo <= mean <= hi
        assert 0.05 <= hi - lo <= 0.4


class TestParallelJobs:
    def test_parallel_trials_match_serial(self, tmp_path):
        serial = _smoke_config(tmp_path / "serial")
        ex.run_experiment(ex.parse_config(serial))
        parallel = _smoke_config(tmp_path / "parallel")
        parallel["jobs"] = 2
        ex.run_experiment(ex.parse_config(parallel))
        for name in ("trials.csv", "aggregate.csv", "welfare_lists.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()


class TestCli:
    def test_simulate_and_roundtrip(self, tmp_path):
        out = tmp_path / "data.csv"
        rc = cli.main(
            ["simulate", "--family", "binary1", "--n", "50", "--d", "5",
             "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        data = read_full_feedback_csv(out)
        assert data.n == 50 and data.k == 2

    def test_simulate_semisynthetic(self, tmp_path):
        src = tmp_path / "source.csv"
        rng = np.random.default_rng(0)
        lines = ["f1,f2,resp"]
        for row in rng.standard_normal((30, 3)):
            lines.append(",".join(repr(float(v)) for v in row))
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "semi.csv"
        rc = cli.main(
            ["simulate", "--family", "semisynthetic_csv", "--csv-path", str(src),
             "--n", "30", "--k", "3", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        data = read_full_feedback_csv(out)
        assert data.n == 30 and data.k == 3

    def test_simulate_logged_with_sidecar(self, tmp_path):
        out = tmp_path / "logged.csv"
        side = tmp_path / "full.csv"
        rc = cli.main(
            ["simulate", "--family", "multi1", "--n", "40", "--k", "3", "--logged",
             "--logging", "softmax", "--out", str(out), "--sidecar", str(side)]
        )
        assert rc == 0
        logged = read_logged_csv(out)
        full = read_full_feedback_csv(side)
        cols = logged.action_columns()
        np.testing.assert_array_equal(logged.y_obs, full.y[np.arange(40), cols])

    def test_train_then_evaluate(self, tmp_path):
        data_csv = tmp_path / "train.csv"
        cli.main(["simulate", "--family", "binary2", "--n", "120", "--d", "3",
                  "--out", str(data_csv)])
        model_dir = tmp_path / "model"
        rc = cli.main(
            ["train", "--data", str(data_csv), "--zeta", "0.1", "--hidden", "8",
             "--max-epochs", "4", "--out", str(model_dir)]
        )
        assert rc == 0
        metrics = tmp_path / "metrics.json"
        rc = cli.main(
            ["evaluate", "--data", str(data_csv), "--model", str(model_dir),
             "--out", str(metrics)]
        )
        assert rc == 0
        report = json.loads(metrics.read_text())
        assert report["regret"] >= -1e-12

    def test_train_splits_every_row_into_train_and_validation(self, tmp_path, monkeypatch):
        data_csv = tmp_path / "train.csv"
        cli.main(["simulate", "--family", "binary2", "--n", "57", "--d", "3",
                  "--out", str(data_csv)])
        seen = {}
        real_fit = cli.fit_gbpl

        def spy(x, table, gibbs, cfg, train_rows, val_rows, hidden):
            seen["train"], seen["val"] = train_rows, val_rows
            return real_fit(x, table, gibbs, cfg, train_rows, val_rows, hidden)

        monkeypatch.setattr(cli, "fit_gbpl", spy)
        rc = cli.main(["train", "--data", str(data_csv), "--hidden", "4", "--max-epochs", "1",
                       "--out", str(tmp_path / "model")])
        assert rc == 0
        train, val = seen["train"], seen["val"]
        assert np.intersect1d(train, val).size == 0
        np.testing.assert_array_equal(np.sort(np.concatenate([train, val])), np.arange(57))
        assert val.size == 57 // 5

    def test_train_manifest_writes_the_whole_gibbs_config(self, tmp_path):
        data_csv, model_dir = tmp_path / "train.csv", tmp_path / "model"
        cli.main(["simulate", "--family", "binary2", "--n", "30", "--d", "3",
                  "--out", str(data_csv)])
        assert cli.main(["train", "--data", str(data_csv), "--zeta", "0.3", "--hidden", "4",
                         "--max-epochs", "1", "--out", str(model_dir)]) == 0
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["gibbs"] == to_dict(GibbsConfig(zeta=0.3))

    def test_train_manifest_records_the_full_vector_surrogate_for_k3(self, tmp_path):
        data_csv, model_dir = tmp_path / "train.csv", tmp_path / "model"
        cli.main(["simulate", "--family", "multi1", "--n", "30", "--d", "4", "--k", "3",
                  "--out", str(data_csv)])
        assert cli.main(["train", "--data", str(data_csv), "--zeta", "0.3", "--hidden", "4",
                         "--max-epochs", "1", "--out", str(model_dir)]) == 0
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["gibbs"] == to_dict(GibbsConfig(zeta=0.3, kind=KIND_FULL_VECTOR))
        assert nnet.load_params(model_dir)[0].head == nnet.HEAD_SOFTMAX

    def test_train_on_too_few_rows_for_validation_is_a_usage_error(self, tmp_path, capsys):
        data_csv = tmp_path / "tiny.csv"
        cli.main(["simulate", "--family", "binary2", "--n", "4", "--d", "3",
                  "--out", str(data_csv)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--data", str(data_csv), "--out", str(tmp_path / "model")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "gbpl train: error:" in err
        assert f"{data_csv}: 4 rows leave no validation row" in err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "text, cause",
        [(None, "No such file or directory"),
         ('{"trials": 2,', "malformed JSON: Expecting"),
         ("[1, 2]", "expected a JSON object, got list")],
        ids=["missing", "malformed", "not-an-object"],
    )
    def test_unreadable_experiment_config_is_a_usage_error(self, tmp_path, capsys, text,
                                                            cause):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["experiment", "--config", str(config)])
        assert exit_info.value.code == 2
        assert f"gbpl experiment: error: {config}: {cause}" in capsys.readouterr().err

    def test_evaluate_softmax_model_without_manifest(self, tmp_path, capsys):
        data, _ = generate_full_feedback(DgpSpec(family="multi1", n=40, d=4, k=3, seed=3))
        data_csv, model_dir = tmp_path / "data.csv", tmp_path / "model"
        write_full_feedback_csv(data_csv, data)
        arch = nnet.MlpArchitecture(4, (8,), 3, nnet.HEAD_SOFTMAX)
        params = nnet.init_params(arch, np.random.default_rng(0))
        nnet.save_params(model_dir, arch, params)  # arch.json and params.bin only
        rc = cli.main(["evaluate", "--data", str(data_csv), "--model", str(model_dir),
                       "--rule", "randomized"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["welfare"] == empirical_welfare(data, nnet.forward(arch, params, data.x))

    def test_evaluate_rejects_model_for_other_action_count(self, tmp_path, capsys):
        data, _ = generate_full_feedback(DgpSpec(family="binary2", n=40, d=4, seed=4))
        data_csv, model_dir = tmp_path / "data.csv", tmp_path / "model"
        write_full_feedback_csv(data_csv, data)
        arch = nnet.MlpArchitecture(4, (8,), 3, nnet.HEAD_SOFTMAX)
        nnet.save_params(model_dir, arch, nnet.init_params(arch, np.random.default_rng(0)))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["evaluate", "--data", str(data_csv), "--model", str(model_dir)])
        assert exit_info.value.code == 2
        assert re.search("gbpl evaluate: error: .*3 actions.*has 2", capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, case):
        _write_inputs(tmp_path)
        argv, message = _BAD_INPUTS[case]
        argv = [arg.format(tmp=tmp_path) for arg in [*argv, "--out", "{tmp}/out/x"]]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"gbpl {argv[0]}: error: {message.format(tmp=tmp_path)}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_experiment_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_smoke_config(tmp_path / "run", trials=1)))
        rc = cli.main(["experiment", "--config", str(cfg_path)])
        assert rc == 0
        with (tmp_path / "run" / "aggregate.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:  # one trial has no spread: its fields are empty
            assert row["trials"] == "1"
            assert row["welfare_var"] == row["welfare_se"] == row["regret_se"] == ""

    def test_print_schema(self, capsys):
        rc = cli.main(["experiment", "--print-schema"])
        assert rc == 0
        schema = json.loads(capsys.readouterr().out)
        assert "methods" in schema and "dgp" in schema

    def test_print_schema_lists_every_nested_field(self, capsys):
        assert cli.main(["experiment", "--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)

        def check(cls, node):
            assert set(node) == {f.name for f in dataclasses.fields(cls)}
            for f in dataclasses.fields(cls):
                value = getattr(cls, f.name, None)
                if dataclasses.is_dataclass(value):
                    check(type(value), node[f.name])

        check(ex.ExperimentConfig, schema)
        check(ex.DgpSpec, schema["dgp"])
        check(ex.MethodSpec, schema["methods"][0])

    def test_experiment_requires_config(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["experiment"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert re.search(r"^usage: gbpl experiment .*--config", err, flags=re.M)
        assert "gbpl experiment: error: --config is required" in err

    def test_paccheck(self, capsys):
        rc = cli.main(
            ["paccheck", "--risk", "0.5", "--kl", "0.6931471805599453", "--n", "1000",
             "--delta", "0.05", "--v", "2", "--b", "1", "--lam", "0.01"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == pytest.approx(0.8788879454113936, abs=1e-12)
        assert report["bound_at_lambda_star"] <= report["bound"]

    def test_posterior_viz_subcommand(self, tmp_path):
        rc = cli.main(
            ["posterior-viz", "--out", str(tmp_path / "viz"), "--n", "200",
             "--max-epochs", "3", "--burn-in", "10", "--n-draws", "5", "--thin", "1",
             "--grid-points", "20"]
        )
        assert rc == 0
        assert (tmp_path / "viz" / "score_grid.csv").exists()


def _leaf_schema(node, path=()):
    """(path, schema string) of every leaf field in a ``configio.schema`` dict."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_schema(value, path + (key,))
        else:
            yield path + (key,), value


class TestGeneratedCli:
    SUBCOMMANDS = ("simulate", "train", "evaluate", "experiment", "posterior-viz", "paccheck")
    # (subcommand, minimal argv, config object, leaves without a flag)
    CONFIGS = (
        ("simulate", ["--family", "binary1", "--n", "7", "--out", "o"], ex.DgpSpec, ()),
        ("train", ["--data", "d", "--out", "o"], GibbsConfig(zeta=0.1), ("kind",)),
        ("train", ["--data", "d", "--out", "o"], TrainConfig, ()),
        ("posterior-viz", ["--out", "o"], ex.PosteriorVizConfig, ("output_dir",)),
    )

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([sub, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: gbpl {sub}")

    @pytest.mark.parametrize("sub, argv, cfg, skip", CONFIGS)
    def test_every_leaf_field_has_a_flag_with_the_schema_default(self, sub, argv, cfg, skip,
                                                                  capsys):
        with pytest.raises(SystemExit):
            cli.main([sub, "--help"])
        usage = capsys.readouterr().out
        parsed = vars(cli.build_parser().parse_args([sub, *argv]))
        leaves = [(path, text) for path, text in _leaf_schema(schema(cfg)) if path[-1] not in skip]
        assert leaves
        for path, text in leaves:
            name = path[-1]
            assert f"--{name.replace('_', '-')} " in usage, name
            if " = " in text:
                assert text.endswith(f" = {parsed[name]!r}"), (path, text, parsed[name])
            else:  # a field without a default is a required flag
                assert f"[--{name} " not in usage, name

    def test_shared_leaves_must_agree_on_their_default(self):
        cfg = ex.PosteriorVizConfig(output_dir="unused", train=TrainConfig(batch_size=64))
        with pytest.raises(ValueError, match="batch_size"):
            add_flags(argparse.ArgumentParser(), cfg)

    def test_shared_flag_sets_every_leaf(self, tmp_path):
        out = tmp_path / "viz"
        rc = cli.main(
            ["posterior-viz", "--out", str(out), "--n", "120", "--hidden", "4",
             "--max-epochs", "2", "--burn-in", "2", "--n-draws", "2", "--thin", "1",
             "--grid-points", "3", "--batch-size", "64", "--seed", "3"]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train"]["batch_size"] == manifest["sgld"]["batch_size"] == 64
        assert manifest["seed"] == manifest["train"]["seed"] == manifest["sgld"]["seed"] == 3
        assert manifest["hidden"] == [4]

    def test_flags_decode_like_json(self, tmp_path, capsys):
        out = tmp_path / "viz"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["posterior-viz", "--out", str(out), "--level", "1.5"])
        assert exit_info.value.code == 2
        assert "level" in capsys.readouterr().err
        assert not out.exists()  # rejected before any fitting

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["posterior-viz", "--out", "{out}", "--level", "1.5"], "level"),
            (["posterior-viz", "--out", "{out}", "--n", "4"], "n = 4"),
            (["simulate", "--family", "binary1", "--n", "0", "--out", "{out}"], "n must"),
            # a missing --data file shows that the flags are decoded before it is read
            (["train", "--data", "{missing}", "--zeta", "-1", "--out", "{out}"], "zeta"),
            (["train", "--data", "{missing}", "--learning-rate", "0", "--out", "{out}"],
             "learning_rate"),
            (["experiment", "--config", "{config}"], "jobs"),
            (["paccheck", "--risk", "0.5", "--kl", "-1", "--n", "10", "--delta", "0.05",
              "--v", "1", "--b", "1"], "kl"),
            # without --lam the default lam is 0.5 / b, which b = 0 leaves undefined
            (["paccheck", "--risk", "0.5", "--kl", "1", "--n", "10", "--delta", "0.05",
              "--v", "1", "--b", "0"], "b must be positive"),
            # NaN passes every range comparison, so a non-finite number fails on its own
            (["train", "--data", "{missing}", "--zeta", "nan", "--out", "{out}"],
             "GibbsConfig: zeta must be finite, got nan"),
            (["train", "--data", "{missing}", "--learning-rate", "inf", "--out", "{out}"],
             "TrainConfig: learning_rate must be finite, got inf"),
            (["posterior-viz", "--out", "{out}", "--step-size", "nan"],
             "SgldConfig: step_size must be finite, got nan"),
            (["paccheck", "--risk", "0.5", "--kl", "nan", "--n", "10", "--delta", "0.05",
              "--v", "1", "--b", "1"], "--kl must be finite, got nan"),
            (["paccheck", "--risk", "0.5", "--kl", "1", "--n", "10", "--delta", "0.05",
              "--v", "1", "--b", "1", "--lam", "inf"], "--lam must be finite, got inf"),
        ],
        ids=["posterior-viz", "posterior-viz-n", "simulate", "train-zeta", "train-learning-rate",
             "experiment", "paccheck", "paccheck-b-zero", "train-zeta-nan",
             "train-learning-rate-inf", "posterior-viz-step-size-nan", "paccheck-kl-nan",
             "paccheck-lam-inf"],
    )
    def test_config_that_fails_to_decode_is_a_usage_error(self, tmp_path, capsys, argv, field):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**_smoke_config(tmp_path / "run"), "jobs": 0}))
        paths = {"out": tmp_path / "out", "missing": tmp_path / "missing.csv", "config": config}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([arg.format(**paths) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"gbpl {argv[0]}: error:" in err and field in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--data", "{missing}", "--hidden", "8", "0", "--out", "{out}"], "--hidden"),
            (["simulate", "--family", "binary1", "--n", "7", "--logged", "--clip", "0.7",
              "--out", "{out}/d.csv"], "clip"),
            (["simulate", "--family", "multi1", "--n", "7", "--k", "3", "--logged",
              "--clip", "0.4", "--out", "{out}/d.csv"], "clip"),
            (["simulate", "--family", "multi1", "--n", "7", "--logged", "--logging", "logistic",
              "--out", "{out}/d.csv"], "logging"),
        ],
        ids=["train-hidden", "simulate-clip-binary", "simulate-clip-k3", "simulate-logging"],
    )
    def test_flag_the_library_would_reject_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        # a missing --data file shows that the flag is checked before it is read
        paths = {"out": tmp_path / "out", "missing": tmp_path / "missing.csv"}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([arg.format(**paths) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"gbpl {argv[0]}: error:" in err and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k, head", [(2, nnet.HEAD_TANH), (3, nnet.HEAD_SOFTMAX)])
    def test_fit_gbpl_picks_the_surrogate_by_table_width(self, k, head):
        data, _ = generate_full_feedback(DgpSpec(family="multi1", n=40, d=4, k=k, seed=1))
        rows = np.arange(40)
        policy = ex.fit_gbpl(data.x, data.y, GibbsConfig(0.1), TrainConfig(max_epochs=1),
                             rows[:30], rows[30:], (4,))
        assert policy.arch.head == head


class TestMethodSeedIsolation:
    def test_seed_depends_on_name_not_position(self):
        s1 = ex.method_seed(3, 1, "alpha")
        s2 = ex.method_seed(3, 1, "beta")
        assert s1 != s2
        assert ex.method_seed(3, 1, "alpha") == s1

    def test_dgp_seed_is_base_plus_trial(self):
        cfg = ex.parse_config(_smoke_config("unused"))
        td5 = ex._prepare_trial(cfg, 5)
        spec = DgpSpec(family="binary2", n=200, d=4, seed=cfg.base_seed + 5)
        from gbpl.dgp import generate_full_feedback

        full, _ = generate_full_feedback(spec)
        assert np.array_equal(td5.x, full.x)
        assert np.array_equal(td5.table, full.y)
