"""The benchmark tracer's bindings exist in the library, and its spans
attribute a posterior-viz run's work as the benchmark's step counts assume.

``perfbench/tracing.py`` wraps gbpl functions at the module bindings its
callers use. A refactor that drops or renames one of them, or keeps an import
that nothing in its module calls any more, fails here, in the test suite,
rather than in the benchmark run. The tracer module is loaded from its file
and only read; its wrappers are installed only for the duration of one run
and removed again.

Every public function and class in ``src/gbpl`` must also be used by the
library, a demo, the benchmark or the acceptance tests, so that no code lives
in ``src`` only for the unit tests to call. No class in ``src/gbpl`` has a
body of only a docstring or ``pass``: such a class is a second name for its
base.

Options chosen by a string escape that guard, so every value of a string
registry that a config or a flag selects must be run too: ``DgpSpec.family``
(``dgp.FAMILIES``), a method's ``kind`` (``"gbpl"`` and
``baselines.BASELINE_KINDS``), ``FeedbackSpec``'s ``mode``, ``logging``,
``pseudo`` and ``propensity``, ``MlpArchitecture.head`` and the rule of
``gbpl evaluate --rule`` (``evaluation.RULES``). A value is run
when a demo, a Python block of README, ``perfbench/workloads.py`` or the
acceptance tests name it, as a string literal or by the ``src`` module
constant that holds it. A default that no driver names does not count.

Both guards keep an allowlist, and each entry names the ROADMAP direction
that will give it a driver:

- ``dgp.read_logged_csv``, the reader of the logged CSVs that ``gbpl
  simulate --logging`` writes: direction 4, which trains from such a file;
- the baseline kind ``direct_welfare`` and the families ``binary1`` and
  ``binary3``: direction 20, whose zeta-path demo runs them;
- ``logging: "logistic"``, ``pseudo: "ipw"`` and ``propensity: "true"``:
  direction 4, which gives ``gbpl train`` those ``FeedbackSpec`` flags and
  the binary logged round trip.

An allowlist entry must name something that exists and is still undriven, so
an entry that gains a driver, or whose name or value is gone, fails too.

Each name has one import path, the module that defines it. The package's
``__init__`` re-exports nothing, so a fresh ``import gbpl.<m>`` loads exactly
the ``gbpl`` modules that ``m`` imports at its top level, and their imports in
turn. Every ``from gbpl.X import Y`` in ``src``, the demos, the benchmark,
README's Python blocks and the tests names a ``Y`` that ``X`` defines, not one
that ``X`` only imports.

Every ``gbpl`` command that README shows must parse with the command line's
own parser, so a renamed or removed flag cannot linger in the docs.

Bad input reaches the user through one path: ``cli._usage_errors`` is the only
place in ``cli.py`` that calls ``usage_error``. Every matrix product of the
nets goes through one path too: ``nnet._product``, which keeps it in row blocks
that OpenBLAS runs on one thread, is the only place in ``nnet.py`` that
multiplies matrices. A non-finite array is rejected through one helper,
``surrogate.check_finite``, and every other ``np.isfinite`` call in ``src``
is on an allowlist of checks that need more than a yes or no: the line and
column of ``dgp._read_table``'s bad cell, ``LoggedDataset``'s whole-number
label test, and the ``FloatingPointError`` checks of a diverging step in
``posterior``. A stale entry fails too. A probability row is checked through
one helper as well: no ``src`` code outside ``surrogate.check_simplex``
subtracts 1 from a ``.sum(...)`` or compares a sum with 1.

Results do not depend on how many threads OpenBLAS runs: a short
``posterior-viz`` run and two one-trial experiments on the default 128-wide
net, a binary one and a K = 5 logged one with fitted propensities and
cross-fitted outcome regressions, write the same CSV bytes with one BLAS
thread and with two. Each run is a fresh interpreter, because OpenBLAS reads
its thread count when numpy loads.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gbpl import baselines, cli, dgp, evaluation, nnet
from gbpl import experiment as ex
from gbpl.posterior import SgldConfig, TrainConfig

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
# the reader of the logged CSVs that `gbpl simulate --logging` writes, kept for
# users' files though no library path reads them (direction 4)
_UNUSED_ALLOWED = {"dgp.read_logged_csv"}
_REGISTRIES = {
    "DgpSpec.family": dgp.FAMILIES,
    "MethodSpec.kind": (ex.KIND_GBPL, *baselines.BASELINE_KINDS),
    "FeedbackSpec.mode": ex.FEEDBACK_MODES,
    "FeedbackSpec.logging": dgp.LOGGING_POLICIES,
    "FeedbackSpec.pseudo": ex.PSEUDO_KINDS,
    "FeedbackSpec.propensity": ex.PROPENSITY_SOURCES,
    "MlpArchitecture.head": nnet._HEADS,
    "evaluate --rule": evaluation.RULES,
}
# registry values that nothing runs yet -> the ROADMAP direction that will run them
_UNDRIVEN_ALLOWED = {
    ("MethodSpec.kind", "direct_welfare"): "direction 20",
    ("DgpSpec.family", "binary1"): "direction 20",
    ("DgpSpec.family", "binary3"): "direction 20",
    ("FeedbackSpec.logging", "logistic"): "direction 4",
    ("FeedbackSpec.pseudo", "ipw"): "direction 4",
    ("FeedbackSpec.propensity", "true"): "direction 4",
}


def _src_env(**extra):
    """This process's environment, with ``src`` first on ``PYTHONPATH``, for a
    fresh interpreter that imports gbpl from this checkout."""
    path = [str(_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def _readme_blocks(language):
    """The text of each ```language block of README."""
    return re.findall(rf"^```{language}\n(.*?)^```", (_ROOT / "README.md").read_text(),
                      flags=re.S | re.M)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("module, attr", [site[:2] for site in _tracing().FUNCTION_SITES])
def test_traced_binding_is_callable(module, attr):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    # the binding must be on a call path: defined in its module or called there by name
    tree = ast.parse(Path(mod.__file__).read_text())
    defined = any(isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == attr
                  for top in tree.body)
    called = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == attr for node in ast.walk(tree))
    assert defined or called, f"{module}.{attr} is bound but never called there"


def test_traced_methods_are_defined_where_the_tracer_looks():
    # the tracer wraps only methods a class defines in its own body and skips a
    # missing one silently, so a rename would drop its spans without an error
    from gbpl import losses
    from gbpl.methods import FittedPolicy

    adapters = [obj for obj in vars(losses).values() if isinstance(obj, type)
                and obj.__module__ == losses.__name__ and obj is not losses.BatchLoss]
    assert adapters
    for cls in adapters:
        for method in _tracing().LOSS_METHODS:
            assert method in vars(cls), f"losses.{cls.__name__}.{method}"
    assert "decide" in vars(FittedPolicy)


def test_posterior_viz_spans(tmp_path):
    # the sampler's steps are the backward calls directly inside its span, and each
    # recorded draw's welfare goes through the traced test_welfare binding once
    sgld = SgldConfig(step_size=1e-4, burn_in=5, n_draws=4, thin=3, batch_size=32)
    cfg = ex.PosteriorVizConfig(output_dir=str(tmp_path), n=200, hidden=(8, 8), grid_points=20,
                                train=TrainConfig(max_epochs=2, patience=2), sgld=sgld)
    tracing = _tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        ex.run_posterior_viz(cfg)
    summary = tracer.summary()
    assert summary["posterior.sgld_sample"]["calls"] == 1
    assert summary["posterior.sgld_sample"]["steps"] == sgld.burn_in + sgld.n_draws * sgld.thin
    assert summary["evaluation.test_welfare"]["calls"] == sgld.n_draws


def _uses(tree):
    """(name, enclosing top-level definition or None) of every AST name,
    attribute and import in a module; docstrings and comments do not count."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((alias.name.rpartition(".")[2], owner) for alias in node.names)


def test_every_public_src_definition_is_used_outside_the_unit_tests():
    src = sorted((_ROOT / "src" / "gbpl").glob("*.py"))
    users = [*src, *(_ROOT / "demos").glob("*.py"), *(_ROOT / "perfbench").glob("*.py"),
             _ROOT / "tests" / "test_acceptance.py"]
    uses = {path: set(_uses(ast.parse(path.read_text()))) for path in users}
    unused = []
    for path in src:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if not any(name == top.name and (user, owner) != (path, top.name)
                       for user, found in uses.items() for name, owner in found):
                unused.append(f"{path.stem}.{top.name}")
    assert sorted(set(unused) - _UNUSED_ALLOWED) == []
    assert sorted(_UNUSED_ALLOWED - set(unused)) == [], "stale allowlist entries"


def _driver_trees():
    """The parsed demos, README's Python blocks, the perfbench workloads and
    the acceptance tests: what runs a registry value."""
    paths = [*sorted((_ROOT / "demos").glob("*.py")), _ROOT / "perfbench" / "workloads.py",
             _ROOT / "tests" / "test_acceptance.py"]
    return [*(ast.parse(path.read_text()) for path in paths),
            *(ast.parse(block) for block in _readme_blocks("python"))]


def test_every_registry_value_is_run_by_a_driver():
    constants = {}  # each top-level `NAME = "value"` in src, by value
    for path in (_ROOT / "src" / "gbpl").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if (isinstance(top, ast.Assign) and isinstance(top.value, ast.Constant)
                    and isinstance(top.value.value, str)):
                constants.setdefault(top.value.value, set()).update(
                    target.id for target in top.targets)
    named = set()  # every string literal and identifier in a driver
    for tree in _driver_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    undriven = {(registry, value) for registry, values in _REGISTRIES.items()
                for value in values if not ({value} | constants.get(value, set())) & named}
    assert sorted(undriven - _UNDRIVEN_ALLOWED.keys()) == []
    assert sorted(_UNDRIVEN_ALLOWED.keys() - undriven) == [], "stale allowlist entries"


def test_no_src_class_is_only_a_second_name_for_its_base():
    empty = [f"{path.stem}.{node.name}"
             for path in sorted((_ROOT / "src" / "gbpl").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and all(isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Constant) for stmt in node.body)]
    assert empty == []


_SRC = _ROOT / "src" / "gbpl"
_MODULES = sorted(path.stem for path in _SRC.glob("*.py") if path.stem != "__init__")


def _gbpl_imports(tree, top_level_only=False):
    """(module, name or None) of every ``gbpl`` import in ``tree``, or of those
    at its top level; ``from gbpl import m`` gives ``("gbpl", "m")``."""
    nodes = tree.body if top_level_only else ast.walk(tree)
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gbpl":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "gbpl")


def _import_closure(module):
    """``gbpl``, ``gbpl.<module>`` and every ``gbpl`` module it imports at its
    top level, transitively."""
    closure, todo = {"gbpl"}, [module]
    while todo:
        name = todo.pop()
        if f"gbpl.{name}" in closure:
            continue
        closure.add(f"gbpl.{name}")
        tree = ast.parse((_SRC / f"{name}.py").read_text())
        todo.extend(filter(None, (sub if mod == "gbpl" else mod.partition(".")[2]
                                  for mod, sub in _gbpl_imports(tree, top_level_only=True))))
    return closure


@pytest.mark.parametrize("module", _MODULES)
def test_fresh_import_loads_only_the_import_closure(module):
    code = (f"import sys, gbpl.{module}; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'gbpl'))")
    loaded = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                            capture_output=True, text=True, timeout=60).stdout.split()
    assert sorted(loaded) == sorted(_import_closure(module))


def _defined(module):
    """The names that ``module`` defines at its top level: functions, classes
    and assignment targets; the package defines its submodules."""
    tree = ast.parse((_SRC / ("__init__.py" if module == "gbpl" else
                              f"{module.partition('.')[2]}.py")).read_text())
    names = set(_MODULES) if module == "gbpl" else set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names.update(node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name))
    return names


def test_every_gbpl_import_names_what_its_module_defines():
    trees = {str(path.relative_to(_ROOT)): ast.parse(path.read_text())
             for folder in ("src/gbpl", "demos", "perfbench", "tests")
             for path in sorted((_ROOT / folder).glob("*.py"))}
    trees.update((f"README.md block {i}", ast.parse(block))
                 for i, block in enumerate(_readme_blocks("python")))
    stray = [f"{where}: from {module} import {name}" for where, tree in trees.items()
             for module, name in _gbpl_imports(tree)
             if name is not None and name not in _defined(module)]
    assert stray == []


def _readme_commands():
    """The arguments of every ``gbpl`` command in README's bash blocks, with
    continued lines joined, comments and ``VAR=value`` prefixes dropped."""
    commands = []
    for block in _readme_blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Za-z_]\w*=.*", words[0]):
                words.pop(0)
            if words[:1] == ["gbpl"]:
                commands.append(words[1:])
    return commands


_README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _README_COMMANDS} == {
        "simulate", "train", "evaluate", "experiment", "posterior-viz", "paccheck"}


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    # parsed only, never run
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README's `gbpl {shlex.join(argv)}` does not parse (exit {exc.code})")


def test_usage_error_is_called_only_from_the_usage_errors_guard():
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and "usage_error" in
               (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert callers == ["_usage_errors"]


def test_matrix_products_in_nnet_go_through_the_blocked_product():
    tree = ast.parse(Path(nnet.__file__).read_text())
    callers = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
               or isinstance(node, ast.Call) and {"matmul", "dot"}
               & {getattr(node.func, "attr", None), getattr(node.func, "id", None)}}
    assert callers == {"_product"}


# np.isfinite calls outside check_finite, by enclosing definition -> how many
_ISFINITE_ALLOWED = {
    "surrogate.check_finite": 2,
    "dgp._read_table": 2,  # the line and column of the first bad cell
    "counterfactual.LoggedDataset.__post_init__": 1,  # float labels must be whole
    "posterior.objective_gradient": 2,  # FloatingPointError: a diverging step
    "posterior.sgld_sample": 1,  # FloatingPointError: a diverging chain
}


def _src_sites(match):
    """(enclosing definition, line) of every AST node in ``src/gbpl`` that
    ``match`` accepts; a definition is named ``module.function`` or
    ``module.Class.method``, and module-level code ``module``."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if match(child):
                sites.append((owner, child.lineno))
            visit(child, owner)

    for path in sorted((_ROOT / "src" / "gbpl").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_array_finiteness_is_checked_through_check_finite():
    calls = Counter(owner for owner, _ in _src_sites(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "isfinite" and getattr(node.func.value, "id", None) == "np"))
    assert {name: n for name, n in calls.items() if _ISFINITE_ALLOWED.get(name) != n} == {}
    assert sorted(_ISFINITE_ALLOWED.keys() - calls.keys()) == [], "stale allowlist entries"


def _is_sum(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sum"


def _is_one(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def _sum_to_one_test(node):
    """Whether ``node`` subtracts 1 from a ``.sum(...)`` (``s - 1``, ``1 - s``,
    ``np.subtract(s, 1)``) or compares one with 1 (``s == 1``,
    ``np.isclose(s, 1)``)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        operands = [node.left, node.right]
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "subtract", "isclose", "allclose"):
        operands = node.args
    else:
        return False
    return any(map(_is_sum, operands)) and any(map(_is_one, operands))


def test_probability_rows_are_checked_through_check_simplex():
    sites = _src_sites(_sum_to_one_test)
    assert [site for site in sites if site[0] != "surrogate.check_simplex"] == []


def _csv_bytes_with_blas_threads(threads, out, argv):
    subprocess.run([sys.executable, "-m", "gbpl.cli", *argv, "--out", str(out)],
                   env=_src_env(OPENBLAS_NUM_THREADS=str(threads)), check=True, capture_output=True, timeout=300)
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


_SHORT_TRAIN = {"max_epochs": 3, "patience": 3}


@pytest.mark.parametrize("argv, config", [
    (["posterior-viz", "--max-epochs", "3", "--burn-in", "20", "--n-draws", "10", "--thin", "2"],
     None),
    (["experiment", "--config"], {
        "dgp": {"family": "binary2", "n": 400}, "trials": 1,
        "methods": [{"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1}],
        "train": _SHORT_TRAIN}),
    (["experiment", "--config"], {
        "dgp": {"family": "multi1", "n": 400, "k": 5}, "trials": 1,
        "feedback": {"mode": "logged", "logging": "softmax", "clip": 0.05, "pseudo": "dr",
                     "propensity": "fitted", "folds": 2},
        "methods": [{"name": "GBPL-full (zeta=0.01)", "kind": "gbpl", "zeta": 0.01},
                    {"name": "PluginRegK", "kind": "plugin_reg_k"}],
        "train": _SHORT_TRAIN})], ids=["posterior-viz", "experiment", "experiment-logged-k5"])
def test_results_do_not_depend_on_the_blas_thread_count(tmp_path, argv, config):
    # the experiments fit the default (128, 128) net, whose 128-row products
    # OpenBLAS would thread by size, with a tanh and a softmax head;
    # posterior-viz runs its default (64, 64) net
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, str(path)]
    one = _csv_bytes_with_blas_threads(1, tmp_path / "one", argv)
    two = _csv_bytes_with_blas_threads(2, tmp_path / "two", argv)
    assert one and one == two
