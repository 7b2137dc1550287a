"""gbpl benchmark: end-to-end timings, or per-module spans from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload binary_cv --seed 0 --seconds 30 --trace 0

The benchmark drives gbpl in-process through ``experiment.run_experiment``
and ``cli.main(["posterior-viz", ...])`` as a closed loop: one caller, each
repetition starting when the previous one has ended. It starts no process
and leaves the BLAS thread count as it finds it.

A run generates the workload's inputs from ``--seed`` and repeats the
workload for ``--seconds``. Before each repetition it times, several times
over, a fresh import of gbpl and the generation of the first trial's data.
The first repetition is an untimed warm-up; it also measures, with
tracemalloc, the peak memory the workload allocates. With ``--trace 0`` the
repetitions run untraced and give the end-to-end metrics. With ``--trace 1``
traced and untraced repetitions alternate and the run reports per-module
metrics from the spans. Metric names, units and workload names are read from
``BENCHMARK.json``. Every repetition's result CSVs are hashed, and each
digest must equal the warm-up's. The metrics are printed one per line with
their units; the last line of standard output is the JSON result. Details, with the spans of the last traced repetition, go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

_t0 = time.perf_counter()
import numpy as np  # noqa: E402  (timed: its import is reported as numpy_import_s)

NUMPY_IMPORT_S = time.perf_counter() - _t0

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
# Per-layer metrics are named <span>.<field>.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# Set-up cycles before each repetition. On a shared host the speed drifts
# over seconds, so many short samples spread over the run give a steadier
# median than one sample per repetition.
SETUP_CYCLES = 3
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GBPL_JOBS")


def gbpl_source(root: Path = ROOT) -> Path:
    """The checkout's ``src`` directory; SystemExit if gbpl's source is absent."""
    src = root / "src"
    if not (src / "gbpl" / "__init__.py").is_file():
        raise SystemExit(f"gbpl source not found under {src}; run from a full checkout")
    return src


# ---------------------------------------------------------------------------
# machine facts


def _openblas():
    """(path, thread count, config string) of the loaded OpenBLAS, read with
    ctypes; None where the library or its symbol is not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:  # no /proc: not Linux
        paths = []
    if not paths:
        return None, None, None
    lib = ctypes.CDLL(paths[0])
    threads = config = None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if fn is not None and threads is None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
            fn = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if fn is not None and config is None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                config = fn().decode()
    return paths[0], threads, config


def machine_facts(env: dict) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    path, threads, config = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "library": path,
            "threads": threads,
            "config": config,
        },
        "env": env,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# one repetition


@dataclass
class Rep:
    # Wall and CPU seconds of each part: each chain of posterior_viz, or
    # the whole experiment.
    wall_parts: list[float]
    cpu_parts: list[float]
    digest: str
    welfare: float
    interval_means: list[float]  # of each posterior_viz chain; empty for experiments
    tracer: tracing.Tracer | None = None
    peak_alloc_mb: float | None = None  # measured only when asked for


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(name: str, out_dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for i, d in enumerate(out_dirs):
        for f in workloads.result_files(name):
            h.update(f"{i}/{f}\n".encode())
            h.update((d / f).read_bytes())
    return h.hexdigest()


def _peak_alloc(call, measure: bool):
    """``call()`` and, with ``measure``, the peak in MB of the memory that
    tracemalloc traced during it (Python objects and numpy buffers).

    Unlike the process's peak RSS, this does not depend on the host: on a
    shared host numpy's large arrays get huge pages or not, and the peak RSS
    of the same run varied by 8 MB.
    """
    if not measure:
        return call(), None
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _timed(call, measure_memory: bool):
    """``call()``, its wall and CPU seconds, and its peak allocation."""
    cpu0, t0 = _cpu_s(), time.perf_counter()
    result, peak = _peak_alloc(call, measure_memory)
    return result, time.perf_counter() - t0, _cpu_s() - cpu0, peak


def _call_workload(name: str, seed: int, out: Path, epochs: dict, memory: bool):
    """Run the workload; return its output directories, the wall and CPU
    seconds of each part and, with ``memory``, the peak allocation. The
    chains of posterior_viz run one after another on inputs of the same
    size, so the first chain's peak is the workload's."""
    if name == "posterior_viz":
        cli = importlib.import_module("gbpl.cli")
        dirs, walls, cpus, peak = [], [], [], None
        for chain in range(workloads.VIZ_CHAINS):
            d = out / f"chain{chain}"
            argv = workloads.viz_argv(seed, chain, d, **epochs)
            with contextlib.redirect_stdout(io.StringIO()):
                code, wall, cpu, chain_peak = _timed(lambda: cli.main(argv),
                                                     memory and chain == 0)
            if code != 0:
                raise RuntimeError(f"gbpl posterior-viz exited with {code}")
            peak = peak if chain_peak is None else chain_peak
            dirs.append(d)
            walls.append(wall)
            cpus.append(cpu)
        return dirs, walls, cpus, peak
    experiment = importlib.import_module("gbpl.experiment")
    cfg = experiment.parse_config(workloads.experiment_config(name, seed, out, **epochs))
    out_dir, wall, cpu, peak = _timed(lambda: experiment.run_experiment(cfg), memory)
    return [out_dir], [wall], [cpu], peak


def repetition(name: str, seed: int, traced: bool, epochs: dict, memory: bool = False) -> Rep:
    """Run the workload once; time it, hash and check its outputs. With
    ``memory`` it also measures the peak allocation, which slows it about
    twofold, so such a repetition is not timed."""
    out = OUT_ROOT / f"{name}-s{seed}"
    shutil.rmtree(out, ignore_errors=True)
    tracer = tracing.Tracer() if traced else None
    with tracing.installed(tracer) if traced else contextlib.nullcontext():
        dirs, walls, cpus, peak = _call_workload(name, seed, out, epochs, memory)
    workloads.check_outputs(name, dirs)
    means = workloads.interval_means(dirs) if name == "posterior_viz" else []
    return Rep(walls, cpus, digest(name, dirs), workloads.welfare(name, dirs), means, tracer,
               peak)


def per_repetition(reps: list[Rep], field: str) -> float:
    """Median seconds of a repetition: its number of parts times the median
    over all parts of all ``reps``. The parts of a repetition do the same
    work, and the median of many short samples shrugs off a slow spell of
    the host that would lengthen a few long ones."""
    parts = [t for r in reps for t in getattr(r, field)]
    return len(getattr(reps[0], field)) * statistics.median(parts)


# ---------------------------------------------------------------------------
# set-up


def setup_cycle(name: str, seed: int) -> float:
    """Seconds to import gbpl afresh and generate the first trial's data.

    gbpl is first removed from ``sys.modules``. numpy stays imported: its
    one-time import varied between 0.06 and 0.19 s from run to run, more than
    gbpl's whole set-up, so it is reported apart.
    """
    for mod in [m for m in sys.modules if m == "gbpl" or m.startswith("gbpl.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    importlib.import_module("gbpl.cli")
    workloads.generate_first_data(name, seed)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    summary = tracer.summary()
    out = {}
    for metric in PER_LAYER:
        span, fld = metric.rsplit(".", 1)
        if fld in ("gflop", "gflop_per_s", "overhead_s"):
            continue
        out[metric] = float(summary.get(span, {}).get(fld, 0))
    backward = summary.get("nnet.backward", {})
    gflop = backward.get("flops", 0) / 1e9
    out["nnet.backward.gflop"] = gflop
    self_s = backward.get("self_s", 0.0)
    out["nnet.backward.gflop_per_s"] = gflop / self_s if self_s > 0 else 0.0
    return out


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    details: dict
    spans: list  # of the last traced repetition; empty without --trace 1


def measure(name: str, seed: int, seconds: float, trace: bool, epochs: dict | None = None,
            env: dict | None = None) -> Outcome:
    """One benchmark run. ``epochs`` overrides the workload's epoch budget
    (the self-test uses it to keep runs short)."""
    epochs = epochs or {}
    setup_samples: list[float] = []
    attempted, failed, errors = 0, 0, []
    plain: list[Rep] = []
    traced: list[Rep] = []
    reference: Rep | None = None

    def attempt(is_traced: bool) -> None:
        """Set up, then run one repetition. The first one to succeed is the
        untimed reference: it measures the peak allocation, and every later
        digest must equal its digest. Later ones are kept as samples."""
        nonlocal attempted, failed, reference
        attempted += 1
        setup_samples.extend(setup_cycle(name, seed) for _ in range(SETUP_CYCLES))
        try:
            rep = repetition(name, seed, is_traced, epochs, memory=reference is None)
        except Exception:  # a failed repetition is counted and reported, not fatal
            failed += 1
            errors.append(traceback.format_exc())
            return
        if reference is None:
            reference = rep
        elif rep.digest != reference.digest:
            failed += 1
            errors.append(f"digest {rep.digest} differs from the reference {reference.digest}")
        else:
            (traced if is_traced else plain).append(rep)

    deadline = time.perf_counter() + seconds
    attempt(False)  # warm-up: first repetitions ran 5-30 % slower
    while True:
        if trace:
            attempt(True)
        attempt(False)
        if time.perf_counter() >= deadline:
            if plain and (traced or not trace):
                break
            if failed >= 3:
                raise RuntimeError("repetitions keep failing:\n" + "\n".join(errors))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_count = workloads.optimiser_steps(name, epochs.get("epochs"))

    wall_s = per_repetition(plain, "wall_parts")
    if trace:
        per_rep = [layer_metrics(r.tracer) for r in traced]
        overhead = per_repetition(traced, "wall_parts") - wall_s
        metrics = {m: overhead if m == "trace.overhead_s"
                   else statistics.median(d[m] for d in per_rep) for m in PER_LAYER}
        units = PER_LAYER
        spans = traced[-1].tracer.spans()
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "steps_per_s": step_count / wall_s,
            "cpu_s": per_repetition(plain, "cpu_parts"),
            "peak_alloc_mb": reference.peak_alloc_mb,
            "welfare_mean": reference.welfare,
            "success_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
        spans = []
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "closed_loop": "one caller, repetitions back to back",
        "machine": machine_facts(env or {}),
        "digest": reference.digest,
        "digests_match": failed == 0,
        "steps": step_count,
        "interval_means": reference.interval_means,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples_s": setup_samples,
        "numpy_import_s": NUMPY_IMPORT_S,
        "wall_samples_s": [r.wall_parts for r in plain],
        "traced_wall_samples_s": [r.wall_parts for r in traced],
        "cpu_samples_s": [r.cpu_parts for r in plain],
        "errors": errors,
    }
    return Outcome(
        metrics={m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
        details=details,
        spans=spans,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(gbpl_source()))
    env = {k: os.environ.get(k) for k in ENV_KEYS}
    os.environ.pop("GBPL_JOBS", None)  # the workload config alone sets the job count

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), env=env)

    OUT_ROOT.mkdir(exist_ok=True)
    record = OUT_ROOT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": result.details, "metrics": result.metrics,
                                  "spans": result.spans}) + "\n")
    print(json.dumps(result.details))
    for m, v in result.metrics.items():
        print(f"{m:45s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
