"""Seeded synthetic data generators, logged-data simulation and CSV interchange.

Each family draws from one ``numpy`` generator in a fixed, documented order:
first the covariates, then any direction vectors and intercepts of the mean
functions, then the outcome noise. Because the order is fixed per family,
identical (family, n, d, K, noise_sd, seed) always yields bit-identical data,
no matter what else the caller does.

Binary families store outcomes as columns [Y(1), Y(0)]; K-action families as
columns for actions 1..K in order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gbpl.counterfactual import LoggedDataset, check_clip, clip_propensities
from gbpl.losses import sigmoid
from gbpl.nnet import softmax
from gbpl.surrogate import FullFeedbackDataset

BINARY_FAMILIES = ("binary1", "binary2", "binary3")
MULTI_FAMILIES = ("multi1", "multi2", "multi3")
ONEDIM_FAMILY = "onedimviz"
FAMILIES = (*BINARY_FAMILIES, *MULTI_FAMILIES, ONEDIM_FAMILY)

LOGGING_LOGISTIC = "logistic"
LOGGING_SOFTMAX = "softmax"
LOGGING_POLICIES = (LOGGING_LOGISTIC, LOGGING_SOFTMAX)


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one synthetic draw. Omitted fields take family defaults:
    binary families force K = 2; multi families default to K = 5, d = 10;
    the one-dimensional visualization family forces d = 1, K = 2 and uses
    noise 0.6 by default; all others default to noise 1.0. K >= 2 always."""

    family: str
    n: int
    d: int | None = None
    k: int | None = None
    noise_sd: float | None = None
    seed: int = 0

    def __post_init__(self):
        fam = self.family.lower()
        object.__setattr__(self, "family", fam)
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k is None:
            object.__setattr__(self, "k", 5 if fam in MULTI_FAMILIES else 2)
        if fam in BINARY_FAMILIES and self.k != 2:
            raise ValueError("binary families require K = 2")
        if self.k < 2:
            raise ValueError(f"family {fam} needs K >= 2, got {self.k}")
        if fam in BINARY_FAMILIES + MULTI_FAMILIES:
            object.__setattr__(self, "d", self.d if self.d is not None else 10)
            min_d = _BASELINES[fam[-1]][0]
            if self.d < min_d:
                raise ValueError(f"family {fam} uses the first {min_d} covariates; "
                                 f"d >= {min_d} required")
        elif fam == ONEDIM_FAMILY:
            if self.d not in (None, 1) or self.k != 2:
                raise ValueError("the 1-D visualization family forces d = 1, K = 2")
            object.__setattr__(self, "d", 1)
        if self.noise_sd is None:
            object.__setattr__(self, "noise_sd", 0.6 if fam == ONEDIM_FAMILY else 1.0)
        if not 0 <= self.noise_sd < np.inf:  # NaN fails too
            raise ValueError(f"noise_sd must be nonnegative and finite, got {self.noise_sd!r}")


def _unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


# the baseline mean that binary<i> and multi<i> share, keyed by i, with the
# number of leading covariates it reads: the family's minimum d
_BASELINES = {
    "1": (4, lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2 - 0.25 * x[:, 2] * x[:, 3]),
    "2": (3, lambda x: 0.5 * np.sin(x[:, 0]) + 0.3 * x[:, 1] - 0.2 * x[:, 2] ** 2),
    "3": (3, lambda x: 0.2 * x[:, 0] - 0.1 * x[:, 1] + 0.1 * np.tanh(x[:, 2])),
}


def _binary_means(fam: str, x: np.ndarray, rng: np.random.Generator, d: int):
    """Conditional means [Y(1), Y(0)] of the binary families; draws any
    direction vector from ``rng`` (binary1 only)."""
    base = _BASELINES[fam[-1]][1](x)
    if fam == "binary1":
        w = _unit_vector(rng, d)
        effect = 2.0 * np.tanh(x @ w / np.sqrt(d))
    elif fam == "binary2":
        effect = 1.5 * np.sin(x[:, 0] + x[:, 1])
    else:  # binary3
        effect = 2.5 * ((x[:, 0] > 0).astype(np.float64) - 0.5 + 0.2 * x[:, 1])
    return np.column_stack([base + effect, base])


def _multi_means(fam: str, x: np.ndarray, rng: np.random.Generator, d: int, k: int):
    base = _BASELINES[fam[-1]][1](x)
    gamma = np.empty((x.shape[0], k))
    for a in range(1, k + 1):
        w_a = _unit_vector(rng, d)
        index = x @ w_a / np.sqrt(d)
        if fam == "multi1":
            gamma[:, a - 1] = base + 1.5 * np.sin(index + 0.3 * a)
        elif fam == "multi2":
            gamma[:, a - 1] = base + 2.0 * np.tanh(index - 0.2 * a)
        else:
            gamma[:, a - 1] = base + 1.0 * (index > 0).astype(np.float64) + 0.1 * a
    return gamma


def onedim_effect(x: np.ndarray) -> np.ndarray:
    """The ``onedimviz`` family's treatment effect E[Y(1) - Y(0) | x] = 1.2 sin x."""
    return 1.2 * np.sin(x)


def generate_full_feedback(spec: DgpSpec) -> tuple[FullFeedbackDataset, np.ndarray]:
    """Draw a full-feedback dataset plus its (n, K) true conditional means
    gamma, in the column order of the outcomes.

    Stream order: covariates, then mean-function directions, then one noise
    column per action.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.family == ONEDIM_FAMILY:
        x = rng.uniform(-2.5, 2.5, size=(spec.n, 1))
        base = 0.2 * x[:, 0] + 0.2 * np.sin(1.5 * x[:, 0])
        gamma = np.column_stack([base + onedim_effect(x[:, 0]), base])
    elif spec.family in BINARY_FAMILIES:
        x = rng.standard_normal((spec.n, spec.d))
        gamma = _binary_means(spec.family, x, rng, spec.d)
    else:
        x = rng.standard_normal((spec.n, spec.d))
        gamma = _multi_means(spec.family, x, rng, spec.d, spec.k)
    noise = spec.noise_sd * rng.standard_normal((spec.n, spec.k))
    y = gamma + noise
    return FullFeedbackDataset(x, y), gamma


def check_logging(k: int, logging: str, clip: float) -> None:
    """Raise ``ValueError`` unless ``generate_logged`` accepts these arguments at K = k."""
    check_clip(clip, k)
    if logging not in LOGGING_POLICIES:
        raise ValueError(f"unknown logging policy {logging!r}")
    if logging == LOGGING_LOGISTIC and k != 2:
        raise ValueError("logistic logging is binary only")


def generate_logged(spec: DgpSpec, logging: str,
                    clip: float) -> tuple[LoggedDataset, FullFeedbackDataset]:
    """Convert a full-feedback draw into logged data under a stochastic
    logging policy with a random linear index: ``logistic`` (K = 2 only) or
    ``softmax``.

    Propensities are projected onto the clip-floored simplex, so every entry
    lies in [clip, 1 - (K-1) clip] and rows sum to one. Returns the logged dataset (with
    the true propensities attached) together with the hidden full-feedback
    table, which is meant for evaluation only and must not reach learners.

    Logging randomness comes from its own stream keyed by the spec seed, kept
    apart from the data stream.
    """
    check_logging(spec.k, logging, clip)
    full = generate_full_feedback(spec)[0]  # its (n, K) conditional means are not needed
    k = full.k
    rng = np.random.default_rng([spec.seed, 0x106])
    if logging == LOGGING_LOGISTIC:
        beta = rng.standard_normal(full.d) / np.sqrt(full.d)
        p1 = sigmoid(full.x @ beta)
        e = np.column_stack([p1, 1.0 - p1])
    else:
        betas = rng.standard_normal((full.d, k)) / np.sqrt(full.d)
        e = full.x @ betas
        softmax(e, out=e)
    e = clip_propensities(e, clip)  # floor clip, ceiling 1 - (K-1) clip, rows sum to 1

    u = rng.random(full.n)
    cum = np.cumsum(e, axis=1)
    cols = (u[:, None] > cum).sum(axis=1)
    y_obs = full.y[np.arange(full.n), cols]
    a = LoggedDataset.labels(k)[cols]
    logged = LoggedDataset(x=full.x, a=a, y_obs=y_obs, k=k, true_propensity=e)
    return logged, full


# ---------------------------------------------------------------------------
# CSV interchange


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows as CSV with "\\n" line ends, quoting only fields
    that hold a comma, a quote or a line end, creating missing directories.

    Floats, numpy floats included, are written as ``repr(float(v))``, which
    reads back bit for bit; ints as ``str``; ``None`` as an empty field.
    """
    def field(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else v

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([field(v) for v in row] for row in rows)


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header and finite numeric body of a CSV with at least one data row; a
    malformed file raises ``ValueError`` naming the file and the cause."""
    try:
        with Path(path).open(newline="") as fh:
            lines = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable as CSV text: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    header, rows = lines[0], lines[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {i} has {len(row)} fields, the header {len(header)}")
    try:
        table = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric value: {exc}") from exc
    if not np.all(np.isfinite(table)):
        line, col = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(f"{path}: non-finite value in column {header[col]!r} on line {line + 2}")
    return header, table


def _check_columns(path, header: list[str], expected: list[str]) -> None:
    if header != expected:
        raise ValueError(f"{path}: expected columns {','.join(expected)}, got {','.join(header)}")


def _names(prefix: str, header: list[str]) -> list[str]:
    """``prefix1..prefixN`` for the N header columns that start with ``prefix``."""
    return [f"{prefix}{j + 1}" for j in range(sum(c.startswith(prefix) for c in header))]


def write_full_feedback_csv(path: str | Path, data: FullFeedbackDataset) -> None:
    """Columns x_1..x_d, y_1..y_K (binary: y_1 = Y(1), y_2 = Y(0))."""
    header = [f"x_{j + 1}" for j in range(data.d)] + [f"y_{a + 1}" for a in range(data.k)]
    write_table(path, header, np.hstack([data.x, data.y]))


def read_full_feedback_csv(path: str | Path) -> FullFeedbackDataset:
    """Inverse of ``write_full_feedback_csv``; columns must be x_1..x_d, y_1..y_K."""
    header, table = _read_table(path)
    xs, ys = _names("x_", header), _names("y_", header)
    _check_columns(path, header, xs + ys)
    try:
        return FullFeedbackDataset(table[:, : len(xs)], table[:, len(xs) :])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_logged_csv(path: str | Path, logged: LoggedDataset) -> None:
    """Columns x_1..x_d, action, y_obs, and e_1..e_K when propensities are known."""
    e = logged.true_propensity
    header = [f"x_{j + 1}" for j in range(logged.d)] + ["action", "y_obs"]
    if e is not None:
        header += [f"e_{a + 1}" for a in range(logged.k)]
    tails = np.empty((logged.n, 0)) if e is None else e
    write_table(path, header, ([*x, int(a), y, *p] for x, a, y, p
                               in zip(logged.x, logged.a, logged.y_obs, tails)))


def read_logged_csv(path: str | Path, k: int | None = None) -> LoggedDataset:
    """Inverse of ``write_logged_csv``. K is the number of e_ columns, or ``k``
    when the file has none; actions must be integer labels."""
    header, table = _read_table(path)
    xs, es = _names("x_", header), _names("e_", header)
    _check_columns(path, header, xs + ["action", "y_obs"] + es)
    d = len(xs)
    if k is None and not es:
        raise ValueError(f"{path}: no e_ columns to take K from; pass k")
    e = table[:, d + 2 :] if es else None
    try:
        return LoggedDataset(table[:, :d], table[:, d], table[:, d + 1],
                             len(es) if k is None else k, e)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
