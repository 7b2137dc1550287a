"""Fixed-architecture multilayer perceptron with manual backpropagation.

Every learned object in the package (bounded score nets, softmax policy nets,
nuisance regressions, linear softmax propensities) is an instance of the same
family: dense layers with ReLU hidden activations and one of three output
heads (scalar tanh, row-wise softmax, or raw affine). Parameters live in a
single flat float64 vector laid out layer by layer, weights before biases,
row-major, so gradients, optimizers, and samplers can treat the model as a
plain vector function.

No function here mutates its inputs. ``forward`` and ``backward`` write into
a :class:`Workspace`, a throwaway one when none is passed. A workspace belongs
to one caller: each call overwrites what the last one left in it, and
``backward`` spends the hidden activations of the ``forward`` before it by
writing its deltas over them. ``forward`` returns a fresh array and streams
its rows through the workspace in blocks of the workspace's row count, so an
inference pass needs memory for one block, not for every row; a throwaway
workspace has at most ``BLOCK_ROWS`` rows. Given ``rows``, it gathers those
rows of ``x`` one block at a time, so scoring a subset copies no more than a
block of it.

Every matrix product but a rank-one one (a faster broadcast) goes through
``_product``, which runs it in row blocks of at most ``_SMALL_PRODUCT``
multiply-adds, the size up to which OpenBLAS uses its single-threaded
small-matrix kernels. Those kernels take a contiguous right operand only, so
``backward`` multiplies its deltas by a contiguous copy of each hidden weight
matrix's transpose, made in the workspace's ``scratch``. A second BLAS thread
buys these nets no wall time and doubles their CPU time, and in forked worker
processes it oversubscribes the cores; with both measures no product of a net
up to about 350 wide wakes it.
``forward``, ``_product`` and ``posterior.map_train``'s validation loss take
their row blocks from ``_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gbpl.configio import from_dict, read_json, to_dict, write_json

HEAD_TANH = "tanh"
HEAD_SOFTMAX = "softmax"
HEAD_IDENTITY = "identity"

_HEADS = (HEAD_TANH, HEAD_SOFTMAX, HEAD_IDENTITY)

# rows per block of a forward pass without a workspace, the training minibatch
# size
BLOCK_ROWS = 128

# multiply-adds up to which OpenBLAS (0.3.31, SkylakeX kernels) runs a product
# on its single-threaded small-matrix kernels; a larger one it threads by size
_SMALL_PRODUCT = 100**3

# hidden widths of every fitted net that is not given its own
DEFAULT_HIDDEN = (128, 128)

# byte boundary on which the parameters and workspace buffers start: a 56-row
# block of a 128-wide product ran 35 us with every operand on a 64-byte
# boundary and 50-55 us with them off it, so where numpy's allocator happened
# to put a fit's buffers decided the fit's speed
_ALIGN = 64


@dataclass(frozen=True)
class MlpArchitecture:
    """Shape descriptor for the MLP family.

    ``head`` is one of ``"tanh"`` (requires output_dim 1), ``"softmax"``
    (requires output_dim >= 2), or ``"identity"``.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN
    output_dim: int = 1
    head: str = HEAD_TANH

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        for name in ("input_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden widths must be positive")
        if self.head not in _HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == HEAD_TANH and self.output_dim != 1:
            raise ValueError("tanh head requires output_dim = 1")
        if self.head == HEAD_SOFTMAX and self.output_dim < 2:
            raise ValueError("softmax head requires output_dim >= 2")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer, input to output order."""
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


def aligned_empty(shape: int | tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array whose data starts on an ``_ALIGN``-byte
    boundary; a product's row blocks of a 128-wide buffer start on one too."""
    size = int(np.prod(shape))
    buf = np.empty(size + _ALIGN // 8)
    lo = -buf.ctypes.data % _ALIGN // 8
    return buf[lo : lo + size].reshape(shape)


def init_params(arch: MlpArchitecture, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh flat parameter vector.

    Weights are uniform on [-s, s] with s = sqrt(6 / (fan_in + fan_out)) per
    layer; biases start at zero. Deterministic given the generator state.
    """
    chunks = []
    for fan_in, fan_out in arch.layer_dims:
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-s, s, size=(fan_in, fan_out))
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks, out=aligned_empty(arch.param_count))


def unflatten(arch: MlpArchitecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views."""
    if params.shape != (arch.param_count,):
        raise ValueError(
            f"parameter vector has length {params.shape}, architecture needs {arch.param_count}"
        )
    layers = []
    pos = 0
    for fan_in, fan_out in arch.layer_dims:
        w = params[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[pos : pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of an (n, K) matrix of logits, into ``out`` if given.

    Max subtraction keeps exp in range; rows then sum to 1 up to roundoff.
    """
    e = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


class Workspace:
    """Buffers for passes of up to ``rows`` rows; fewer rows use the leading ones.

    ``acts[i]`` holds layer i's output, post-head for the last layer. After a
    ``backward`` the hidden ones hold its deltas instead: they are spent, and
    only the output ``acts[-1]`` is still the forward pass's. The first
    ``backward`` allocates the flat ``grad``, its per-layer views ``grads``,
    and a flat ``scratch`` as long as ``grad``, which ``backward`` fills with
    transposed weights and a caller may use freely between its calls.
    Every buffer starts on an ``_ALIGN``-byte boundary. The per-layer views of the last float64 parameter array passed in are kept,
    keyed on that array object, so the caller may update it in place between
    calls but must not resize it.
    """

    def __init__(self, arch: MlpArchitecture, rows: int):
        self.rows = rows
        self.acts = [aligned_empty((rows, fan_out)) for _, fan_out in arch.layer_dims]
        self.grad = self.grads = self.scratch = None
        self._params = self._layers = None

    def layers(self, arch: MlpArchitecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``unflatten(arch, params)``, built once per parameter array.

        Other dtypes and non-contiguous arrays are copied first, so a kept
        view always shares memory with the array it is keyed on.
        """
        params = np.ascontiguousarray(params, dtype=np.float64)
        if params is not self._params:
            self._layers = unflatten(arch, params)
            self._params = params
        return self._layers


def _blocks(n: int, step: int):
    """``(lo, start, stop)`` per block of ``step`` of ``n`` rows: rows ``lo:stop``
    are computed and ``start:stop`` kept. A last lone row is computed along with
    the row before it, since numpy sends a single row down BLAS's vector-product
    path, which rounds differently; at ``step`` 1 every block is one row."""
    for start in range(0, n, step):
        lo = min(start, max(n - 2, 0)) if step > 1 else start
        yield lo, start, min(start + step, n)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` written into ``out``, in row blocks that OpenBLAS keeps on one thread.

    Every block but the last has as many rows as fit in ``_SMALL_PRODUCT``
    multiply-adds, rounded down to a multiple of 8: such blocks gave the bits
    of one whole product on every net measured, where 61-row blocks of a
    one-column product did not. A product too wide for 8 rows under the limit
    is left whole, to be threaded by size.
    """
    step = _SMALL_PRODUCT // (a.shape[1] * b.shape[1]) // 8 * 8
    for lo, _, stop in _blocks(a.shape[0], step or a.shape[0]):
        np.matmul(a[lo:stop], b, out=out[lo:stop])
    return out


def _forward_block(arch: MlpArchitecture, layers, x: np.ndarray, ws: Workspace) -> np.ndarray:
    """The post-head output for at most ``ws.rows`` rows, as a view into ``ws``."""
    n = x.shape[0]
    h = x
    for li, (w, b) in enumerate(layers):
        out = ws.acts[li][:n]
        if w.shape[0] == 1:  # a rank-one product: the broadcast is faster than matmul
            h = np.multiply(h, w, out=out)
        else:
            h = _product(h, w, out)
        h += b
        if li < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    if arch.head == HEAD_TANH:
        np.tanh(h, out=h)
    elif arch.head == HEAD_SOFTMAX:
        softmax(h, out=h)
    return h


def forward(arch: MlpArchitecture, params: np.ndarray, x: np.ndarray,
            ws: Workspace | None = None, rows: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the network on a batch, returning the post-head output.

    Given an index array ``rows``, the batch is ``x[rows]``, gathered one block
    at a time, bit for bit as if ``x[rows]`` were passed. Without a workspace,
    one of ``min(n, BLOCK_ROWS)`` rows is made. The rows are streamed through
    the workspace in blocks of its row count into a fresh (n, output_dim)
    array; the last block's activations stay in the workspace for
    ``backward``. A row comes out as one pass over every row gives it, up to
    BLAS choosing its kernel by problem size, which can move a row of a narrow
    output layer by a few ulp.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"x has shape {x.shape}, expected (n, {arch.input_dim})")
    n = x.shape[0] if rows is None else len(rows)
    ws = Workspace(arch, max(min(n, BLOCK_ROWS), 1)) if ws is None else ws
    layers = ws.layers(arch, params)
    out = np.empty((n, arch.output_dim))
    for lo, start, stop in _blocks(n, ws.rows):
        block = x[lo:stop] if rows is None else x[rows[lo:stop]]
        out[start:stop] = _forward_block(arch, layers, block, ws)[start - lo:]
    return out


def backward(
    arch: MlpArchitecture,
    params: np.ndarray,
    x: np.ndarray,
    loss_grad_at_output: np.ndarray,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Gradient of the scalar total loss with respect to the flat parameters.

    ``loss_grad_at_output`` holds d(total loss)/d(output) for the post-head
    output, shape (n, output_dim). The head Jacobian, the affine layers, and
    the ReLU masks are chained exactly; the result matches central finite
    differences to roundoff for smooth configurations.

    With a workspace, the activations are the ones the preceding
    ``forward(arch, params, x, ws)`` left there, so ``x`` must fit in it, and
    the result is ``ws.grad``, overwritten by the next call. Each hidden
    activation is dead once its layer's weight gradient is formed, so the
    deltas are written over it: the hidden activations are spent, and a second
    ``backward`` needs a fresh ``forward``. The output ``acts[-1]`` is kept.
    Each hidden layer's delta product takes a contiguous copy of its Wᵀ made
    in the parameter-sized ``ws.scratch``, whose contents are garbage once this
    returns, and runs in row blocks like every product here.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("backward needs a batch with rows: x has no rows")
    if ws is None:
        ws = Workspace(arch, n)
        forward(arch, params, x, ws)
    elif n > ws.rows:
        raise ValueError(f"backward needs every row's activations: x has {n} rows, "
                         f"the workspace holds {ws.rows}")
    out = ws.acts[-1][:n]
    g = np.asarray(loss_grad_at_output, dtype=np.float64)
    if g.shape != out.shape:
        raise ValueError(f"loss gradient has shape {g.shape}, expected {out.shape}")

    if arch.head == HEAD_TANH:
        gz = g * (1.0 - out**2)
    elif arch.head == HEAD_SOFTMAX:
        # d(softmax)/dz contracted with upstream: p * (g - <g, p>)
        inner = (g * out).sum(axis=1, keepdims=True)
        gz = out * (g - inner)
    else:
        gz = g

    if ws.grad is None:
        ws.grad = aligned_empty(arch.param_count)
        ws.grads = unflatten(arch, ws.grad)
        ws.scratch = aligned_empty(arch.param_count)
    layers = ws.layers(arch, params)
    for li in range(len(layers) - 1, -1, -1):
        h_in = x if li == 0 else ws.acts[li - 1][:n]
        gw, gb = ws.grads[li]
        _product(h_in.T, gz, gw)
        gz.sum(axis=0, out=gb)
        if li > 0:  # the delta goes over h_in, which is dead once its mask is taken
            active = h_in > 0.0
            w_t = layers[li][0].T
            if gz.shape[1] == 1:  # a rank-one product: the broadcast is faster than matmul
                np.multiply(gz, w_t, out=h_in)
            else:  # a transposed right operand would wake OpenBLAS's threads
                w_c = ws.scratch[:w_t.size].reshape(w_t.shape)
                np.copyto(w_c, w_t)
                _product(gz, w_c, h_in)
            h_in *= active
            gz = h_in
    return ws.grad


def save_params(directory: str | Path, arch: MlpArchitecture, params: np.ndarray) -> None:
    """Persist a parameter vector as a little-endian float64 blob + JSON sidecar."""
    vec = np.ascontiguousarray(np.asarray(params, dtype="<f8"))
    if vec.shape != (arch.param_count,):
        raise ValueError("parameter vector does not match the architecture")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "params.bin").write_bytes(vec.tobytes())
    write_json(directory / "arch.json",
               {"arch": to_dict(arch), "dim": int(vec.size), "dtype": "<f8"})


def load_params(directory: str | Path) -> tuple[MlpArchitecture, np.ndarray]:
    """Inverse of ``save_params``, reading the blob as the float dtype that the
    sidecar's ``"dtype"`` key names into float64; a sidecar or blob that does
    not describe one model raises ``ValueError`` naming the file."""
    sidecar_path, blob_path = Path(directory) / "arch.json", Path(directory) / "params.bin"
    sidecar = read_json(sidecar_path)
    try:
        arch, dim = from_dict(MlpArchitecture, sidecar["arch"]), sidecar["dim"]
        dtype = sidecar["dtype"]
    except KeyError as err:
        raise ValueError(f"{sidecar_path}: missing key {err}") from None
    except ValueError as err:
        raise ValueError(f"{sidecar_path}: {err}") from None
    if dtype not in ("<f8", ">f8", "<f4", ">f4"):
        raise ValueError(f"{sidecar_path}: key 'dtype' must be float64 or float32 of "
                         f"either byte order ('<f8', '>f4', ...), got {dtype!r}")
    vec = np.fromfile(blob_path, dtype=dtype)
    if vec.size != dim or vec.size != arch.param_count:
        raise ValueError(f"{blob_path}: {vec.size} parameters, but the declared "
                         f"architecture has {arch.param_count}")
    return arch, vec.astype(np.float64, copy=False)
