"""Stacked LSTM regressor with hand-written backpropagation through time.

Everything is plain numpy: the cell equations, the unrolled forward pass over
a window, reverse-mode gradients, gradient-norm clipping, the Adam update,
and a versioned JSON serialization of the whole model. No autograd framework
is involved, which keeps training bit-reproducible for a fixed seed.
new_model(cfg, scaler, contract) builds a model from one config.RunConfig, and
train(model, windows) fits it by the TrainConfig that the model records.

Two cell variants exist. "standard" is the usual formulation:

    f = sigmoid(w_fx x + w_fh h + b_f)      i = sigmoid(w_ix x + w_ih h + b_i)
    g = tanh(w_gx x + w_gh h + b_g)         o = sigmoid(w_ox x + w_oh h + b_o)
    c = f * c_prev + i * g                  h = o * tanh(c)

"as_printed" replaces the input path with i = sigmoid(.) + tanh(.) and the
state update with c = f * c_prev + i, keeping f, o, and h as above. Neither
variant uses peephole connections.

Each layer is one C-contiguous W (I+H+1, 4H), as in Appleyard, Kocisky and
Blunsom (2016): rows [:I] take the input, rows [I:I+H] the previous h, the
last row is the bias, and the columns are gate blocks f, i, o, g. Step t is
one GEMM, W.T @ [x_t; h_{t-1}; 1], from a C-contiguous (I+H+1, B) slab into
a (4H, B) gate block (one sigmoid over the first 3H rows, one tanh over the
last H); _cell_step holds its arithmetic. Two loops run it. Training's
forward_batch unrolls each layer time-major into one XH (T+1, I+H+1, B)
buffer whose slot t holds [x_t; h_{t-1}; 1] and takes h_t in slot t+1, where
the next layer copies its inputs from; it keeps every step's gates, c and
tanh(c) in the ForwardCache that backward reads. Inference's WindowStream
keeps one step: its B columns share one (I+H+1, B) XH per layer.
LstmModel.predict (evaluate, backtest, validation) pushes a chunk through it,
one window per column; a recursive forecast pushes each new row to its W
overlapping windows at once. A backward step is two GEMMs:
dZ @ XH[t].T adds the input, recurrent and bias gradients at once, and
W[:I+H] @ dZ is the lower layer's input gradient and the dh carry. A
ForwardCache names the model that made it, for backward(cache, d), and is
valid until the next forward_batch on its buffers' block; train passes the
first batch's block to every batch, so a short last batch views its front.

Summing x, h and bias terms inside one GEMM rounds differently from summing
them apart, so a window's last bits can depend on the batch it is predicted
in, and each caller of predict fixes its chunk. Both loops run the same
shapes: predict at chunk B equals forward_batch at batch B, a stream column
equals predict at a chunk of W windows, and repeat calls are byte-identical.

The model file (format_version 2) holds each layer's W and the head's w as
one array each: its shape and the standard base64 of its little-endian float64
bytes, so every weight reads back bit for bit. It writes each fact once,
including the train/test split the model was trained under (config.SplitContract),
which every LstmModel carries. load_model reads format_version 2 alone;
tools/upgrade_model.py converts a version 1 file, which stored twelve per-gate
arrays per layer (w_fx (H, I), w_fh (H, H), b_f (H,), ...) and no split.
gate_view maps each such name to a writable view of W, and init_weights fills
a layer's weights in that order.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import (CELL_VARIANTS, COLUMN_SETS, IndicatorConfig, RunConfig, SplitContract,
                     StockcastError, TrainConfig, mode_for)
from .indicators import column_names_for
from .jsonio import dump_json
from .scaling import ScalerParams

MODEL_FORMAT_VERSION = 2

_LAYER_FIELDS = (  # init_weights' fill order, which fixes the initial weights' bits
    "w_fx", "w_ix", "w_gx", "w_ox",
    "w_fh", "w_ih", "w_gh", "w_oh",
)
_GATES = "fiog"  # packed block order: the three sigmoid gates, then the tanh candidate


class LstmError(StockcastError):
    pass


class ShapeMismatch(LstmError):
    pass


class NonFiniteInput(LstmError):
    exit_code = 3


class EmptyDataset(LstmError):
    pass


@dataclass(eq=False)
class NonFiniteLoss(LstmError):
    exit_code = 3
    epoch: int
    batch: int
    message = "non-finite loss at epoch {epoch}, batch {batch}"


class UnsupportedVersion(LstmError):
    pass


@dataclass(eq=False)
class CorruptModel(LstmError):
    path: str
    reason: str = ""

    def __str__(self):
        return f"corrupt model document at {self.path}{': ' + self.reason if self.reason else ''}"


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny portable PRNG; a given seed yields the same stream on any platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, low: float, high: float) -> float:
        unit = (self.next_u64() >> 11) * (1.0 / (1 << 53))  # 53-bit mantissa in [0, 1)
        return low + (high - low) * unit

    def fill(self, shape, low: float, high: float) -> np.ndarray:
        """The next count uniform() draws, computed as one uint64 array."""
        count = int(np.prod(shape))
        draws = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64, as intended
            z = np.uint64(self._state) + draws * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK64
        unit = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return (low + (high - low) * unit).reshape(shape)


@dataclass(eq=False)
class LstmLayerParams:
    """One layer's weights: one C-contiguous W (I+H+1, 4H), laid out as the module docstring says."""

    W: np.ndarray
    hidden_size = property(lambda self: self.W.shape[1] // 4)
    input_size = property(lambda self: self.W.shape[0] - self.hidden_size - 1)
    W_x = property(lambda self: self.W[: self.input_size], doc="(I, 4H) view: the input rows")
    W_h = property(lambda self: self.W[self.input_size : -1], doc="(H, 4H) view: the recurrent rows")
    b = property(lambda self: self.W[-1], doc="(4H,) view: the bias row")

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> LstmLayerParams:
        try:
            return cls(np.zeros((input_size + hidden_size + 1, 4 * hidden_size)))
        except (ValueError, MemoryError):  # numpy's "array is too big", or a failed allocation
            raise LstmError(f"cannot allocate a layer of input size {input_size}, hidden size "
                            f"{hidden_size}") from None


def gate_view(layer: LstmLayerParams, name: str) -> np.ndarray:
    """The model file's per-gate array name (w_qx (H, I), w_qh (H, H) or b_q (H,))
    as a writable view of the layer's W."""
    start = _GATES.index(name[2]) * layer.hidden_size
    block = slice(start, start + layer.hidden_size)
    if name.startswith("b_"):
        return layer.b[block]
    return (layer.W_x if name.endswith("x") else layer.W_h)[:, block].T


@dataclass(eq=False)
class LstmModel:
    layers: list[LstmLayerParams]
    head_w: np.ndarray  # (last_hidden,)
    head_b: np.ndarray  # shape (1,)
    scaler: ScalerParams
    lookback: int
    train_config: TrainConfig  # what train fits by
    contract: SplitContract  # the split it was trained under; pipeline.fit_rows cuts it
    cell_variant: str
    column_set: str
    indicator_config: IndicatorConfig
    use_adj_close: bool
    feature_names = property(lambda self: self.scaler.column_names, doc="the input columns: the scaler's")

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(layer.hidden_size for layer in self.layers)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def mode(self) -> str:
        return mode_for(self.column_set)

    def predict(self, windows, chunk: int = 128) -> np.ndarray:
        """Float64 (n,) predictions for (n, lookback, features) windows, each chunk of them the
        columns of one WindowStream. Every window is checked before any cell step runs; a
        window's last bits can depend on its chunk."""
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        X = _windows(self, windows)
        if not np.isfinite(X).all():
            raise NonFiniteInput("windows contain non-finite values")
        out = np.empty(len(X))
        for start in range(0, len(X), chunk):
            seq = X[start : start + chunk].transpose(1, 2, 0)  # (T, I, B): step t's rows as columns
            stream = WindowStream(self, seq.shape[2])
            for rows in seq:
                stream._advance(rows)
            out[start : start + chunk] = stream._heads()
            del stream  # else it lives on while the next chunk's stream is built
        return out

    def stream(self, width: int) -> WindowStream:
        """width windows advanced together one step at a time; see WindowStream."""
        return WindowStream(self, width)


def init_weights(input_size: int, hidden_size: int, seed: int) -> LstmLayerParams:
    """One layer with uniform weights in [-1/sqrt(hidden), +1/sqrt(hidden)].

    A single SplitMix64 stream fills the model file's per-gate matrices in
    file order (input weights f, i, g, o then recurrent f, i, g, o), each
    row-major, so the same seed reproduces the same layer anywhere.
    Forget-gate bias starts at 1.0, the other biases at 0.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("sizes must be >= 1")
    rng = SplitMix64(seed)
    bound = 1.0 / math.sqrt(hidden_size)
    layer = LstmLayerParams.zeros(input_size, hidden_size)
    for name in _LAYER_FIELDS:
        view = gate_view(layer, name)
        view[...] = rng.fill(view.shape, -bound, bound)
    gate_view(layer, "b_f")[:] = 1.0
    return layer


def new_model(cfg: RunConfig, scaler: ScalerParams, contract: SplitContract) -> LstmModel:
    """A freshly initialized stacked model over scaler's columns that records every run-level
    fact of cfg and its train_config, which train fits by; layer k seeds from cfg.seed + k."""
    tcfg = cfg.train_config()
    layers = []
    in_size = len(scaler.column_names)
    for k, hidden in enumerate(tcfg.hidden_sizes):
        layers.append(init_weights(in_size, hidden, tcfg.seed + k))
        in_size = hidden
    head_rng = SplitMix64(tcfg.seed + len(tcfg.hidden_sizes))
    bound = 1.0 / math.sqrt(in_size)
    return LstmModel(
        layers=layers,
        head_w=head_rng.fill((in_size,), -bound, bound),
        head_b=np.zeros(1),
        scaler=scaler,
        lookback=cfg.lookback,
        train_config=tcfg,
        contract=contract,
        cell_variant=cfg.cell_variant,
        column_set=cfg.effective_column_set(),
        indicator_config=cfg.indicator_config(),
        use_adj_close=cfg.use_adj_close,
    )


@dataclass(eq=False)
class LayerBuffers:
    """One layer's time-major buffers for every step t, as backward reads them."""

    xh: np.ndarray  # (T+1, I+H+1, B): slot t holds [x_t; h_{t-1}; 1], slot T only h_{T-1}
    c: np.ndarray  # (T, H, B)
    tc: np.ndarray  # tanh(c), (T, H, B)
    gates: np.ndarray  # (T, 4H, B): sigmoid f, i, o, then tanh g


@dataclass(eq=False)
class ForwardCache:
    """What backward reads: the model that forward_batch ran, each layer's all-T buffers, all
    views of one block, and the head's input. Valid until the next forward_batch on its block."""

    model: LstmModel
    layers: list[LayerBuffers]
    h_last: np.ndarray  # (B, H)


def _buffers(layers, length: int, batch: int, block) -> list[LayerBuffers]:
    """Each layer's buffers as views of one block: the front of block when that is big enough,
    else a new block. One array per buffer is handed back to the system on free and faults its
    pages in again (2.6k faults per batch-32 step)."""
    shapes = [((length + 1, layer.W.shape[0]), (length, layer.hidden_size),
               (length, layer.hidden_size), (length, 4 * layer.hidden_size)) for layer in layers]
    size = sum(rows * width for layer in shapes for rows, width in layer) * batch
    if block is None or block.size < size:
        block = np.empty(size)
    buffers, start = [], 0
    for layer, layer_shapes in zip(layers, shapes):
        views = []
        for rows, width in layer_shapes:
            views.append(block[start : start + rows * width * batch].reshape(rows, width, batch))
            start += rows * width * batch
        views[0][0, layer.input_size :] = 0.0  # h before the first step
        views[0][:, -1] = 1.0  # multiplies W's bias row
        buffers.append(LayerBuffers(*views))
    return buffers


def _unroll(layer: LstmLayerParams, seq: np.ndarray, buf: LayerBuffers, standard: bool) -> np.ndarray:
    """Run one layer from zero h and c over the (T, I, B) input columns seq into buf;
    returns the (T, H, B) view of its outputs h_t, the next layer's seq."""
    length, inputs, _ = seq.shape
    xh, WT = buf.xh, layer.W.T
    xh[:-1, :inputs] = seq
    with np.errstate(over="ignore"):  # see _cell_step
        for t in range(length):
            _cell_step(WT, xh[t], buf.gates[t], buf.c[t - 1] if t else 0.0, buf.c[t], buf.tc[t],
                       xh[t + 1, inputs:-1], standard)
    return xh[1:, inputs:-1]


def _cell_step(WT, xh_t, z, c_prev, c, tc, h_out, standard: bool) -> None:
    """One cell step for every column of xh_t, [x; h_prev; 1] (I+H+1, B): the (4H, B) gates
    into z, the state into c and tanh(c) into tc, h = o * tanh(c) into h_out. c_prev is
    0.0 for a zero state, and may be c itself. Callers hold np.errstate(over="ignore"):
    sigmoid is 1 / (1 + exp(-z)) in place, and exp overflows to inf below z = -709,
    giving the right 0."""
    hidden = len(c)
    np.matmul(WT, xh_t, out=z)
    s, g = z[: 3 * hidden], z[3 * hidden :]
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    np.tanh(g, out=g)
    np.multiply(s[:hidden], c_prev, out=c)  # s holds f, i, o
    i = s[hidden : 2 * hidden]
    c += i * g if standard else i + g
    np.tanh(c, out=tc)
    np.multiply(s[2 * hidden :], tc, out=h_out)


class WindowStream:
    """width windows in flight as the columns of one state per layer, one step per push.

    push(rows) takes a (features,) row, the next input of every column, or a (features,
    width) block whose column j is column j's next input, and returns the head over each
    column's h, (width,). A recursive forecast pushes rows, so overlapping windows share
    their cell steps: start(col) zeroes column col's h and c for a window that takes the
    next row pushed as its first. predict feeds blocks, one window per column, without
    push's checks (it has checked every window) and takes the heads after the last step
    alone. A column's output equals predict's for that window in a chunk of width windows,
    bit for bit, whatever the other columns hold.
    """

    def __init__(self, model: LstmModel, width: int):
        if width < 1:
            raise ValueError("width must be >= 1")
        if model.cell_variant not in CELL_VARIANTS:
            raise ValueError(f"unknown cell variant {model.cell_variant!r}")
        self.model, self.width = model, width
        self._standard = model.cell_variant == "standard"
        self._layers = []  # per layer: W.T, input size, xh (I+H+1, width), gates, c, tanh(c)
        for layer in model.layers:
            hidden = layer.hidden_size
            xh = np.zeros((layer.W.shape[0], width))
            xh[-1] = 1.0  # multiplies W's bias row
            self._layers.append((layer.W.T, layer.input_size, xh, np.empty((4 * hidden, width)),
                                 np.zeros((hidden, width)), np.empty((hidden, width))))

    def start(self, col: int) -> None:
        for _, inputs, xh, _, c, _ in self._layers:
            xh[inputs:-1, col] = 0.0
            c[:, col] = 0.0

    def push(self, rows) -> np.ndarray:
        x, features = np.asarray(rows, dtype=np.float64), self.model.num_features
        if x.shape == (features,):
            x = x[:, None]  # the same row for every column
        elif x.shape != (features, self.width):
            raise ShapeMismatch(f"rows shaped {x.shape}, model expects ({features},) "
                                f"or ({features}, {self.width})")
        if not np.isfinite(x).all():
            raise NonFiniteInput("windows contain non-finite values")
        self._advance(x)
        return self._heads()

    def _advance(self, x: np.ndarray) -> None:
        """One step of every layer on x, (features, width) or (features, 1), unchecked."""
        with np.errstate(over="ignore"):  # see _cell_step
            for WT, inputs, xh, z, c, tc in self._layers:
                xh[:inputs] = x
                _cell_step(WT, xh, z, c, c, tc, xh[inputs:-1], self._standard)
                x = xh[inputs:-1]

    def _heads(self) -> np.ndarray:
        """The head over each column's top-layer h, (width,)."""
        _, inputs, xh, _, _, _ = self._layers[-1]
        return np.ascontiguousarray(xh[inputs:-1].T) @ self.model.head_w + self.model.head_b[0]


def _windows(model: LstmModel, windows) -> np.ndarray:
    """(batch, lookback, features) float64 windows, checked against the model."""
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] != model.lookback or X.shape[2] != model.num_features:
        raise ShapeMismatch(
            f"windows shaped {X.shape}, model expects (*, {model.lookback}, {model.num_features})"
        )
    if model.cell_variant not in CELL_VARIANTS:
        raise ValueError(f"unknown cell variant {model.cell_variant!r}")
    return X


def forward_batch(model: LstmModel, windows: np.ndarray, block: np.ndarray | None = None):
    """Unrolled forward pass over (batch, lookback, features) windows.

    Returns the predictions and a ForwardCache for backward that names model and keeps every
    layer's buffers for all lookback steps, views of the front of block (an earlier cache's
    layers[0].xh.base) when it is big enough, else of a new block; the cache is valid until
    the next forward_batch on that block. Calls that only predict should use
    LstmModel.predict: same values, no caches.
    """
    X = _windows(model, windows)
    buffers = _buffers(model.layers, model.lookback, len(X), block)
    seq = X.transpose(1, 2, 0)  # (T, I, B) view: step t's input columns
    for layer, buf in zip(model.layers, buffers):
        seq = _unroll(layer, seq, buf, model.cell_variant == "standard")
    cache = ForwardCache(model, buffers, np.ascontiguousarray(seq[-1].T))
    return cache.h_last @ model.head_w + model.head_b[0], cache


def backward(caches: ForwardCache, d_prediction) -> dict[str, np.ndarray]:
    """Exact gradients of sum(d_prediction * prediction) for every parameter of the model
    that made caches, forward_batch's ForwardCache.

    d_prediction carries the loss derivative per batch element; gradients are summed over
    the batch. Keys follow model_param_items naming.
    """
    model, batch = caches.model, len(caches.h_last)
    d_pred = np.atleast_1d(np.asarray(d_prediction, dtype=np.float64))
    if d_pred.shape != (batch,):
        raise ShapeMismatch(f"d_prediction shaped {d_pred.shape}, cache batch is {batch}")
    standard = model.cell_variant == "standard"

    layers, sums = [], {}  # from the top: what one step reads and its scratch; k -> W gradient.T
    for k in range(len(model.layers) - 1, -1, -1):
        layer, buf = model.layers[k], caches.layers[k]
        hidden, low = layer.hidden_size, layer.input_size if k == 0 else 0  # layer 0 needs no dx
        gW = sums[k] = np.zeros(layer.W.T.shape)  # dZ @ XH[t].T outruns XH[t] @ dZ.T here
        # dxh, [dx_t; dh_{t-1}], is one GEMM's output per step; its dh rows start as the zero carry
        layers.append((layer.W[low:-1], buf, hidden, gW, np.empty_like(gW), np.empty((4 * hidden, batch)),
                       np.zeros((layer.input_size + hidden - low, batch)), np.zeros((hidden, batch))))
    d_top = model.head_w[:, None] * d_pred[None, :]  # the head sees only the top layer's last h
    for t in range(model.lookback - 1, -1, -1):
        d_above = d_top if t == model.lookback - 1 else None
        for W_rows, buf, hidden, gW, gW_t, dZ, dxh, dc_carry in layers:
            gates, tc = buf.gates[t], buf.tc[t]
            f, i, o, g = (gates[j * hidden : (j + 1) * hidden] for j in range(4))
            dz_f, dz_i, dz_o, dz_g = (dZ[j * hidden : (j + 1) * hidden] for j in range(4))
            dh = dxh[-hidden:]
            if d_above is not None:
                dh += d_above
            dc = dh * o
            dc *= 1.0 - tc * tc
            dc += dc_carry
            np.multiply(dc, buf.c[t - 1] if t else 0.0, out=dz_f)  # c before step 0 is zero
            np.multiply(dh, tc, out=dz_o)
            if standard:
                np.multiply(dc, g, out=dz_i)
                np.multiply(dc, i, out=dz_g)
            else:
                # c = f*c_prev + (i + g): both input paths take dc directly
                dz_i[...] = dc
                dz_g[...] = dc
            dZ[: 3 * hidden] *= gates[: 3 * hidden]  # sigmoid' = s * (1 - s)
            dZ[: 3 * hidden] *= 1.0 - gates[: 3 * hidden]
            dz_g *= 1.0 - g * g
            np.matmul(dZ, buf.xh[t].T, out=gW_t)  # input, recurrent and bias columns at once
            gW += gW_t
            np.matmul(W_rows, dZ, out=dxh)
            np.multiply(dc, f, out=dc_carry)
            d_above = dxh[:-hidden]
    grads = {f"layers.{k}.W": np.ascontiguousarray(sums[k].T) for k in range(len(sums))}
    grads["head.w"] = caches.h_last.T @ d_pred
    grads["head.b"] = np.array([d_pred.sum()])
    return grads


def model_param_items(model: LstmModel) -> list[tuple[str, np.ndarray]]:
    """Every trainable array, in a fixed documented order."""
    items = [(f"layers.{k}.W", layer.W) for k, layer in enumerate(model.layers)]
    return items + [("head.w", model.head_w), ("head.b", model.head_b)]


def clip_gradient_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """Adam with bias correction; beta1 0.9, beta2 0.999, eps 1e-8."""

    def __init__(self, params: list[tuple[str, np.ndarray]], learning_rate: float):
        self.lr = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step_count = 0
        self.m = {key: np.zeros_like(arr) for key, arr in params}
        self.v = {key: np.zeros_like(arr) for key, arr in params}

    def step(self, params: list[tuple[str, np.ndarray]], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for key, arr in params:
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            arr -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def min_train_windows(validation_fraction: float) -> int:
    """Fewest windows n whose validation tail int(n * validation_fraction),
    as train carves it, holds at least one window."""
    n = math.ceil(1.0 / validation_fraction)
    # 1/f and n*f round apart, so the true least n is ceil(1/f) or a neighbour
    if int((n - 1) * validation_fraction) >= 1:
        return n - 1
    return n if int(n * validation_fraction) >= 1 else n + 1


def train(model_init: LstmModel, train_ds):
    """Mini-batch Adam over chronological batches, by model_init.train_config (cfg here);
    no shuffling anywhere.

    The chronological tail of train_ds (cfg.validation_fraction of it) is held out for the
    per-epoch validation curve. Returns a trained copy of model_init, which records the cfg it
    was trained by, and a history dict with exactly cfg.epochs entries per curve. An epoch's
    train MSE is the mean, over its fitting windows, of each window's squared error taken
    before its batch's update.
    """
    cfg = model_init.train_config
    n = len(train_ds)
    if n == 0:
        raise EmptyDataset("no training samples")
    val_n = int(n * cfg.validation_fraction)
    if val_n < 1 or n - val_n < 1:
        raise EmptyDataset(
            f"cannot carve a validation tail from {n} samples at fraction {cfg.validation_fraction}"
        )
    model = copy.deepcopy(model_init)
    fit_x = train_ds.inputs[: n - val_n]
    fit_y = train_ds.targets[: n - val_n]
    val_x = train_ds.inputs[n - val_n :]
    val_y = train_ds.targets[n - val_n :]

    params = model_param_items(model)
    optimizer = Adam(params, cfg.learning_rate)
    history = {"train_mse": [], "val_mse": []}
    # Every batch views one block, the first batch's. Freeing it and allocating anew at each
    # change of batch size let peak RSS creep up by 6.6 MB by the third epoch at paper scale
    # (heap fragmentation).
    block = None
    for epoch in range(1, cfg.epochs + 1):
        sq_err = 0.0
        for batch_no, start in enumerate(range(0, len(fit_y), cfg.batch_size), start=1):
            xb = fit_x[start : start + cfg.batch_size]
            yb = fit_y[start : start + cfg.batch_size]
            preds, cache = forward_batch(model, xb, block)
            block = cache.layers[0].xh.base
            err = preds - yb
            batch_sq = float(np.sum(err * err))
            if not math.isfinite(batch_sq):
                raise NonFiniteLoss(epoch, batch_no)
            sq_err += batch_sq
            grads = backward(cache, 2.0 * err / len(yb))
            clip_gradient_norm(grads, cfg.gradient_clip_norm)
            optimizer.step(params, grads)
        val_pred, val_sq = model.predict(val_x, cfg.batch_size), 0.0
        for start in range(0, val_n, cfg.batch_size):  # one np.sum over all of err rounds differently
            err = val_pred[start : start + cfg.batch_size] - val_y[start : start + cfg.batch_size]
            val_sq += float(np.sum(err * err))
        val_mse = val_sq / val_n
        if not math.isfinite(val_mse):
            raise NonFiniteLoss(epoch, 0)
        history["train_mse"].append(sq_err / len(fit_y))
        history["val_mse"].append(val_mse)
    return model, history


def _config_document(cfg) -> dict:
    """A config dataclass as a JSON object in field order, tuples as lists."""
    return {f.name: list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v for f in fields(cfg)}


def _packed_document(arr: np.ndarray) -> dict:
    """An array as its shape and the standard base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(raw).decode("ascii")}


def model_to_document(model: LstmModel) -> dict:
    """The format_version 2 document. Hidden sizes, seed and mode are train_config's and
    column_set's; feature_names are the scaler's columns."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "lookback": model.lookback,
        "cell_variant": model.cell_variant,
        "column_set": model.column_set,
        "use_adj_close": model.use_adj_close,
        "scaler": {"mins": _packed_document(model.scaler.mins),
                   "maxs": _packed_document(model.scaler.maxs)},
        "indicator_config": _config_document(model.indicator_config),
        "train_config": _config_document(model.train_config),
        "contract": _config_document(model.contract),
        "layers": [{"W": _packed_document(layer.W)} for layer in model.layers],
        "head": {"w": _packed_document(model.head_w), "b": float(model.head_b[0])},
    }


def save_model(model: LstmModel, sink) -> None:
    """Write the model as a format_version 2 JSON document; see model_to_document.
    A model that load_model would refuse raises ValueError instead."""
    if model.feature_names != column_names_for(model.indicator_config, model.column_set):
        raise ValueError("feature_names are not the column set's columns; refusing to serialize")
    scaler = [("scaler.mins", model.scaler.mins), ("scaler.maxs", model.scaler.maxs)]
    for key, arr in model_param_items(model) + scaler:
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in {key}; refusing to serialize")
    text = dump_json(model_to_document(model)) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, "utf-8")


def _need(container, key: str, path: str, kind: type | tuple):
    if not isinstance(container, dict):
        raise CorruptModel(path, "expected an object")
    if key not in container:
        raise CorruptModel(f"{path}.{key}", "missing")
    value = container[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CorruptModel(f"{path}.{key}", "expected a number")
        if not abs(value) <= sys.float_info.max:  # also rules out ints float() cannot hold
            raise CorruptModel(f"{path}.{key}", "not a finite float64")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CorruptModel(f"{path}.{key}", "expected an integer")
        return value
    if not isinstance(value, kind):
        kind_name = kind.__name__ if isinstance(kind, type) else "value"
        raise CorruptModel(f"{path}.{key}", f"expected {kind_name}")
    return value


_JSON_KINDS = {"tuple[int, ...]": list, "int": int, "float": float, "bool": bool, "str": str}


def _config_from_document(cls, doc, key: str):
    """Inverse of _config_document; each field must have the JSON type of its declaration."""
    path = f"$.{key}"
    section = _need(doc, key, "$", dict)
    values = {}
    for f in fields(cls):
        kind = _JSON_KINDS[f.type]
        value = _need(section, f.name, path, kind)
        if kind is list and any(isinstance(v, bool) or not isinstance(v, int) for v in value):
            raise CorruptModel(f"{path}.{f.name}", "expected a list of integers")
        values[f.name] = tuple(value) if kind is list else value
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise CorruptModel(path, str(exc)) from None


def _packed(container, key: str, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of _packed_document, for an array whose shape the rest of the file fixes."""
    where = f"{path}.{key}"
    recorded = _need(_need(container, key, path, dict), "shape", where, list)
    if recorded != list(shape) or any(type(n) is not int for n in recorded):
        raise CorruptModel(f"{where}.shape", f"{recorded}, but feature_names and the hidden "
                                             f"sizes give {list(shape)}")
    text = _need(container[key], "data", where, str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a str that is not ASCII
        raise CorruptModel(f"{where}.data", "not standard base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise CorruptModel(f"{where}.data", f"{len(raw)} bytes, shape {recorded} needs "
                                            f"{8 * math.prod(shape)}")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise CorruptModel(f"{where}.data", "non-finite values")
    return arr


def load_model(source) -> LstmModel:
    """Inverse of save_model; structural problems raise CorruptModel with a path."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise CorruptModel("$", f"not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise CorruptModel("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise CorruptModel("$", "nested too deeply to parse") from None
    version = _need(doc, "format_version", "$", int)
    if version != MODEL_FORMAT_VERSION:
        older = ("; tools/upgrade_model.py converts version 1"
                 if version < MODEL_FORMAT_VERSION else "")
        raise UnsupportedVersion(f"format_version {version}, supported: "
                                 f"{MODEL_FORMAT_VERSION}{older}")
    return _model_from_document(doc)


def _model_from_document(doc: dict) -> LstmModel:
    """Every array through _packed, at the shape the other facts fix; feature_names must be
    the column set's columns under indicator_config, and the contract is required."""
    cell_variant = _need(doc, "cell_variant", "$", str)
    if cell_variant not in CELL_VARIANTS:
        raise CorruptModel("$.cell_variant", f"unknown variant {cell_variant!r}")
    column_set = _need(doc, "column_set", "$", str)
    if column_set not in COLUMN_SETS:
        raise CorruptModel("$.column_set", f"unknown column set {column_set!r}")
    use_adj_close = _need(doc, "use_adj_close", "$", bool)
    lookback = _need(doc, "lookback", "$", int)
    if lookback < 1:
        raise CorruptModel("$.lookback", "must be >= 1")
    indicator_config = _config_from_document(IndicatorConfig, doc, "indicator_config")
    train_config = _config_from_document(TrainConfig, doc, "train_config")
    feature_names = tuple(_need(doc, "feature_names", "$", list))
    if feature_names != (expected := column_names_for(indicator_config, column_set)):
        raise CorruptModel("$.feature_names", f"{column_set} under $.indicator_config "
                                              f"gives {list(expected)}")
    width = len(feature_names)
    scaler_doc = _need(doc, "scaler", "$", dict)
    scaler = ScalerParams(column_names=feature_names,
                          mins=_packed(scaler_doc, "mins", "$.scaler", (width,)),
                          maxs=_packed(scaler_doc, "maxs", "$.scaler", (width,)))
    layers_doc = _need(doc, "layers", "$", list)
    if len(layers_doc) != len(train_config.hidden_sizes):
        raise CorruptModel("$.layers", "layer count does not match $.train_config.hidden_sizes")
    layers, in_size = [], width
    for k, (layer_doc, hidden) in enumerate(zip(layers_doc, train_config.hidden_sizes)):
        shape = (in_size + hidden + 1, 4 * hidden)
        layers.append(LstmLayerParams(_packed(layer_doc, "W", f"$.layers[{k}]", shape)))
        in_size = hidden
    head_doc = _need(doc, "head", "$", dict)
    return LstmModel(
        layers=layers,
        head_w=_packed(head_doc, "w", "$.head", (in_size,)),
        head_b=np.array([_need(head_doc, "b", "$.head", float)]),
        scaler=scaler,
        lookback=lookback,
        train_config=train_config,
        contract=_config_from_document(SplitContract, doc, "contract"),
        cell_variant=cell_variant,
        column_set=column_set,
        indicator_config=indicator_config,
        use_adj_close=use_adj_close,
    )
