"""Stacked LSTM regressor with hand-written backpropagation through time.

Everything is plain numpy: the cell equations, the unrolled forward pass over
a window, reverse-mode gradients, gradient-norm clipping, the Adam update,
and a versioned JSON serialization of the whole model. No autograd framework
is involved, which keeps training bit-reproducible for a fixed seed.

Two cell variants exist. "standard" is the usual formulation:

    f = sigmoid(w_fx x + w_fh h + b_f)      i = sigmoid(w_ix x + w_ih h + b_i)
    g = tanh(w_gx x + w_gh h + b_g)         o = sigmoid(w_ox x + w_oh h + b_o)
    c = f * c_prev + i * g                  h = o * tanh(c)

"as_printed" replaces the input path with i = sigmoid(.) + tanh(.) and the
state update with c = f * c_prev + i, keeping f, o, and h as above. Neither
variant uses peephole connections.

Each layer is stored packed, as in Appleyard, Kocisky and Blunsom (2016):
W_x (I, 4H), W_h (H, 4H) and b (4H,), with the gate blocks in the order
f, i, o, g. Forward is two GEMMs into one (B, 4H) pre-activation; adding the
bias turns it into a (4H, B) array, so the batch runs along columns and each
gate is one contiguous block, and one sigmoid covers the first 3H rows and one
tanh the last H. Backward builds one (4H, B) dZ per step and takes four GEMMs
from it, and its gradients have the shapes of W_x, W_h and b.

The per-gate names above (w_fx (H, I), w_fh (H, H), b_f (H,), ...) exist only
in the model file. gate_view maps each one to a writable view of the packed
arrays, which is how the file is written and read and how init_weights fills
a layer in the file's order.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .indicators import IndicatorConfig
from .jsonio import dump_json
from .scaling import ScalerParams

MODEL_FORMAT_VERSION = 1
CELL_VARIANTS = ("standard", "as_printed")
MODES = ("univariate", "multivariate")

_LAYER_FIELDS = (  # the model file's per-gate arrays in file order; init_weights fills w_* in it
    "w_fx", "w_ix", "w_gx", "w_ox",
    "w_fh", "w_ih", "w_gh", "w_oh",
    "b_f", "b_i", "b_g", "b_o",
)
_GATES = "fiog"  # packed block order: the three sigmoid gates, then the tanh candidate


class LstmError(Exception):
    pass


class ShapeMismatch(LstmError):
    pass


class NonFiniteInput(LstmError):
    pass


class CacheMismatch(LstmError):
    pass


class EmptyDataset(LstmError):
    pass


class NonFiniteLoss(LstmError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class UnsupportedVersion(LstmError):
    pass


class CorruptModel(LstmError):
    def __init__(self, path: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"corrupt model document at {path}{detail}")
        self.path = path


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
    """One layer's packed, C-contiguous weights, in gate blocks f, i, o, g."""

    W_x: np.ndarray  # (I, 4H)
    W_h: np.ndarray  # (H, 4H)
    b: np.ndarray  # (4H,)

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> LstmLayerParams:
        return cls(np.zeros((input_size, 4 * hidden_size)),
                   np.zeros((hidden_size, 4 * hidden_size)), np.zeros(4 * hidden_size))

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_x.shape[0]


def gate_view(layer: LstmLayerParams, name: str) -> np.ndarray:
    """The model file's per-gate array name (w_qx (H, I), w_qh (H, H) or b_q (H,))
    as a writable view of the layer's packed arrays."""
    start = _GATES.index(name[2]) * layer.hidden_size
    block = slice(start, start + layer.hidden_size)
    if name.startswith("b_"):
        return layer.b[block]
    return (layer.W_x if name.endswith("x") else layer.W_h)[:, block].T


@dataclass(eq=False)
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_sizes: tuple[int, ...] = (50, 50)
    validation_fraction: float = 0.1
    seed: int = 42
    gradient_clip_norm: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty positive integers")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie strictly between 0 and 1")
        if not self.gradient_clip_norm > 0.0:
            raise ValueError("gradient_clip_norm must be positive")


@dataclass(eq=False)
class LstmModel:
    mode: str
    layers: list[LstmLayerParams]
    head_w: np.ndarray  # (last_hidden,)
    head_b: np.ndarray  # shape (1,)
    scaler: ScalerParams
    feature_names: tuple[str, ...]
    lookback: int
    train_config: TrainConfig
    rng_seed: int
    cell_variant: str = "standard"
    column_set: str = "univariate"
    indicator_config: IndicatorConfig = field(default_factory=IndicatorConfig)
    use_adj_close: bool = False

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(layer.hidden_size for layer in self.layers)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    def predict(self, window) -> float:
        value, _ = forward(self, window)
        return value

    def predict_batch(self, windows) -> np.ndarray:
        preds, _ = forward_batch(self, np.asarray(windows, dtype=np.float64))
        return preds


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
    for name in _LAYER_FIELDS[:8]:
        view = gate_view(layer, name)
        view[...] = rng.fill(view.shape, -bound, bound)
    gate_view(layer, "b_f")[:] = 1.0
    return layer


def new_model(
    mode: str,
    feature_names,
    lookback: int,
    scaler: ScalerParams,
    cfg: TrainConfig,
    cell_variant: str = "standard",
    column_set: str = "univariate",
    indicator_config: IndicatorConfig | None = None,
    use_adj_close: bool = False,
) -> LstmModel:
    """Freshly initialized stacked model; layer k seeds from cfg.seed + k."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if cell_variant not in CELL_VARIANTS:
        raise ValueError(f"cell_variant must be one of {CELL_VARIANTS}")
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    feature_names = tuple(feature_names)
    if not feature_names:
        raise ValueError("feature_names must not be empty")
    layers = []
    in_size = len(feature_names)
    for k, hidden in enumerate(cfg.hidden_sizes):
        layers.append(init_weights(in_size, hidden, cfg.seed + k))
        in_size = hidden
    head_rng = SplitMix64(cfg.seed + len(cfg.hidden_sizes))
    bound = 1.0 / math.sqrt(in_size)
    return LstmModel(
        mode=mode,
        layers=layers,
        head_w=head_rng.fill((in_size,), -bound, bound),
        head_b=np.zeros(1),
        scaler=scaler,
        feature_names=feature_names,
        lookback=lookback,
        train_config=cfg,
        rng_seed=cfg.seed,
        cell_variant=cell_variant,
        column_set=column_set,
        indicator_config=indicator_config if indicator_config is not None else IndicatorConfig(),
        use_adj_close=use_adj_close,
    )


def _step(layer: LstmLayerParams, x, h_prev, c_prev, standard: bool):
    """One time step on column batches: x is (I, B), h_prev and c_prev (H, B).

    The GEMMs take (B, *) rows, as the per-gate products did, which keeps the
    outputs bit-identical to those wherever BLAS picks the same kernel for
    both (batch >= 25 with OpenBLAS 0.3.31 on AVX-512).
    """
    hidden = c_prev.shape[0]
    # z is allocated before the GEMM temporaries, so freeing them leaves no heap hole under it
    z = np.empty((4 * hidden, max(x.shape[1], h_prev.shape[1])))
    np.add((x.T @ layer.W_x + h_prev.T @ layer.W_h).T, layer.b[:, None], out=z)
    s = z[: 3 * hidden]  # sigmoid as 1 / (1 + exp(-z)), in place
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    np.tanh(z[3 * hidden :], out=z[3 * hidden :])
    f, i, o, g = (z[k * hidden : (k + 1) * hidden] for k in range(4))
    c = f * c_prev
    c += i * g if standard else i + g
    tc = np.tanh(c)
    cache = {
        "x": x, "h_prev": h_prev, "c_prev": c_prev, "gates": z,
        "f": f, "i": i, "g": g, "o": o, "tc": tc,
    }
    return o * tc, c, cache


def cell_forward(params: LstmLayerParams, x_t, prev: LstmState, variant: str = "standard"):
    """One time step. Returns the new state and the cache backward needs."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape[-1] != params.input_size:
        raise ShapeMismatch(f"input width {x_t.shape[-1]}, layer expects {params.input_size}")
    if prev.h.shape[-1] != params.hidden_size or prev.c.shape[-1] != params.hidden_size:
        raise ShapeMismatch("state width does not match layer hidden size")
    if variant not in CELL_VARIANTS:
        raise ValueError(f"unknown cell variant {variant!r}")
    rows = np.broadcast_shapes(x_t.shape[:-1], prev.h.shape[:-1], prev.c.shape[:-1]) + (-1,)
    columns = (np.atleast_2d(a).T for a in (x_t, prev.h, prev.c))
    h, c, cache = _step(params, *columns, variant == "standard")

    def as_rows(arr):  # back to C-ordered (..., width) rows, the layout callers pass in
        return np.ascontiguousarray(arr.T).reshape(rows)

    return LstmState(as_rows(h), as_rows(c)), {name: as_rows(arr) for name, arr in cache.items()}


def forward_batch(model: LstmModel, windows: np.ndarray):
    """Unrolled forward pass over (batch, lookback, features) windows.

    The per-step caches hold (width, batch) columns, as _step uses them.
    """
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] != model.lookback or X.shape[2] != model.num_features:
        raise ShapeMismatch(
            f"windows shaped {X.shape}, model expects (*, {model.lookback}, {model.num_features})"
        )
    if model.cell_variant not in CELL_VARIANTS:
        raise ValueError(f"unknown cell variant {model.cell_variant!r}")
    standard = model.cell_variant == "standard"
    batch = X.shape[0]
    seq = [X[:, t, :].T for t in range(model.lookback)]  # each layer's input, step by step
    layer_caches = []
    for layer in model.layers:
        h = c = np.zeros((layer.hidden_size, batch))
        steps = []
        for t, x in enumerate(seq):
            h, c, cache = _step(layer, x, h, c, standard)
            steps.append(cache)
            seq[t] = h
        layer_caches.append(steps)
    h_last = np.ascontiguousarray(seq[-1].T)
    preds = h_last @ model.head_w + model.head_b[0]
    return preds, {
        "shape": X.shape,
        "variant": model.cell_variant,
        "layers": layer_caches,
        "h_last": h_last,
    }


def forward(model: LstmModel, window):
    """Scalar prediction for one (lookback, features) window, plus caches."""
    W = np.asarray(window, dtype=np.float64)
    if W.shape != (model.lookback, model.num_features):
        raise ShapeMismatch(
            f"window shaped {W.shape}, model expects ({model.lookback}, {model.num_features})"
        )
    if not np.isfinite(W).all():
        raise NonFiniteInput("window contains non-finite values")
    preds, caches = forward_batch(model, W[None, :, :])
    return float(preds[0]), caches


def _check_caches(model: LstmModel, caches) -> tuple[int, int]:
    try:
        batch, length, width = caches["shape"]
        layer_caches = caches["layers"]
        variant = caches["variant"]
        h_last = caches["h_last"]
    except (KeyError, TypeError, ValueError):
        raise CacheMismatch("caches missing required entries") from None
    if variant != model.cell_variant:
        raise CacheMismatch(f"caches built for variant {variant!r}, model is {model.cell_variant!r}")
    if len(layer_caches) != len(model.layers):
        raise CacheMismatch("cache layer count does not match model")
    if width != model.num_features or length != model.lookback:
        raise CacheMismatch("cache window shape does not match model")
    if h_last.shape != (batch, model.layers[-1].hidden_size):
        raise CacheMismatch("cached h_last shape does not match model")
    for layer, steps in zip(model.layers, layer_caches):
        if len(steps) != length:
            raise CacheMismatch("cache step count does not match window length")
        if steps[0]["x"].shape[0] != layer.input_size:
            raise CacheMismatch("cache input width does not match layer")
    return batch, length


def backward(model: LstmModel, caches, d_prediction) -> dict[str, np.ndarray]:
    """Exact gradients of sum(d_prediction * prediction) for every parameter.

    d_prediction carries the loss derivative per batch element; gradients are
    summed over the batch. Keys follow model_param_items naming.
    """
    batch, length = _check_caches(model, caches)
    d_pred = np.atleast_1d(np.asarray(d_prediction, dtype=np.float64))
    if d_pred.shape != (batch,):
        raise CacheMismatch(f"d_prediction shaped {d_pred.shape}, cache batch is {batch}")
    standard = model.cell_variant == "standard"

    # keyed up front so the dict keeps model_param_items order; filled top layer first
    grads = {key: None for key, _ in model_param_items(model)}
    # gradients w.r.t. each step's layer output, (H, B); the head sees only the top layer's last
    d_out = [None] * (length - 1) + [model.head_w[:, None] * d_pred[None, :]]
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        hidden = layer.hidden_size
        gw_x = np.zeros((4 * hidden, layer.input_size))  # W_x and W_h gradients, transposed
        gw_h = np.zeros((4 * hidden, hidden))
        gb = np.zeros((4 * hidden, batch))  # summed over the batch after the loop
        dZ = np.empty((4 * hidden, batch))
        dz_f, dz_i, dz_o, dz_g = (dZ[j * hidden : (j + 1) * hidden] for j in range(4))
        dh_carry = dc_carry = np.zeros((hidden, batch))
        for t in range(length - 1, -1, -1):
            cache = caches["layers"][k][t]
            gates, f, i, g, o, tc = (cache[n] for n in ("gates", "f", "i", "g", "o", "tc"))
            dh = dh_carry if d_out[t] is None else d_out[t] + dh_carry
            dc = dh * o
            dc *= 1.0 - tc * tc
            dc += dc_carry
            np.multiply(dc, cache["c_prev"], out=dz_f)
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
            gb += dZ
            gw_x += dZ @ cache["x"].T
            gw_h += dZ @ cache["h_prev"].T
            d_out[t] = layer.W_x @ dZ if k > 0 else None
            dh_carry = layer.W_h @ dZ
            dc_carry = dc * f
        grads[f"layers.{k}.W_x"], grads[f"layers.{k}.W_h"] = gw_x.T, gw_h.T
        grads[f"layers.{k}.b"] = gb.sum(axis=1)
    grads["head.w"] = caches["h_last"].T @ d_pred
    grads["head.b"] = np.array([d_pred.sum()])
    return grads


def model_param_items(model: LstmModel) -> list[tuple[str, np.ndarray]]:
    """Every trainable array, in a fixed documented order."""
    items = []
    for k, layer in enumerate(model.layers):
        for f in fields(layer):
            items.append((f"layers.{k}.{f.name}", getattr(layer, f.name)))
    items.append(("head.w", model.head_w))
    items.append(("head.b", model.head_b))
    return items


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


def _mse_forward(model: LstmModel, inputs: np.ndarray, targets: np.ndarray, batch_size: int) -> float:
    sq = 0.0
    for start in range(0, len(targets), batch_size):
        preds, _ = forward_batch(model, inputs[start : start + batch_size])
        err = preds - targets[start : start + batch_size]
        sq += float(np.sum(err * err))
    return sq / len(targets)


def train(model_init: LstmModel, train_ds, cfg: TrainConfig):
    """Mini-batch Adam over chronological batches; no shuffling anywhere.

    The chronological tail of train_ds (cfg.validation_fraction of it) is
    held out for the per-epoch validation curve. Returns a trained copy of
    model_init and a history dict with exactly cfg.epochs entries per curve.
    The per-epoch train MSE is the running mean over that epoch's batches.
    """
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
    for epoch in range(1, cfg.epochs + 1):
        sq_err = 0.0
        for batch_no, start in enumerate(range(0, len(fit_y), cfg.batch_size), start=1):
            xb = fit_x[start : start + cfg.batch_size]
            yb = fit_y[start : start + cfg.batch_size]
            preds, caches = forward_batch(model, xb)
            err = preds - yb
            batch_sq = float(np.sum(err * err))
            if not math.isfinite(batch_sq):
                raise NonFiniteLoss(epoch, batch_no)
            sq_err += batch_sq
            grads = backward(model, caches, 2.0 * err / len(yb))
            clip_gradient_norm(grads, cfg.gradient_clip_norm)
            optimizer.step(params, grads)
        val_mse = _mse_forward(model, val_x, val_y, cfg.batch_size)
        if not math.isfinite(val_mse):
            raise NonFiniteLoss(epoch, 0)
        history["train_mse"].append(sq_err / len(fit_y))
        history["val_mse"].append(val_mse)
    return model, history


def _config_document(cfg) -> dict:
    """A config dataclass as a JSON object in field order, tuples as lists."""
    return {f.name: list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v for f in fields(cfg)}


def model_to_document(model: LstmModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "feature_names": list(model.feature_names),
        "lookback": model.lookback,
        "hidden_sizes": [int(h) for h in model.hidden_sizes],
        "cell_variant": model.cell_variant,
        "column_set": model.column_set,
        "use_adj_close": model.use_adj_close,
        "scaler": {
            "column_names": list(model.scaler.column_names),
            "mins": model.scaler.mins,
            "maxs": model.scaler.maxs,
        },
        "indicator_config": _config_document(model.indicator_config),
        "train_config": _config_document(model.train_config),
        "rng_seed": model.rng_seed,
        "layers": [
            {name: gate_view(layer, name) for name in _LAYER_FIELDS} for layer in model.layers
        ],
        "head": {"w": model.head_w, "b": float(model.head_b[0])},
    }


def save_model(model: LstmModel, sink) -> None:
    """Write the model as deterministic JSON (17 significant digits per number)."""
    for key, arr in model_param_items(model):
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in {key}; refusing to serialize")
    text = dump_json(model_to_document(model)) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


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


def _config_from_document(cls, doc, key: str):
    """Inverse of _config_document; each field must have the JSON type of its default."""
    path = f"$.{key}"
    section = _need(doc, key, "$", dict)
    values = {}
    for f in fields(cls):
        kind = list if isinstance(f.default, tuple) else type(f.default)
        value = _need(section, f.name, path, kind)
        values[f.name] = tuple(value) if kind is list else value
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise CorruptModel(path, str(exc)) from None


def _array(container, key: str, path: str, shape: tuple[int, ...]) -> np.ndarray:
    raw = _need(container, key, path, list)
    try:
        arr = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise CorruptModel(f"{path}.{key}", "not a numeric array") from None
    if arr.shape != shape:
        raise CorruptModel(f"{path}.{key}", f"shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise CorruptModel(f"{path}.{key}", "non-finite values")
    return arr


def load_model(source) -> LstmModel:
    """Inverse of save_model; structural problems raise CorruptModel with a path."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text("utf-8")
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel("$", f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CorruptModel("$", f"not UTF-8 text: {exc}") from None
    except RecursionError:
        raise CorruptModel("$", "nested too deeply to parse") from None
    version = _need(doc, "format_version", "$", int)
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version}, supported: {MODEL_FORMAT_VERSION}")
    mode = _need(doc, "mode", "$", str)
    if mode not in MODES:
        raise CorruptModel("$.mode", f"unknown mode {mode!r}")
    cell_variant = _need(doc, "cell_variant", "$", str)
    if cell_variant not in CELL_VARIANTS:
        raise CorruptModel("$.cell_variant", f"unknown variant {cell_variant!r}")
    column_set = _need(doc, "column_set", "$", str)
    use_adj_close = _need(doc, "use_adj_close", "$", bool)
    feature_names = _need(doc, "feature_names", "$", list)
    if not feature_names or not all(isinstance(n, str) for n in feature_names):
        raise CorruptModel("$.feature_names", "expected a list of strings")
    lookback = _need(doc, "lookback", "$", int)
    if lookback < 1:
        raise CorruptModel("$.lookback", "must be >= 1")
    hidden_sizes = _need(doc, "hidden_sizes", "$", list)
    if not hidden_sizes or not all(isinstance(h, int) and h >= 1 for h in hidden_sizes):
        raise CorruptModel("$.hidden_sizes", "expected positive integers")

    scaler_doc = _need(doc, "scaler", "$", dict)
    scaler_cols = _need(scaler_doc, "column_names", "$.scaler", list)
    if scaler_cols != feature_names:
        raise CorruptModel("$.scaler.column_names", "scaler columns differ from feature_names")
    width = len(feature_names)
    scaler = ScalerParams(
        column_names=tuple(scaler_cols),
        mins=_array(scaler_doc, "mins", "$.scaler", (width,)),
        maxs=_array(scaler_doc, "maxs", "$.scaler", (width,)),
    )

    indicator_config = _config_from_document(IndicatorConfig, doc, "indicator_config")
    train_config = _config_from_document(TrainConfig, doc, "train_config")

    layers_doc = _need(doc, "layers", "$", list)
    if len(layers_doc) != len(hidden_sizes):
        raise CorruptModel("$.layers", "layer count does not match hidden_sizes")
    layers = []
    in_size = width
    for k, (layer_doc, hidden) in enumerate(zip(layers_doc, hidden_sizes)):
        layer = LstmLayerParams.zeros(in_size, hidden)
        for name in _LAYER_FIELDS:
            view = gate_view(layer, name)
            view[...] = _array(layer_doc, name, f"$.layers[{k}]", view.shape)
        layers.append(layer)
        in_size = hidden

    head_doc = _need(doc, "head", "$", dict)
    head_w = _array(head_doc, "w", "$.head", (hidden_sizes[-1],))
    head_b = _need(head_doc, "b", "$.head", float)

    return LstmModel(
        mode=mode,
        layers=layers,
        head_w=head_w,
        head_b=np.array([head_b]),
        scaler=scaler,
        feature_names=tuple(feature_names),
        lookback=lookback,
        train_config=train_config,
        rng_seed=_need(doc, "rng_seed", "$", int),
        cell_variant=cell_variant,
        column_set=column_set,
        indicator_config=indicator_config,
        use_adj_close=use_adj_close,
    )
