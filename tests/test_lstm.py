"""LSTM internals: PRNG, cell math, gradients, training, serialization."""

import base64
import io
import json
import math
import sys
import tracemalloc
import weakref
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast import lstm
from stockcast.config import SplitContract
from stockcast.dataset import WindowedDataset
from stockcast.jsonio import dump_json
from stockcast.lstm import (
    CacheMismatch,
    CorruptModel,
    EmptyDataset,
    LstmError,
    LstmLayerParams,
    LstmModel,
    NonFiniteInput,
    NonFiniteLoss,
    ShapeMismatch,
    SplitMix64,
    TrainConfig,
    UnsupportedVersion,
    Adam,
    backward,
    clip_gradient_norm,
    forward_batch,
    gate_view,
    init_weights,
    load_model,
    model_param_items,
    new_model,
    save_model,
    train,
)
from stockcast.scaling import ScalerParams

FEATURE_POOL = ("Close", "CMA", "SMA10", "RSI", "K%")
FIXTURES = Path(__file__).parent / "fixtures"
WEIGHT_FIELDS = ("w_fx", "w_ix", "w_gx", "w_ox", "w_fh", "w_ih", "w_gh", "w_oh")
# every model carries a split; these tests score no held-out rows, so any valid one serves
CONTRACT = SplitContract(split_row=1, clip_scaled=False, train_first_date="2020-01-06",
                         train_last_date="2020-01-06", train_sha256="0" * 64,
                         first_test_date="2020-01-07")


def tiny_model(num_features=1, lookback=5, hidden=(4,), seed=42, variant="standard",
               mode="univariate", **cfg_kwargs):
    names = FEATURE_POOL[:num_features]
    scaler = ScalerParams(
        column_names=names,
        mins=np.zeros(num_features),
        maxs=np.ones(num_features),
    )
    cfg = TrainConfig(hidden_sizes=hidden, seed=seed, **cfg_kwargs)
    column_set = "univariate" if mode == "univariate" else "paper_multivariate"
    return new_model(names, lookback, scaler, cfg, CONTRACT, cell_variant=variant,
                     column_set=column_set)


def windows_dataset(inputs, targets):
    day = date(2020, 1, 6)
    dates = tuple(day + timedelta(days=i) for i in range(len(targets)))
    return WindowedDataset(
        inputs=np.asarray(inputs, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.float64),
        dates=dates,
    )


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# ------------------------------------------------------------------------ PRNG

def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range_and_determinism():
    a = SplitMix64(123)
    b = SplitMix64(123)
    values = [a.uniform(-0.25, 0.75) for _ in range(500)]
    assert values == [b.uniform(-0.25, 0.75) for _ in range(500)]
    assert all(-0.25 <= v < 0.75 for v in values)
    assert min(values) < 0.0 < max(values)
    grid = SplitMix64(7).fill((3, 4), -1.0, 1.0)
    assert grid.shape == (3, 4)
    assert not np.array_equal(grid, SplitMix64(8).fill((3, 4), -1.0, 1.0))


def test_splitmix64_fill_matches_scalar_stream():
    for seed in (0, 123, 2**64 - 1):
        vector, scalar = SplitMix64(seed), SplitMix64(seed)
        grid = vector.fill((5, 7), -0.3, 0.3)
        assert grid.tolist() == [[scalar.uniform(-0.3, 0.3) for _ in range(7)] for _ in range(5)]
        assert vector.next_u64() == scalar.next_u64()
    assert SplitMix64(1).fill((0,), -1.0, 1.0).shape == (0,)


# ------------------------------------------------------------- initialization

def test_init_weights_bounds_and_biases():
    layer = init_weights(3, 9, seed=5)
    bound = 1.0 / 3.0
    for name in ("w_fx", "w_ix", "w_gx", "w_ox"):
        arr = gate_view(layer, name)
        assert arr.shape == (9, 3)
        assert (np.abs(arr) <= bound).all()
    for name in ("w_fh", "w_ih", "w_gh", "w_oh"):
        assert gate_view(layer, name).shape == (9, 9)
        assert (np.abs(gate_view(layer, name)) <= bound).all()
    assert (gate_view(layer, "b_f") == 1.0).all()
    assert all((gate_view(layer, name) == 0.0).all() for name in ("b_i", "b_g", "b_o"))
    again = init_weights(3, 9, seed=5)
    assert all(
        np.array_equal(gate_view(layer, n), gate_view(again, n))
        for n in ("w_fx", "w_ih", "b_f")
    )
    assert not np.array_equal(gate_view(layer, "w_fx"),
                              gate_view(init_weights(3, 9, seed=6), "w_fx"))


def test_init_weights_fill_order_and_view_aliasing():
    layer = init_weights(3, 9, seed=5)
    bound = 1.0 / 3.0
    stream = SplitMix64(5).fill((4 * 9 * 3 + 4 * 9 * 9,), -bound, bound)
    offset = 0
    for name in WEIGHT_FIELDS:  # the model file's order, row-major within each array
        view = gate_view(layer, name)
        assert np.array_equal(view, stream[offset : offset + view.size].reshape(view.shape)), name
        offset += view.size
    assert offset == stream.size

    assert layer.W.flags.c_contiguous
    assert layer.W.shape == (3 + 9 + 1, 4 * 9)
    blocks = {"f": 0, "i": 1, "o": 2, "g": 3}  # column blocks of W
    for name in WEIGHT_FIELDS + ("b_f", "b_i", "b_g", "b_o"):
        view = gate_view(layer, name)
        expect = layer.W.copy()
        row = view.shape[0] - 2
        column = blocks[name[2]] * 9 + row
        if name.startswith("b_"):  # the bias is W's last row
            expect[-1, column] = 42.0
            view[row] = 42.0
        else:  # input rows [:3], recurrent rows [3:12]
            expect[(0 if name.endswith("x") else 3) + view.shape[1] - 1, column] = 42.0
            view[row, -1] = 42.0
        assert np.array_equal(layer.W, expect), name
    for name, first_row in (("W_x", 0), ("W_h", 3), ("b", 12)):
        view = getattr(layer, name)
        expect = layer.W.copy()
        expect[first_row, 5] = -7.0
        view[(0, 5) if view.ndim == 2 else 5] = -7.0
        assert np.array_equal(layer.W, expect), name


def test_model_param_items_lists_one_W_per_layer_and_the_head():
    model = tiny_model(num_features=2, hidden=(4, 3), mode="multivariate")
    items = model_param_items(model)
    assert [key for key, _ in items] == ["layers.0.W", "layers.1.W", "head.w", "head.b"]
    assert [arr.shape for _, arr in items] == [(2 + 4 + 1, 16), (4 + 3 + 1, 12), (3,), (1,)]
    assert items[0][1] is model.layers[0].W and items[1][1] is model.layers[1].W


def test_new_model_layer_seed_schedule():
    model = tiny_model(num_features=2, hidden=(4, 3), seed=42, mode="multivariate")
    expect0 = init_weights(2, 4, seed=42)
    expect1 = init_weights(4, 3, seed=43)
    assert np.array_equal(gate_view(model.layers[0], "w_fx"), gate_view(expect0, "w_fx"))
    assert np.array_equal(gate_view(model.layers[1], "w_oh"), gate_view(expect1, "w_oh"))
    bound = 1.0 / math.sqrt(3)
    assert np.array_equal(model.head_w, SplitMix64(44).fill((3,), -bound, bound))
    assert model.head_b.tolist() == [0.0]
    assert model.hidden_sizes == (4, 3)


# --------------------------------------------------------------------- cell
# The cell is checked through forward_batch's buffers: lookback 1 for a single
# step from the zero state, lookback 2 where a step needs a non-zero h and c.

def model_with_layer(layer, lookback, variant="standard"):
    model = tiny_model(num_features=layer.input_size, lookback=lookback,
                       hidden=(layer.hidden_size,), variant=variant,
                       mode="univariate" if layer.input_size == 1 else "multivariate")
    model.layers[0] = layer
    return model


def step_buffers(model, X, t):
    """Step t of forward_batch's first layer: gates, c, tanh(c) and h as (batch, width) rows."""
    _, caches = forward_batch(model, X)
    buf = caches.layers[0]
    gates = dict(zip("fiog", (block.T for block in np.split(buf.gates[t], 4))))
    return gates, buf.c[t].T, buf.tc[t].T, layer_h(model.layers[0], buf)[t].T


def layer_h(layer, buf):
    """A layer's outputs h_t, (T, H, B): the h rows of its xh slots 1..T."""
    return buf.xh[1:, layer.input_size : -1]


def test_cell_zero_weights_standard():
    layer = LstmLayerParams.zeros(2, 3)
    gate_view(layer, "b_f")[:] = 0.0
    gates, c, _, h = step_buffers(model_with_layer(layer, 1), np.ones((1, 1, 2)), 0)
    assert np.allclose(gates["f"], 0.5) and np.allclose(gates["i"], 0.5)
    assert np.allclose(gates["o"], 0.5) and np.allclose(gates["g"], 0.0)
    assert np.allclose(c, 0.0) and np.allclose(h, 0.0)


def test_cell_zero_weights_as_printed():
    layer = LstmLayerParams.zeros(2, 3)
    gate_view(layer, "b_f")[:] = 0.0
    _, c, _, h = step_buffers(model_with_layer(layer, 1, "as_printed"), np.ones((1, 1, 2)), 0)
    assert np.allclose(c, 0.5)
    assert np.allclose(h, 0.5 * math.tanh(0.5))


def test_cell_hand_scalar_case():
    layer = LstmLayerParams.zeros(1, 1)
    gate_view(layer, "w_fx")[0, 0] = 0.4
    gate_view(layer, "w_ix")[0, 0] = -0.3
    gate_view(layer, "w_gx")[0, 0] = 0.8
    gate_view(layer, "w_ox")[0, 0] = 0.1
    gate_view(layer, "w_fh")[0, 0] = 0.2
    gate_view(layer, "w_ih")[0, 0] = -0.5
    gate_view(layer, "w_gh")[0, 0] = 0.6
    gate_view(layer, "w_oh")[0, 0] = -0.7
    gate_view(layer, "b_f")[0] = 1.0
    gate_view(layer, "b_i")[0] = 0.05
    gate_view(layer, "b_g")[0] = -0.1
    gate_view(layer, "b_o")[0] = 0.2
    X = np.array([[[-0.6], [0.3]]])  # step 0 leaves a non-zero h and c for step 1

    for variant in ("standard", "as_printed"):
        model = model_with_layer(layer, 2, variant)
        h_prev = c_prev = 0.0
        for t, x in enumerate(X[0, :, 0]):
            f = sigmoid(0.4 * x + 0.2 * h_prev + 1.0)
            i = sigmoid(-0.3 * x + -0.5 * h_prev + 0.05)
            g = math.tanh(0.8 * x + 0.6 * h_prev + -0.1)
            o = sigmoid(0.1 * x + -0.7 * h_prev + 0.2)
            c = f * c_prev + (i * g if variant == "standard" else i + g)
            gates, c_got, _, h_got = step_buffers(model, X, t)
            assert c_got[0, 0] == pytest.approx(c, abs=1e-15)
            assert h_got[0, 0] == pytest.approx(o * math.tanh(c), abs=1e-15)
            assert gates["f"][0, 0] == pytest.approx(f, abs=1e-15)
            h_prev, c_prev = o * math.tanh(c), c


def test_cell_rejects_bad_shapes_and_variant():
    model = model_with_layer(LstmLayerParams.zeros(2, 3), 1)
    with pytest.raises(ShapeMismatch):
        forward_batch(model, np.ones((1, 1, 5)))
    with pytest.raises(ShapeMismatch):
        forward_batch(model, np.ones((1, 2, 2)))
    model.cell_variant = "fancy"
    for run in (forward_batch, LstmModel.predict):
        with pytest.raises(ValueError):
            run(model, np.ones((1, 1, 2)))


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
def test_cell_matches_per_gate_equations(variant):
    layer = init_weights(3, 5, seed=9)
    for name, value in (("b_i", 0.1), ("b_g", -0.2), ("b_o", 0.3)):
        gate_view(layer, name)[:] = value
    model = model_with_layer(layer, 2, variant)
    X = np.random.default_rng(3).normal(size=(4, 2, 3))
    h = c = np.zeros((4, 5))
    for t in range(2):  # step 1 starts from step 0's h and c, read back from the buffers
        x = X[:, t, :]

        def pre(q):  # the unpacked per-gate pre-activation, as a reference
            w_x, w_h, b = (gate_view(layer, name) for name in (f"w_{q}x", f"w_{q}h", f"b_{q}"))
            return x @ w_x.T + h @ w_h.T + b

        f, i, o = (1.0 / (1.0 + np.exp(-pre(q))) for q in "fio")
        g = np.tanh(pre("g"))
        c_new = f * c + (i * g if variant == "standard" else i + g)
        gates, c_got, tc_got, h_got = step_buffers(model, X, t)
        tol = 8 * np.finfo(np.float64).eps
        for got, want in ((gates["f"], f), (gates["i"], i), (gates["o"], o), (gates["g"], g),
                          (c_got, c_new), (tc_got, np.tanh(c_new)), (h_got, o * np.tanh(c_new))):
            assert np.allclose(got, want, rtol=tol, atol=tol)
        h, c = h_got, c_got


# ------------------------------------------------------------------- forward

def test_forward_zero_weights_returns_head_bias():
    model = tiny_model(lookback=4, hidden=(3,))
    for layer in model.layers:
        for arr in (layer.W_x, layer.W_h, layer.b):
            arr[:] = 0.0
    model.head_w[:] = 0.0
    model.head_b[0] = 0.7
    value = model.predict(np.random.default_rng(0).normal(size=(4, 1))[None], 1)[0]
    assert value == pytest.approx(0.7, abs=1e-15)


def test_forward_guards():
    model = tiny_model(lookback=4)
    with pytest.raises(ShapeMismatch):
        model.predict(np.zeros((5, 1))[None], 1)
    bad = np.zeros((4, 1))
    bad[2, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        model.predict(bad[None], 1)
    with pytest.raises(ShapeMismatch):
        forward_batch(model, np.zeros((4, 1)))


def test_predict_batch_matches_predict():
    model = tiny_model(num_features=2, lookback=6, hidden=(5, 3), mode="multivariate")
    X = np.random.default_rng(3).normal(size=(9, 6, 2))
    batch = model.predict(X, len(X))
    single = np.array([model.predict(w[None], 1)[0] for w in X])
    # batched and one-row matmuls may take different BLAS paths; only
    # repeat calls at the same shape are bit-identical
    assert np.allclose(batch, single, rtol=0.0, atol=1e-12)
    assert np.array_equal(model.predict(X, len(X)), batch)


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_predict_runs_chunk_windows_per_pass(chunk, monkeypatch):
    model = tiny_model(num_features=2, lookback=6, hidden=(5, 3), seed=5, mode="multivariate")
    X = np.random.default_rng(chunk).normal(size=(255, 6, 2))
    got = model.predict(X, chunk)
    assert got.dtype == np.float64 and got.shape == (255,)
    parts = [model.predict(X[start : start + chunk], chunk) for start in range(0, 255, chunk)]
    assert np.array_equal(got, np.concatenate(parts))

    steps, unrolls = [], []
    cell_step, unroll = lstm._cell_step, lstm._unroll
    monkeypatch.setattr(lstm, "_cell_step", lambda *args: steps.append(1) or cell_step(*args))
    monkeypatch.setattr(lstm, "_unroll", lambda *args: unrolls.append(1) or unroll(*args))
    assert np.array_equal(model.predict(X, chunk), got)
    assert steps and unrolls == []  # inference runs on WindowStream, never the training unroll
    steps.clear()
    X[-1, 3, 1] = np.nan  # in the last chunk at every chunk size
    with pytest.raises(NonFiniteInput):
        model.predict(X, chunk)
    assert steps == []
    with pytest.raises(ValueError):
        model.predict(X[:2], 0)


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
@pytest.mark.parametrize("lookback, days", [(5, 3), (5, 5), (4, 11), (1, 4), (6, 1)])
def test_stream_column_equals_predict_at_its_chunk(variant, lookback, days):
    # window k is rows k .. k + lookback - 1: started in column k % width before row k,
    # read from that column once row k + lookback - 1 is pushed
    model = tiny_model(num_features=2, lookback=lookback, hidden=(5, 3), seed=7, variant=variant,
                       mode="multivariate")
    rows = np.random.default_rng(lookback * days).normal(size=(lookback + days - 1, 2))
    width = min(lookback, days)
    stream, got = model.stream(width), []
    for r, row in enumerate(rows):
        if r < days:
            stream.start(r % width)
        heads = stream.push(row)
        assert heads.shape == (width,)
        if r >= lookback - 1:
            got.append(heads[(r - lookback + 1) % width])
    for k in range(days):
        chunk = np.zeros((width, lookback, 2))
        chunk[k % width] = rows[k : k + lookback]
        assert got[k] == model.predict(chunk, width)[k % width]

    # fed (features, width) blocks, column j takes window j's own rows
    windows = np.stack([rows[k : k + lookback] for k in range(width)])
    blocks = model.stream(width)
    for t in range(lookback):
        heads = blocks.push(windows[:, t].T)
    assert (heads == model.predict(windows, width)).all()


def test_stream_guards():
    model = tiny_model(num_features=2, lookback=4, mode="multivariate")
    stream, clean = model.stream(3), model.stream(3)
    row = np.array([0.5, -0.25])
    stream.push(row), clean.push(row)
    with pytest.raises(ShapeMismatch):
        stream.push(np.zeros(3))
    with pytest.raises(NonFiniteInput):
        stream.push(np.array([0.5, np.inf]))
    with pytest.raises(ShapeMismatch):
        stream.push(np.zeros((2, 4)))  # a block one column wider than the stream
    with pytest.raises(NonFiniteInput):
        stream.push(np.array([[0.5, 0.5, np.nan], [0.0, 0.0, 0.0]]))
    assert np.array_equal(stream.push(row), clean.push(row))  # refused rows left no trace
    block = np.array([[0.5, -0.5, 0.25], [0.1, 0.2, -0.3]])
    assert np.array_equal(stream.push(block), clean.push(block))
    with pytest.raises(ValueError):
        model.stream(0)
    model.cell_variant = "fancy"
    with pytest.raises(ValueError):
        model.stream(1)


def test_hidden_unit_permutation_symmetry():
    model = tiny_model(lookback=7, hidden=(6,), seed=9)
    X = np.random.default_rng(1).normal(size=(4, 7, 1))
    base = model.predict(X, len(X))

    perm = np.array([3, 0, 5, 1, 4, 2])
    layer = model.layers[0]
    for name in ("w_fx", "w_ix", "w_gx", "w_ox", "b_f", "b_i", "b_g", "b_o"):
        gate_view(layer, name)[:] = gate_view(layer, name)[perm]
    for name in ("w_fh", "w_ih", "w_gh", "w_oh"):
        gate_view(layer, name)[:] = gate_view(layer, name)[perm][:, perm]
    model.head_w[:] = model.head_w[perm]

    assert np.allclose(model.predict(X, len(X)), base, rtol=0.0, atol=1e-12)


def test_gate_ranges_on_random_model():
    model = tiny_model(num_features=3, lookback=8, hidden=(5,), seed=2, mode="multivariate")
    X = np.random.default_rng(8).normal(size=(6, 8, 3))
    _, caches = forward_batch(model, X)
    buf = caches.layers[0]
    assert buf.gates.shape == (8, 20, 6) and buf.tc.shape == (8, 5, 6)
    sigmoids, g = buf.gates[:, :15], buf.gates[:, 15:]  # f, i, o, then g
    assert (sigmoids > 0.0).all() and (sigmoids < 1.0).all()
    assert (np.abs(g) <= 1.0).all()
    assert (np.abs(buf.tc) <= 1.0).all()


def reference_step(layer, x, h, c, standard):
    """One step on (width, batch) columns, with the input, recurrent and bias terms
    summed separately, as the per-gate equations read."""
    hidden = layer.hidden_size
    z = (x.T @ layer.W_x + h.T @ layer.W_h).T + layer.b[:, None]
    f, i, o = (1.0 / (1.0 + np.exp(-z[k * hidden : (k + 1) * hidden])) for k in range(3))
    g = np.tanh(z[3 * hidden :])
    c = f * c + (i * g if standard else i + g)
    tc = np.tanh(c)
    return {"f": f, "i": i, "o": o, "g": g, "c": c, "tc": tc, "h": o * tc}


# forward_batch sums x W_x, h W_h and the bias inside one GEMM, so it may differ from the
# reference's order in the last bits; gates, c and h are of order 1
STEP_CHAIN_TOL = 16 * np.finfo(np.float64).eps


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
def test_forward_batch_matches_reference_step_chain(variant):
    model = tiny_model(num_features=3, lookback=6, hidden=(5, 4), seed=4, variant=variant,
                       mode="multivariate")
    X = np.random.default_rng(12).normal(size=(7, 6, 3))
    preds, caches = forward_batch(model, X)
    inputs = [X[:, t, :].T for t in range(6)]  # each layer's input columns, step by step
    for layer, buf in zip(model.layers, caches.layers):
        h = c = np.zeros((layer.hidden_size, 7))
        for t in range(6):
            step = reference_step(layer, inputs[t], h, c, variant == "standard")
            h, c = step["h"], step["c"]
            inputs[t] = h
            got = dict(zip("fiog", np.split(buf.gates[t], 4)), c=buf.c[t], tc=buf.tc[t],
                       h=layer_h(layer, buf)[t])
            for name, value in got.items():
                assert np.allclose(value, step[name], rtol=0.0, atol=STEP_CHAIN_TOL), (t, name)
    assert np.allclose(preds, h.T @ model.head_w + model.head_b[0], rtol=0.0, atol=STEP_CHAIN_TOL)


@pytest.mark.parametrize("num_features", [1, 3])
@pytest.mark.parametrize("variant", ["standard", "as_printed"])
@pytest.mark.parametrize("batch", [1, 7, 32, 255])
def test_predict_path_matches_forward_batch(batch, variant, num_features):
    model = tiny_model(num_features=num_features, lookback=6, hidden=(5, 3), seed=8,
                       variant=variant, mode="univariate" if num_features == 1 else "multivariate")
    X = np.random.default_rng(batch).normal(size=(batch, 6, num_features))
    preds, _ = forward_batch(model, X)
    assert np.array_equal(model.predict(X, len(X)), preds)
    assert model.predict(X[-1][None], 1)[0] == forward_batch(model, X[-1:])[0][0]


def test_predict_batch_keeps_no_backward_caches():
    names = tuple(f"x{j}" for j in range(13))
    scaler = ScalerParams(column_names=names, mins=np.zeros(13), maxs=np.ones(13))
    model = new_model(names, 60, scaler, TrainConfig(hidden_sizes=(50, 50)), CONTRACT,
                      column_set="paper_multivariate")
    X = np.random.default_rng(6).uniform(-1.0, 1.0, size=(256, 60, 13))

    def peak_bytes(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    predict_peak = peak_bytes(lambda: model.predict(X, len(X)))
    forward_peak = peak_bytes(lambda: forward_batch(model, X))
    assert predict_peak < forward_peak / 4, (predict_peak, forward_peak)


# ------------------------------------------------------------------ gradients

def loss_and_grads(model, X, d_pred):
    preds, caches = forward_batch(model, X)
    return float(np.dot(d_pred, preds)), backward(model, caches, d_pred)


@pytest.mark.parametrize("variant, hidden, batch", [
    pytest.param(variant, hidden, batch, id=variant + tag)
    for hidden, batch, tag in (((3, 2), 3, ""), ((2, 3, 2), 2, "-3-layer"), ((3, 2), 1, "-batch-1"))
    for variant in ("standard", "as_printed")
])
def test_gradients_match_finite_differences(variant, hidden, batch):
    model = tiny_model(num_features=2, lookback=4, hidden=hidden, seed=11,
                       variant=variant, mode="multivariate")
    rng = np.random.default_rng(17)
    X = rng.normal(scale=0.8, size=(batch, 4, 2))
    d_pred = rng.normal(size=batch)
    _, grads = loss_and_grads(model, X, d_pred)

    h = 1e-5
    checked = 0
    for key, arr in model_param_items(model):
        flat = arr.ravel()
        grad_flat = grads[key].ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up, _ = forward_batch(model, X)
            flat[idx] = keep - h
            down, _ = forward_batch(model, X)
            flat[idx] = keep
            fd = float(np.dot(d_pred, up - down)) / (2.0 * h)
            assert abs(grad_flat[idx] - fd) <= max(1e-4 * abs(fd), 1e-6), (
                f"{key}[{idx}]: analytic {grad_flat[idx]}, fd {fd}"
            )
            checked += 1
    assert checked == sum(arr.size for _, arr in model_param_items(model))


def test_zero_upstream_gives_zero_grads():
    model = tiny_model(lookback=4, hidden=(3,))
    X = np.random.default_rng(0).normal(size=(2, 4, 1))
    _, grads = loss_and_grads(model, X, np.zeros(2))
    assert all((g == 0.0).all() for g in grads.values())


def test_backward_rejects_mismatched_caches():
    model = tiny_model(lookback=4, hidden=(3,), variant="standard")
    X = np.random.default_rng(0).normal(size=(2, 4, 1))
    _, caches = forward_batch(model, X)
    with pytest.raises(CacheMismatch):
        backward(model, caches, np.zeros(5))
    other = tiny_model(lookback=4, hidden=(3,), variant="as_printed")
    with pytest.raises(CacheMismatch):
        backward(other, caches, np.zeros(2))
    with pytest.raises(CacheMismatch):
        backward(model, {"shape": (2, 4, 1)}, np.zeros(2))
    with pytest.raises(CacheMismatch):  # forward_batch's out must hold the windows' batch size
        forward_batch(model, np.zeros((3, 4, 1)), out=caches)


@pytest.mark.parametrize("hidden, lookback", [((5, 3, 2), 4), ((4, 3), 4), ((3,), 4), ((5, 3), 6)])
def test_backward_rejects_a_cache_from_another_model_shape(hidden, lookback):
    _, caches = forward_batch(tiny_model(lookback=4, hidden=(5, 3)),
                              np.random.default_rng(0).normal(size=(2, 4, 1)))
    other = tiny_model(lookback=lookback, hidden=hidden)
    with pytest.raises(CacheMismatch):
        backward(other, caches, np.zeros(2))
    with pytest.raises(CacheMismatch):  # nor may forward_batch overwrite it for that model
        forward_batch(other, np.zeros((2, lookback, 1)), out=caches)


def test_live_and_reused_caches_give_fresh_gradients():
    model = tiny_model(num_features=2, lookback=5, hidden=(4, 3), seed=7, mode="multivariate")
    rng = np.random.default_rng(23)
    batches = [(rng.normal(size=(6, 5, 2)), rng.normal(size=6)) for _ in range(2)]

    def fresh(X, d_pred):
        preds, caches = forward_batch(model, X)
        return preds, backward(model, caches, d_pred)

    def assert_same(got, want):
        assert np.array_equal(got[0], want[0])
        assert list(got[1]) == list(want[1])
        assert all(np.array_equal(got[1][key], want[1][key]) for key in want[1])

    want = [fresh(X, d_pred) for X, d_pred in batches]
    live = [forward_batch(model, X) for X, _ in batches]  # both caches alive at once
    for (preds, caches), (_, d_pred), expect in zip(live, batches, want):
        assert_same((preds, backward(model, caches, d_pred)), expect)
        assert_same((preds, backward(model, caches, d_pred)), expect)  # backward reads only
    reused = live[0][1]
    preds, caches = forward_batch(model, batches[1][0], out=reused)
    assert caches is reused
    assert_same((preds, backward(model, caches, batches[1][1])), want[1])


# ------------------------------------------------------------------ optimizer

def test_adam_reference_steps():
    w = np.array([1.0])
    opt = Adam([("w", w)], learning_rate=0.1)
    m = v = 0.0
    ref = 1.0
    for t in (1, 2):
        g = 0.5
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        ref -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        opt.step([("w", w)], {"w": np.array([0.5])})
        assert w[0] == pytest.approx(ref, abs=1e-15)
    assert opt.step_count == 2


def test_clip_gradient_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert clip_gradient_norm(grads, 5.0) == pytest.approx(5.0)
    assert grads["a"][0] == 3.0
    assert clip_gradient_norm(grads, 2.5) == pytest.approx(5.0)
    assert grads["a"][0] == pytest.approx(1.5)
    assert grads["b"][0] == pytest.approx(2.0)
    zeros = {"a": np.zeros(3)}
    assert clip_gradient_norm(zeros, 1.0) == 0.0


# ------------------------------------------------------------------- training

def memorization_data(n=220, lookback=8, seed=4):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n, lookback, 1))
    targets = inputs[:, -1, 0].copy()
    return windows_dataset(inputs, targets)


def test_training_learns_last_input_memorization():
    ds = memorization_data()
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.01, hidden_sizes=(8,), seed=3)
    model = tiny_model(lookback=8, hidden=(8,), seed=3, learning_rate=0.01,
                       epochs=50, batch_size=32)
    trained, history = train(model, ds, cfg)
    assert len(history["train_mse"]) == 50
    assert len(history["val_mse"]) == 50
    assert history["train_mse"][-1] < 0.1 * history["train_mse"][0]
    assert history["val_mse"][-1] < history["val_mse"][0]
    # the trained model actually tracks the last input, the fresh one does not
    probe = np.random.default_rng(9).uniform(-1.0, 1.0, size=(50, 8, 1))
    err = np.abs(trained.predict(probe, len(probe)) - probe[:, -1, 0])
    assert float(err.mean()) < 0.25


def test_train_matches_a_loop_over_the_public_steps():
    # 68 fitting windows at batch 16 leave a tail batch of 4, which gets its own cache;
    # the clip norm of 0.5 scales 2 of the 15 batches' gradients
    ds = memorization_data(n=75)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, hidden_sizes=(5, 3), seed=6,
                      gradient_clip_norm=0.5)
    model = tiny_model(lookback=8, hidden=(5, 3), seed=6)
    trained, history = train(model, ds, cfg)

    fit_n = len(ds) - int(len(ds) * cfg.validation_fraction)
    ref = tiny_model(lookback=8, hidden=(5, 3), seed=6)
    params = model_param_items(ref)
    optimizer = Adam(params, cfg.learning_rate)
    ref_history = {"train_mse": [], "val_mse": []}
    for _ in range(cfg.epochs):
        sq_err = 0.0
        for start in range(0, fit_n, cfg.batch_size):
            stop = min(start + cfg.batch_size, fit_n)
            preds, caches = forward_batch(ref, ds.inputs[start:stop])
            err = preds - ds.targets[start:stop]
            sq_err += float(np.sum(err * err))
            grads = backward(ref, caches, 2.0 * err / len(err))
            clip_gradient_norm(grads, cfg.gradient_clip_norm)
            optimizer.step(params, grads)
        val_sq = 0.0
        for start in range(fit_n, len(ds), cfg.batch_size):
            chunk = slice(start, start + cfg.batch_size)
            err = ref.predict(ds.inputs[chunk], cfg.batch_size) - ds.targets[chunk]
            val_sq += float(np.sum(err * err))
        ref_history["train_mse"].append(sq_err / fit_n)
        ref_history["val_mse"].append(val_sq / (len(ds) - fit_n))

    assert history == ref_history
    for (key, got), (_, want) in zip(model_param_items(trained), params, strict=True):
        assert np.array_equal(got, want), key


def test_train_keeps_one_forward_cache_and_one_block(monkeypatch):
    # 68 fitting windows at batch 16: four full batches and a tail of 4 in each epoch
    ds = memorization_data(n=75)
    cfg = TrainConfig(epochs=3, batch_size=16, hidden_sizes=(5, 3), seed=6)
    caches, blocks, sizes = [], [], []  # weakrefs to each ForwardCache and block in turn; batch sizes
    real = lstm.forward_batch

    def tracked(model, windows, out=None):
        preds, cache = real(model, windows, out)
        if not caches or caches[-1]() is not cache:
            assert all(ref() is None for ref in caches), "two ForwardCaches alive at once"
            caches.append(weakref.ref(cache))
        block = cache.layers[0].xh.base
        assert all(view.base is block for buf in cache.layers for view in vars(buf).values())
        if not blocks or blocks[-1]() is not block:
            blocks.append(weakref.ref(block))
        sizes.append(len(windows))
        return preds, cache

    monkeypatch.setattr(lstm, "forward_batch", tracked)
    train(tiny_model(lookback=8, hidden=(5, 3), seed=6), ds, cfg)
    assert sizes == ([16] * 4 + [4]) * cfg.epochs
    assert len(caches) == 2 * cfg.epochs  # a new ForwardCache at each change of batch size
    assert len(blocks) == 1  # every one of them a view of the first, full-size batch's block


def test_last_val_mse_is_the_returned_models_chunked_validation_error():
    # 22 validation windows at batch 16: a full chunk and a tail of 6, each summed apart
    ds = memorization_data(n=220)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01, hidden_sizes=(5,), seed=8)
    trained, history = train(tiny_model(lookback=8, hidden=(5,), seed=8), ds, cfg)
    val_n = int(len(ds) * cfg.validation_fraction)
    val_x, val_y = ds.inputs[-val_n:], ds.targets[-val_n:]
    preds = trained.predict(val_x, cfg.batch_size)
    sq = 0.0
    for start in range(0, val_n, cfg.batch_size):
        err = preds[start : start + cfg.batch_size] - val_y[start : start + cfg.batch_size]
        sq += float(np.sum(err * err))
    assert history["val_mse"][-1] == sq / val_n


def test_training_is_bit_reproducible():
    ds = memorization_data(n=80)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.005, hidden_sizes=(6,), seed=21)
    runs = []
    for _ in range(2):
        model = tiny_model(lookback=8, hidden=(6,), seed=21)
        trained, history = train(model, ds, cfg)
        sink = io.StringIO()
        save_model(trained, sink)
        runs.append((sink.getvalue(), history))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_training_does_not_mutate_input_model():
    ds = memorization_data(n=60)
    cfg = TrainConfig(epochs=2, batch_size=16, hidden_sizes=(4,), seed=5)
    model = tiny_model(lookback=8, hidden=(4,), seed=5)
    before = model.layers[0].W_x.copy()
    trained, _ = train(model, ds, cfg)
    assert np.array_equal(model.layers[0].W_x, before)
    assert not np.array_equal(trained.layers[0].W_x, before)


def test_single_epoch_history():
    ds = memorization_data(n=40)
    cfg = TrainConfig(epochs=1, batch_size=8, hidden_sizes=(3,), seed=1)
    _, history = train(tiny_model(lookback=8, hidden=(3,), seed=1), ds, cfg)
    assert len(history["train_mse"]) == 1
    assert len(history["val_mse"]) == 1
    assert math.isfinite(history["train_mse"][0])


def test_non_finite_loss_carries_position():
    ds = memorization_data(n=40)
    ds.inputs[2, 0, 0] = np.nan
    cfg = TrainConfig(epochs=2, batch_size=8, hidden_sizes=(3,), seed=1)
    with pytest.raises(NonFiniteLoss) as err:
        train(tiny_model(lookback=8, hidden=(3,), seed=1), ds, cfg)
    assert err.value.epoch == 1
    assert err.value.batch == 1


def test_empty_or_tiny_dataset_rejected():
    cfg = TrainConfig(epochs=1, hidden_sizes=(3,), seed=1)
    empty = windows_dataset(np.zeros((0, 8, 1)), np.zeros(0))
    with pytest.raises(EmptyDataset):
        train(tiny_model(lookback=8, hidden=(3,), seed=1), empty, cfg)
    small = memorization_data(n=5)
    with pytest.raises(EmptyDataset):
        train(tiny_model(lookback=8, hidden=(3,), seed=1), small, cfg)


@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
def test_min_train_windows_is_the_fewest_that_carve_a_validation_tail(fraction):
    n = lstm.min_train_windows(fraction)
    assert int(n * fraction) >= 1 > int((n - 1) * fraction)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_sizes=())
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# -------------------------------------------------------------- serialization

def trained_pair(tmp_path):
    ds = memorization_data(n=60)
    cfg = TrainConfig(epochs=2, batch_size=16, hidden_sizes=(5, 3), seed=13)
    model = tiny_model(lookback=8, hidden=(5, 3), seed=13)
    trained, _ = train(model, ds, cfg)
    path = tmp_path / "model.json"
    save_model(trained, path)
    return trained, path


def test_save_load_round_trip(tmp_path):
    trained, path = trained_pair(tmp_path)
    loaded = load_model(path)
    X = np.random.default_rng(30).uniform(-1.0, 1.0, size=(100, 8, 1))
    assert np.array_equal(loaded.predict(X, len(X)), trained.predict(X, len(X)))
    assert loaded.feature_names == trained.feature_names
    assert loaded.train_config == trained.train_config
    assert loaded.cell_variant == trained.cell_variant
    for (_, a), (_, b) in zip(model_param_items(loaded), model_param_items(trained)):
        assert a.tobytes() == b.tobytes()  # bit for bit, the sign of a zero included
    assert loaded.scaler.mins.tobytes() == trained.scaler.mins.tobytes()
    assert loaded.contract == trained.contract == CONTRACT

    sink = io.StringIO()
    save_model(loaded, sink)
    assert sink.getvalue() == path.read_text()


def test_dump_json_refuses_arrays_and_non_finite_numbers():
    # the model file packs its arrays as bytes, so no document holds an ndarray
    text = dump_json({"a": [-0.0, 5e-324, 0.1], "n": np.int64(3)})
    assert text == '{"a":[-0,4.9406564584124654e-324,0.10000000000000001],"n":3}'
    with pytest.raises(TypeError):
        dump_json({"a": np.ones(3)})
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            dump_json([1.0, bad])


def test_save_refuses_non_finite(tmp_path):
    trained, _ = trained_pair(tmp_path)
    trained.head_w[0] = np.inf
    with pytest.raises(ValueError):
        save_model(trained, tmp_path / "bad.json")
    trained, _ = trained_pair(tmp_path)
    trained.scaler.maxs[0] = np.nan
    with pytest.raises(ValueError):
        save_model(trained, tmp_path / "bad.json")


def test_golden_v2_model_resaves_and_predicts():
    # trained through the CLI on random_walk_series(240, seed=23) with sma_periods 5,20,
    # lookback 4, hidden 3,2, --train-fraction 0.75 and --clip-scaled
    path = FIXTURES / "golden_v2_model.json"
    model = load_model(path)
    assert model.hidden_sizes == (3, 2) and model.num_features == 12
    assert model.contract == SplitContract(
        split_row=164, clip_scaled=True, train_first_date="2015-01-24",
        train_last_date="2015-07-06", first_test_date="2015-07-07",
        train_sha256="85f7396321ec7ac8238362d044eab23e72881dd7601e6cea327bad6b3c7fcc9e")
    sink = io.StringIO()
    save_model(model, sink)
    assert sink.getvalue() == path.read_text()  # the arrays' bytes, whatever BLAS runs
    X = np.random.default_rng(20262).uniform(-1.0, 1.0, size=(16, 4, 12))
    predicted = model.predict(X, len(X))
    resaved = load_model(io.StringIO(sink.getvalue()))
    assert resaved.predict(X, len(X)).tobytes() == predicted.tobytes()  # same process: exact
    # the fixture was written on one machine; another BLAS kernel may sum in another order
    pinned = json.loads((FIXTURES / "golden_v2_predictions.json").read_text())
    assert np.allclose(predicted, pinned, rtol=0.0, atol=1e-12)


def packed(values) -> dict:
    arr = np.asarray(values, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode()}


@pytest.mark.parametrize("where, edit, path, reason", [
    ("layers", lambda W: {**W, "data": "not base64!"}, "$.layers[0].W.data", "not standard base64"),
    ("layers", lambda W: {**W, "data": W["data"] + "\n"}, "$.layers[0].W.data",
     "not standard base64"),
    ("layers", lambda W: {**W, "data": packed(np.zeros(W["shape"][0] * W["shape"][1] - 1))["data"]},
     "$.layers[0].W.data", "bytes, shape"),
    ("layers", lambda W: {**packed(np.zeros((W["shape"][0] - 1, W["shape"][1])))},
     "$.layers[0].W.shape", "feature_names and the hidden sizes give"),
    ("layers", lambda W: {**W, "shape": [float(n) for n in W["shape"]]}, "$.layers[0].W.shape",
     "feature_names and the hidden sizes give"),
    ("layers", lambda W: {**W, "data": packed(np.full(W["shape"], np.nan))["data"]},
     "$.layers[0].W.data", "non-finite values"),
    ("head", lambda w: packed([np.inf, 0.0]), "$.head.w.data", "non-finite values"),
    ("scaler", lambda mins: packed(np.zeros(11)), "$.scaler.mins.shape",
     "feature_names and the hidden sizes give"),
], ids=["bad-base64", "line-break", "byte-count", "shape", "float-shape", "nan-bytes", "inf-head",
        "scaler-width"])
def test_v2_reader_rejects_each_bad_array(tmp_path, where, edit, path, reason):
    doc = json.loads((FIXTURES / "golden_v2_model.json").read_text())
    if where == "layers":
        doc["layers"][0]["W"] = edit(doc["layers"][0]["W"])
    elif where == "head":
        doc["head"]["w"] = edit(doc["head"]["w"])
    else:
        doc["scaler"]["mins"] = edit(doc["scaler"]["mins"])
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(target)
    assert err.value.path == path
    assert reason in err.value.reason


@pytest.mark.parametrize("key, value, path", [
    ("feature_names", ["Close", "CMA", "SMA10"], "$.feature_names"),
    ("column_set", "sideways", "$.column_set"),
    ("train_config.hidden_sizes", [3], "$.layers"),
    ("train_config.hidden_sizes", [3, 3], "$.layers[1].W.shape"),
    ("train_config.hidden_sizes", [3.9, 2], "$.train_config.hidden_sizes"),
    ("indicator_config.sma_periods", [5, True], "$.indicator_config.sma_periods"),
    ("indicator_config.sma_periods", [5, 50], "$.feature_names"),
    ("contract.first_test_date", "2015-7-7", "$.contract"),
    ("contract.train_sha256", "85F7", "$.contract"),
    ("contract.split_row", 0, "$.contract"),
    ("contract.clip_scaled", 1, "$.contract.clip_scaled"),
    ("contract", None, "$.contract"),
])
def test_v2_reader_rejects_facts_that_disagree(tmp_path, key, value, path):
    doc = json.loads((FIXTURES / "golden_v2_model.json").read_text())
    *parents, leaf = key.split(".")
    section = doc
    for name in parents:
        section = section[name]
    section[leaf] = value
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(target)
    assert err.value.path == path


@pytest.mark.parametrize("key", ["macd_fast", "macd_signal"])
def test_load_rejects_macd_period_of_one(tmp_path, key):
    doc = json.loads((FIXTURES / "golden_v2_model.json").read_text())
    doc["indicator_config"][key] = 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$.indicator_config"
    assert err.value.reason == f"{key} must be >= 2"


@pytest.mark.parametrize("payload", [
    b'{"mode": "caf\xe9"}', b"[" * 100000,
    pytest.param(b'{"format_version": ' + b"1" * 5000 + b"}",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python parses integers of any length")),
], ids=["not-utf8", "deeply-nested", "past-the-int-digit-limit"])
def test_load_maps_unparseable_bytes_to_corrupt_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_bytes(payload)
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$"


def shuffled_keys(value, draw):
    """value with the keys of every object in it in a drawn order."""
    if isinstance(value, dict):
        return {key: shuffled_keys(value[key], draw) for key in draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [shuffled_keys(item, draw) for item in value]
    return value


def test_load_fuzzed_file_gives_model_or_typed_error(tmp_path):
    _, path = trained_pair(tmp_path)
    for original in ((FIXTURES / "golden_v2_model.json").read_bytes(), path.read_bytes()):
        fuzz_model_file(original, tmp_path / "fuzzed.json")


def fuzz_model_file(original: bytes, fuzzed: Path) -> None:
    """Truncated, bit-flipped and key-shuffled copies of a model file load as a model that
    predicts finite values or raise an LstmError; a shuffled copy loads as the original."""
    doc = json.loads(original)
    sink = io.StringIO()
    save_model(load_model(io.BytesIO(original)), sink)
    resaved = sink.getvalue().encode()
    assert resaved == original

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["truncate", "flip", "shuffle"]))
        if kind == "truncate":
            blob = original[: data.draw(st.integers(0, len(original) - 1))]
        elif kind == "flip":
            at = data.draw(st.integers(0, len(original) - 1))
            blob = bytearray(original)
            blob[at] ^= data.draw(st.integers(1, 255))
            blob = bytes(blob)
        else:
            blob = json.dumps(shuffled_keys(doc, data.draw)).encode()
        fuzzed.write_bytes(blob)
        try:
            model = load_model(fuzzed)
        except LstmError:
            assert kind != "shuffle"
            return
        assert isinstance(model, LstmModel)
        preds = model.predict(np.zeros((2, model.lookback, model.num_features)), 2)
        assert np.isfinite(preds).all()
        if kind == "shuffle":
            sink = io.StringIO()
            save_model(model, sink)
            assert sink.getvalue().encode() == resaved

    check()


def test_load_rejects_truncated(tmp_path):
    _, path = trained_pair(tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_load_rejects_future_version(tmp_path):
    _, path = trained_pair(tmp_path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_load_reports_missing_key_path(tmp_path):
    _, path = trained_pair(tmp_path)
    doc = json.loads(path.read_text())
    del doc["layers"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$.layers"
