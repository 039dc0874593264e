"""LSTM internals: PRNG, cell math, gradients, training, serialization."""

import io
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.dataset import WindowedDataset
from stockcast.jsonio import dump_json
from stockcast.lstm import (
    CacheMismatch,
    CorruptModel,
    EmptyDataset,
    LstmError,
    LstmLayerParams,
    LstmModel,
    LstmState,
    NonFiniteInput,
    NonFiniteLoss,
    ShapeMismatch,
    SplitMix64,
    TrainConfig,
    UnsupportedVersion,
    Adam,
    backward,
    cell_forward,
    clip_gradient_norm,
    forward,
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
    return new_model(mode, names, lookback, scaler, cfg, cell_variant=variant,
                     column_set=column_set)


def windows_dataset(inputs, targets, lookback, names=("Close",)):
    day = date(2020, 1, 6)
    dates = tuple(day + timedelta(days=i) for i in range(len(targets)))
    return WindowedDataset(
        inputs=np.asarray(inputs, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.float64),
        dates=dates,
        lookback=lookback,
        feature_names=tuple(names),
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

    blocks = {"f": 0, "i": 1, "o": 2, "g": 3}  # packed column blocks
    for name in WEIGHT_FIELDS + ("b_f", "b_i", "b_g", "b_o"):
        view = gate_view(layer, name)
        packed = layer.b if name.startswith("b_") else layer.W_x if name.endswith("x") else layer.W_h
        expect = packed.copy()
        row = view.shape[0] - 2
        column = blocks[name[2]] * 9 + row
        if view.ndim == 2:
            expect[view.shape[1] - 1, column] = 42.0
            view[row, -1] = 42.0
        else:
            expect[column] = 42.0
            view[row] = 42.0
        assert np.array_equal(packed, expect), name


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

def test_cell_zero_weights_standard():
    layer = LstmLayerParams.zeros(2, 3)
    gate_view(layer, "b_f")[:] = 0.0
    state, cache = cell_forward(layer, np.ones((1, 2)), LstmState(np.zeros((1, 3)), np.zeros((1, 3))))
    assert np.allclose(cache["f"], 0.5) and np.allclose(cache["i"], 0.5)
    assert np.allclose(cache["o"], 0.5) and np.allclose(cache["g"], 0.0)
    assert np.allclose(state.c, 0.0) and np.allclose(state.h, 0.0)


def test_cell_zero_weights_as_printed():
    layer = LstmLayerParams.zeros(2, 3)
    gate_view(layer, "b_f")[:] = 0.0
    state, _ = cell_forward(
        layer, np.ones((1, 2)), LstmState(np.zeros((1, 3)), np.zeros((1, 3))), "as_printed"
    )
    assert np.allclose(state.c, 0.5)
    assert np.allclose(state.h, 0.5 * math.tanh(0.5))


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
    x, h_prev, c_prev = 0.3, 0.2, -0.1

    f = sigmoid(0.4 * x + 0.2 * h_prev + 1.0)
    i = sigmoid(-0.3 * x + -0.5 * h_prev + 0.05)
    g = math.tanh(0.8 * x + 0.6 * h_prev + -0.1)
    o = sigmoid(0.1 * x + -0.7 * h_prev + 0.2)

    prev = LstmState(np.array([[h_prev]]), np.array([[c_prev]]))
    state, cache = cell_forward(layer, np.array([[x]]), prev, "standard")
    c = f * c_prev + i * g
    assert state.c[0, 0] == pytest.approx(c, abs=1e-15)
    assert state.h[0, 0] == pytest.approx(o * math.tanh(c), abs=1e-15)
    assert cache["f"][0, 0] == pytest.approx(f, abs=1e-15)

    state2, _ = cell_forward(layer, np.array([[x]]), prev, "as_printed")
    c2 = f * c_prev + (i + g)
    assert state2.c[0, 0] == pytest.approx(c2, abs=1e-15)
    assert state2.h[0, 0] == pytest.approx(o * math.tanh(c2), abs=1e-15)


def test_cell_rejects_bad_shapes_and_variant():
    layer = LstmLayerParams.zeros(2, 3)
    good = LstmState(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ShapeMismatch):
        cell_forward(layer, np.ones((1, 5)), good)
    with pytest.raises(ShapeMismatch):
        cell_forward(layer, np.ones((1, 2)), LstmState(np.zeros((1, 2)), np.zeros((1, 2))))
    with pytest.raises(ValueError):
        cell_forward(layer, np.ones((1, 2)), good, "fancy")


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
def test_cell_matches_per_gate_equations(variant):
    layer = init_weights(3, 5, seed=9)
    for name, value in (("b_i", 0.1), ("b_g", -0.2), ("b_o", 0.3)):
        gate_view(layer, name)[:] = value
    rng = np.random.default_rng(3)
    x, h, c = rng.normal(size=(4, 3)), rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    state, cache = cell_forward(layer, x, LstmState(h, c), variant)

    def pre(q):  # the unpacked per-gate pre-activation, as a reference
        w_x, w_h, b = (gate_view(layer, name) for name in (f"w_{q}x", f"w_{q}h", f"b_{q}"))
        return x @ w_x.T + h @ w_h.T + b

    f, i, o = (1.0 / (1.0 + np.exp(-pre(q))) for q in "fio")
    g = np.tanh(pre("g"))
    c_new = f * c + (i * g if variant == "standard" else i + g)
    tol = 8 * np.finfo(np.float64).eps
    for got, want in ((cache["f"], f), (cache["i"], i), (cache["o"], o), (cache["g"], g),
                      (state.c, c_new), (state.h, o * np.tanh(c_new))):
        assert np.allclose(got, want, rtol=tol, atol=tol)


def test_cell_keeps_unbatched_shapes():
    layer = init_weights(2, 3, seed=5)
    x, h, c = np.array([0.3, -0.2]), np.array([0.1, 0.0, -0.4]), np.array([0.2, -0.1, 0.5])
    state, cache = cell_forward(layer, x, LstmState(h, c))
    batched, batched_cache = cell_forward(layer, x[None], LstmState(h[None], c[None]))
    assert state.h.shape == state.c.shape == (3,) and cache["x"].shape == (2,)
    assert np.array_equal(state.h, batched.h[0]) and np.array_equal(state.c, batched.c[0])
    for name in ("f", "i", "g", "o", "tc"):
        assert cache[name].shape == (3,)
        assert np.array_equal(cache[name], batched_cache[name][0])


# ------------------------------------------------------------------- forward

def test_forward_zero_weights_returns_head_bias():
    model = tiny_model(lookback=4, hidden=(3,))
    for layer in model.layers:
        for arr in (layer.W_x, layer.W_h, layer.b):
            arr[:] = 0.0
    model.head_w[:] = 0.0
    model.head_b[0] = 0.7
    value, _ = forward(model, np.random.default_rng(0).normal(size=(4, 1)))
    assert value == pytest.approx(0.7, abs=1e-15)


def test_forward_guards():
    model = tiny_model(lookback=4)
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros((5, 1)))
    bad = np.zeros((4, 1))
    bad[2, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        forward(model, bad)
    with pytest.raises(ShapeMismatch):
        forward_batch(model, np.zeros((4, 1)))


def test_predict_batch_matches_predict():
    model = tiny_model(num_features=2, lookback=6, hidden=(5, 3), mode="multivariate")
    X = np.random.default_rng(3).normal(size=(9, 6, 2))
    batch = model.predict_batch(X)
    single = np.array([model.predict(w) for w in X])
    # batched and one-row matmuls may take different BLAS paths; only
    # repeat calls at the same shape are bit-identical
    assert np.allclose(batch, single, rtol=0.0, atol=1e-12)
    assert np.array_equal(model.predict_batch(X), batch)


def test_hidden_unit_permutation_symmetry():
    model = tiny_model(lookback=7, hidden=(6,), seed=9)
    X = np.random.default_rng(1).normal(size=(4, 7, 1))
    base = model.predict_batch(X)

    perm = np.array([3, 0, 5, 1, 4, 2])
    layer = model.layers[0]
    for name in ("w_fx", "w_ix", "w_gx", "w_ox", "b_f", "b_i", "b_g", "b_o"):
        gate_view(layer, name)[:] = gate_view(layer, name)[perm]
    for name in ("w_fh", "w_ih", "w_gh", "w_oh"):
        gate_view(layer, name)[:] = gate_view(layer, name)[perm][:, perm]
    model.head_w[:] = model.head_w[perm]

    assert np.allclose(model.predict_batch(X), base, rtol=0.0, atol=1e-12)


def test_gate_ranges_on_random_model():
    model = tiny_model(num_features=3, lookback=8, hidden=(5,), seed=2, mode="multivariate")
    X = np.random.default_rng(8).normal(size=(6, 8, 3))
    _, caches = forward_batch(model, X)
    for step in caches["layers"][0]:
        for gate in ("f", "i", "o"):
            assert (step[gate] > 0.0).all() and (step[gate] < 1.0).all()
        assert (np.abs(step["g"]) <= 1.0).all()
        assert (np.abs(step["tc"]) <= 1.0).all()


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
def test_forward_batch_matches_cell_forward_chain(variant):
    model = tiny_model(num_features=3, lookback=6, hidden=(5, 4), seed=4, variant=variant,
                       mode="multivariate")
    X = np.random.default_rng(12).normal(size=(7, 6, 3))
    preds, caches = forward_batch(model, X)
    inputs = [X[:, t, :] for t in range(6)]
    for layer, steps in zip(model.layers, caches["layers"]):
        state = LstmState(np.zeros((7, layer.hidden_size)), np.zeros((7, layer.hidden_size)))
        for t, step in enumerate(steps):
            state, cache = cell_forward(layer, inputs[t], state, variant)
            inputs[t] = state.h
            # forward_batch keeps its caches as (width, batch) columns
            for name in ("f", "i", "g", "o", "tc"):
                assert np.array_equal(step[name], cache[name].T), (t, name)
    assert np.array_equal(preds, state.h @ model.head_w + model.head_b[0])


# ------------------------------------------------------------------ gradients

def loss_and_grads(model, X, d_pred):
    preds, caches = forward_batch(model, X)
    return float(np.dot(d_pred, preds)), backward(model, caches, d_pred)


@pytest.mark.parametrize("variant", ["standard", "as_printed"])
def test_gradients_match_finite_differences(variant):
    model = tiny_model(num_features=2, lookback=4, hidden=(3, 2), seed=11,
                       variant=variant, mode="multivariate")
    rng = np.random.default_rng(17)
    X = rng.normal(scale=0.8, size=(3, 4, 2))
    d_pred = rng.normal(size=3)
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
    return windows_dataset(inputs, targets, lookback)


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
    err = np.abs(trained.predict_batch(probe) - probe[:, -1, 0])
    assert float(err.mean()) < 0.25


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
    empty = windows_dataset(np.zeros((0, 8, 1)), np.zeros(0), 8)
    with pytest.raises(EmptyDataset):
        train(tiny_model(lookback=8, hidden=(3,), seed=1), empty, cfg)
    small = memorization_data(n=5)
    with pytest.raises(EmptyDataset):
        train(tiny_model(lookback=8, hidden=(3,), seed=1), small, cfg)


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
    assert np.array_equal(loaded.predict_batch(X), trained.predict_batch(X))
    assert loaded.feature_names == trained.feature_names
    assert loaded.train_config == trained.train_config
    assert loaded.cell_variant == trained.cell_variant
    assert np.array_equal(loaded.scaler.mins, trained.scaler.mins)

    sink = io.StringIO()
    save_model(loaded, sink)
    assert sink.getvalue() == path.read_text()


def test_dump_json_float_arrays_match_generic_path():
    rng = np.random.default_rng(5)
    arrays = (
        rng.normal(size=9) * 1e5,
        rng.normal(size=(3, 4)),
        np.array([-0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1]),
        np.zeros((2, 0)),
    )
    for arr in arrays:
        assert dump_json({"a": arr}) == dump_json({"a": arr.tolist()})
    for bad in (np.nan, np.inf, -np.inf):
        for arr in (np.ones(4), np.ones((2, 3))):
            arr.flat[-1] = bad
            with pytest.raises(ValueError):
                dump_json(arr)


def test_save_refuses_non_finite(tmp_path):
    trained, _ = trained_pair(tmp_path)
    trained.head_w[0] = np.inf
    with pytest.raises(ValueError):
        save_model(trained, tmp_path / "bad.json")


def test_golden_v1_model_resaves_and_predicts():
    # written by the per-gate implementation that preceded packed storage
    path = FIXTURES / "golden_v1_model.json"
    model = load_model(path)
    assert model.hidden_sizes == (4, 3) and model.num_features == 3
    sink = io.StringIO()
    save_model(model, sink)
    assert sink.getvalue() == path.read_text()
    X = np.random.default_rng(20241).uniform(-1.0, 1.0, size=(32, 5, 3))
    pinned = json.loads((FIXTURES / "golden_v1_predictions.json").read_text())
    assert np.allclose(model.predict_batch(X), pinned, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("payload", [b'{"mode": "caf\xe9"}', b"[" * 100000],
                         ids=["not-utf8", "deeply-nested"])
def test_load_maps_unparseable_bytes_to_corrupt_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_bytes(payload)
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$"


def test_load_fuzzed_file_gives_model_or_typed_error(tmp_path):
    _, path = trained_pair(tmp_path)
    original = path.read_bytes()
    doc = json.loads(original)
    fuzzed = tmp_path / "fuzzed.json"

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
            order = data.draw(st.permutations(list(doc)))
            layer_order = data.draw(st.permutations(list(doc["layers"][0])))
            shuffled = {key: doc[key] for key in order}
            shuffled["layers"] = [{key: layer[key] for key in layer_order} for layer in doc["layers"]]
            blob = json.dumps(shuffled).encode()
        fuzzed.write_bytes(blob)
        try:
            model = load_model(fuzzed)
        except LstmError:
            assert kind != "shuffle"
            return
        assert isinstance(model, LstmModel)
        preds = model.predict_batch(np.zeros((2, model.lookback, model.num_features)))
        assert np.isfinite(preds).all()
        if kind == "shuffle":
            sink = io.StringIO()
            save_model(model, sink)
            assert sink.getvalue().encode() == original

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
    doc["format_version"] = 2
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


def test_load_rejects_bad_shape_and_nan(tmp_path):
    _, path = trained_pair(tmp_path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["b_f"] = [1.0, 2.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$.layers[0].b_f"

    doc = json.loads(path.read_text().replace('"b_f": [1.0, 2.0]', '"b_f": [1.0, NaN, 0.5, 0.2, 0.1]'))
    doc["layers"][0]["b_f"] = [1.0, float("nan"), 0.5, 0.2, 0.1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)

    doc["layers"][0]["b_f"] = [1.0, 10**400, 0.5, 0.2, 0.1]  # an integer no float64 holds
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$.layers[0].b_f"

    doc["layers"][0]["b_f"] = [1.0, 0.0, 0.5, 0.2, 0.1]
    for bad in (float("inf"), 10**400):
        doc["head"]["b"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel) as err:
            load_model(path)
        assert err.value.path == "$.head.b"


def test_load_rejects_scaler_feature_mismatch(tmp_path):
    _, path = trained_pair(tmp_path)
    doc = json.loads(path.read_text())
    doc["scaler"]["column_names"] = ["Adj"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel) as err:
        load_model(path)
    assert err.value.path == "$.scaler.column_names"
