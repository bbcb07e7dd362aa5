import numpy as np
import pytest

from skipdiff import autodiff as ad
from skipdiff import nn
from skipdiff.autodiff import Tensor
from skipdiff.errors import OracleInvalidError, ParameterError
from skipdiff.gradcheck import finite_diff_check
from skipdiff.rng import RngStream


def test_square_at_three():
    err = finite_diff_check(lambda p: p["x"] * p["x"], {"x": np.array(3.0)}, eps=1e-4)
    assert err < 1e-6


def test_constant_function_zero_error():
    err = finite_diff_check(lambda p: ad.sum_(p["x"] * 0.0) + 1.0,
                            {"x": np.array([2.0, -1.0])})
    assert err == 0.0


def test_two_layer_network_mse():
    rng = RngStream(2024)
    params = {
        "w1": rng.normal((4, 8)) * 0.5,
        "b1": rng.normal((8,)) * 0.1,
        "w2": rng.normal((8, 3)) * 0.5,
        "b2": rng.normal((3,)) * 0.1,
    }
    x = rng.normal((5, 4))
    target = rng.normal((5, 3))

    def f(p):
        h = ad.tanh(ad.linear(Tensor(x), p["w1"], p["b1"]))
        out = ad.linear(h, p["w2"], p["b2"])
        return ad.masked_mse(out, Tensor(target), np.ones_like(target))

    assert finite_diff_check(f, params) < 1e-4


def test_eps_validated():
    with pytest.raises(ParameterError):
        finite_diff_check(lambda p: p["x"], {"x": np.array(1.0)}, eps=0.5)
    with pytest.raises(ParameterError):
        finite_diff_check(lambda p: p["x"], {"x": np.array(1.0)}, eps=0.0)


def test_nondeterministic_f_rejected():
    state = {"calls": 0}

    def f(p):
        state["calls"] += 1
        return p["x"] * float(state["calls"])

    with pytest.raises(OracleInvalidError):
        finite_diff_check(f, {"x": np.array(1.0)})


# Every published primitive and composite passes the oracle on random
# small inputs.

def _rand(rng, shape, scale=0.8):
    return rng.normal(shape) * scale


PRIMITIVE_CASES = {
    "add": lambda p: ad.sum_(p["a"] + p["b"]),
    "add_broadcast": lambda p: ad.sum_((p["a"] + p["row"]) * 1.5),
    "sub": lambda p: ad.sum_(p["a"] - p["b"]),
    "mul": lambda p: ad.sum_(p["a"] * p["b"]),
    "div": lambda p: ad.sum_(p["a"] / (p["b"] * p["b"] + 1.5)),
    "matmul": lambda p: ad.sum_(ad.matmul(p["m1"], p["m2"])),
    "exp": lambda p: ad.sum_(ad.exp(p["a"])),
    "log": lambda p: ad.sum_(ad.log(p["a"] * p["a"] + 0.5)),
    "sqrt": lambda p: ad.sum_(ad.sqrt(p["a"] * p["a"] + 0.3)),
    "pow": lambda p: ad.sum_((p["a"] * p["a"] + 1.0) ** 2.5),
    "tanh": lambda p: ad.sum_(ad.tanh(p["a"])),
    "sigmoid": lambda p: ad.sum_(ad.sigmoid(p["a"]) * p["b"]),
    "softplus": lambda p: ad.sum_(ad.softplus(p["a"]) * p["b"]),
    "softmax": lambda p: ad.sum_(ad.softmax(p["a"], axis=1) * p["b"]),
    "mean": lambda p: ad.mean(p["a"]) + ad.sum_(ad.mean(p["a"], axis=0)),
    "concat": lambda p: ad.sum_(ad.concat([p["a"], p["b"]], axis=1) ** 2.0),
    "slice": lambda p: ad.sum_(p["a"][1:3, ::2] * 2.0),
    "reshape_transpose": lambda p: ad.sum_(ad.transpose(ad.reshape(p["flat12"], (2, 2, 3)), (1, 0, 2)) * p["c223"]),
    "gather": lambda p: ad.sum_(ad.gather_rows(p["table"], np.array([[0, 2], [1, 1]])) ** 2.0),
    "select_last": lambda p: ad.sum_(ad.select_last(p["a"], np.array([0, 3, 1, 2])) * 3.0),
    "where": lambda p: ad.sum_(ad.where_mask(np.array([[True, False, True, False]] * 4), p["a"], p["b"]) * p["b"]),
    "layer_norm": lambda p: ad.sum_(ad.layer_norm_op(p["a"], p["gain"], p["bias"]) * p["b"]),
    "gelu": lambda p: ad.sum_(nn.gelu(p["a"])),
    "attention": lambda p: ad.sum_(ad.attention(p["q"], p["k"], p["v"], 2) * p["q"]),
    "mse": lambda p: ad.masked_mse(p["a"], p["b"], np.array([[1.0, 0.0, 1.0, 1.0]] * 4)),
    "cross_entropy": lambda p: nn.masked_cross_entropy(
        p["a"], np.array([1, 0, 3, 2]), np.array([1.0, 1.0, 0.0, 1.0])),
    "lstm_step": lambda p: ad.sum_(
        nn.lstm_step(p["x2"], p["h2"], p["c2"], p["wx"], p["wh"], p["bg"], 3)[0]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    rng = RngStream(hash(name) & 0xFFFF)
    params = {
        "a": _rand(rng, (4, 4)),
        "b": _rand(rng, (4, 4)),
        "row": _rand(rng, (1, 4)),
        "m1": _rand(rng, (3, 5)),
        "m2": _rand(rng, (5, 2)),
        "c223": _rand(rng, (2, 2, 3)),
        "flat12": _rand(rng, (12,)),
        "table": _rand(rng, (4, 3)),
        "gain": 1.0 + 0.1 * _rand(rng, (4,)),
        "bias": 0.1 * _rand(rng, (4,)),
        "q": _rand(rng, (2, 3, 4)),
        "k": _rand(rng, (2, 3, 4)),
        "v": _rand(rng, (2, 3, 4)),
        "x2": _rand(rng, (2, 5)),
        "h2": _rand(rng, (2, 3)),
        "c2": _rand(rng, (2, 3)),
        "wx": _rand(rng, (5, 12)),
        "wh": _rand(rng, (3, 12)),
        "bg": 0.1 * _rand(rng, (12,)),
    }
    assert finite_diff_check(PRIMITIVE_CASES[name], params) < 1e-4


# Each fused node on its own, in every form the program uses.

@pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_linear_gradients(lead, bias):
    rng = RngStream(31)
    params = {"x": _rand(rng, lead + (3, 4)), "w": _rand(rng, (4, 5))}
    if bias:
        params["b"] = _rand(rng, (5,))
    probe = rng.normal(lead + (3, 5))

    def f(p):
        return ad.sum_(ad.linear(p["x"], p["w"], p.get("b")) * probe)

    assert finite_diff_check(f, params) < 1e-4


@pytest.mark.parametrize("heads,start", [(1, 0), (2, 0), (4, 0), (2, 3)])
def test_attention_gradients(heads, start):
    # start > 0: queries only for the positions from start on, as the
    # sampler's last block runs
    rng = RngStream(37 + heads + start)
    params = {"x": _rand(rng, (2, 5, 8)), "wq": _rand(rng, (8, 8)),
              "wk": _rand(rng, (8, 8)), "wv": _rand(rng, (8, 8))}
    probe = rng.normal((2, 5 - start, 8))

    def f(p):
        q = ad.matmul(p["x"][:, start:] if start else p["x"], p["wq"])
        k, v = ad.matmul(p["x"], p["wk"]), ad.matmul(p["x"], p["wv"])
        return ad.sum_(ad.attention(q, k, v, heads) * probe)

    assert finite_diff_check(f, params) < 1e-4


@pytest.mark.parametrize("target", ["tensor", "zero"])
def test_masked_mse_gradients(target):
    rng = RngStream(41)
    params = {"pred": _rand(rng, (2, 3, 4)), "target": _rand(rng, (2, 3, 4))}
    weights = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[..., None]

    def f(p):
        goal = p["target"] if target == "tensor" else ad.const(0.0)
        return ad.masked_mse(p["pred"] * 1.5, goal, weights) * 0.7

    if target == "zero":
        del params["target"]
    assert finite_diff_check(f, params) < 1e-4
