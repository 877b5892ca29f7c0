import numpy as np
import pytest
from reference_impl import entry_sum

from roadcarbon.optim import Adam, Parameter, finite_difference_check, xavier_uniform, zeros
from roadcarbon.tensor import Tensor, add, backward, matmul, mse_loss


def test_adam_first_step_moves_by_lr():
    p = Parameter("p", Tensor([[0.0]], requires_grad=True))
    p.tensor.grad = np.array([[1.0]])
    opt = Adam([p], lr=0.1)
    opt.step()
    # bias-corrected first step is -lr * g/|g| up to eps
    assert abs(p.values[0, 0] + 0.1) < 1e-8


def test_adam_zero_grad_leaves_params_unchanged():
    p = Parameter("p", Tensor([[1.0, -2.0]], requires_grad=True))
    p.tensor.grad = np.zeros((1, 2))
    before = p.values.copy()
    Adam([p], lr=0.5).step()
    assert np.array_equal(p.values, before)


def test_adam_missing_grad_names_parameter():
    p = Parameter("layer.W", Tensor([[0.0]], requires_grad=True))
    with pytest.raises(ValueError, match="layer.W"):
        Adam([p]).step()


def test_adam_converges_on_quadratic():
    p = Parameter("p", Tensor([[1.0]], requires_grad=True))
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        loss = mse_loss(p.tensor, Tensor([[0.0]]))
        backward(loss)
        opt.step()
    assert abs(p.values[0, 0]) < 1e-3


def test_adam_deterministic_update():
    def run():
        p = Parameter("p", Tensor([[0.3, -0.7]], requires_grad=True))
        p.tensor.grad = np.array([[0.11, -0.23]])
        opt = Adam([p], lr=0.01)
        opt.step()
        p.tensor.grad = np.array([[0.05, 0.4]])
        opt.step()
        return p.values.copy()

    assert np.array_equal(run(), run())


def test_adam_state_counts_steps_and_matches_shapes():
    p = Parameter("p", Tensor(np.zeros((2, 3)), requires_grad=True))
    opt = Adam([p])
    assert opt.t == 0
    p.tensor.grad = np.ones((2, 3))
    opt.step()
    opt.step()
    assert opt.t == 2
    assert opt.m["p"].shape == (2, 3)
    assert opt.v["p"].shape == (2, 3)


def test_duplicate_parameter_names_rejected():
    a = Parameter("p", Tensor([[0.0]], requires_grad=True))
    b = Parameter("p", Tensor([[0.0]], requires_grad=True))
    with pytest.raises(ValueError, match="duplicate"):
        Adam([a, b])


def test_fd_check_linear_function_is_exact():
    rng = np.random.default_rng(0)
    p = Parameter("p", Tensor(rng.normal(size=(3, 2)), requires_grad=True))
    err = finite_difference_check(lambda: entry_sum(p.tensor), [p])
    assert err < 1e-9


def test_fd_check_detects_corrupted_gradient():
    rng = np.random.default_rng(1)
    p = Parameter("p", Tensor(rng.normal(size=(2, 2)), requires_grad=True))

    origin = Tensor(np.zeros((2, 2)))

    def f():
        return mse_loss(p.tensor, origin)

    true_err = finite_difference_check(f, [p])
    assert true_err < 1e-6

    def f_corrupted():
        # the same value, but only 0.9 of it reaches the analytic gradient
        out = f()
        return add(matmul(out, Tensor([[0.9]])), Tensor(out.values * 0.1))

    err = finite_difference_check(f_corrupted, [p])
    assert err >= 0.05


def test_xavier_and_zeros_init():
    rng = np.random.default_rng(2)
    w = xavier_uniform("w", (10, 20), rng)
    limit = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(w.values) <= limit)
    assert w.tensor.requires_grad
    b = zeros("b", (1, 4))
    assert np.array_equal(b.values, np.zeros((1, 4)))
