import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcarbon import tensor as T
from roadcarbon.optim import Parameter, finite_difference_check
from roadcarbon.tensor import Tensor, backward, toposort


def param(values, name="p"):
    return Parameter(name, Tensor(values, requires_grad=True))


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.values, b.values)


def test_matmul_hand_computed():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert T.matmul(a, b).values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(1, 2\).*\(3, 1\)"):
        T.matmul(Tensor([[1.0, 2.0]]), Tensor(np.zeros((3, 1))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = param(rng.normal(size=(3, 4)), "a")
    b = param(rng.normal(size=(4, 2)), "b")
    err = finite_difference_check(lambda: T.matmul(a.tensor, b.tensor).sum(), [a, b])
    assert err < 1e-6


def test_hstack_basic_and_single():
    out = T.hstack([Tensor([[1.0]]), Tensor([[2.0]]), Tensor([[3.0]])])
    assert np.array_equal(out.values, [[1.0, 2.0, 3.0]])
    x = Tensor([[1.0, 2.0]])
    assert T.hstack([x]) is x


def test_hstack_row_mismatch():
    with pytest.raises(ValueError, match="row-count"):
        T.hstack([Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1)))])


def test_hstack_backward_slices_grads():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    backward(T.hstack([a, b]).sum())
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_vstack_backward_slices_grads():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    backward(T.vstack([a, b]).sum())
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((3, 2)))


def test_leaky_relu_values():
    out = T.leaky_relu(Tensor([-1.0, 0.0, 2.0]), 0.2)
    assert np.allclose(out.values.ravel(), [-0.2, 0.0, 2.0])


def test_tanh_odd():
    assert T.tanh(Tensor([0.0])).values[0, 0] == 0.0


def test_activation_gradients():
    rng = np.random.default_rng(1)
    x = param(rng.normal(size=(4, 3)), "x")
    for fn in (lambda t: T.leaky_relu(t, 0.2), T.tanh):
        err = finite_difference_check(lambda: fn(x.tensor).sum(), [x])
        assert err < 1e-6


def test_segment_softmax_symmetry():
    out = T.segment_softmax(Tensor([0.0, 0.0]), [0, 0], 1)
    assert np.allclose(out.values.ravel(), [0.5, 0.5])


def test_segment_softmax_analytic():
    out = T.segment_softmax(Tensor([np.log(2.0), 0.0]), [0, 0], 1)
    assert np.allclose(out.values.ravel(), [2.0 / 3.0, 1.0 / 3.0])


def test_segment_softmax_single_element_segment():
    out = T.segment_softmax(Tensor([123.0]), [0], 1)
    assert out.values[0, 0] == 1.0


def test_segment_softmax_empty_space_errors():
    with pytest.raises(ValueError, match="empty segment"):
        T.segment_softmax(Tensor([1.0]), [0], 0)


def test_segment_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    scores = Tensor(rng.normal(size=(40, 1)) * 10)
    seg = rng.integers(0, 7, size=40)
    seg[:7] = np.arange(7)  # every segment non-empty
    out = T.segment_softmax(scores, seg, 7)
    sums = np.bincount(seg, weights=out.values.ravel(), minlength=7)
    assert np.all(np.abs(sums - 1.0) < 1e-9)


def test_segment_softmax_gradient():
    rng = np.random.default_rng(3)
    x = param(rng.normal(size=(9, 1)), "x")
    seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    w = Tensor(rng.normal(size=(9, 1)))

    def f():
        return T.mul(T.segment_softmax(x.tensor, seg, 3), w).sum()

    assert finite_difference_check(f, [x]) < 1e-6


def test_segment_sum_basic():
    out = T.segment_sum(Tensor([[1.0], [2.0], [3.0]]), [0, 0, 1], 3)
    assert np.array_equal(out.values, [[3.0], [3.0], [0.0]])


def test_segment_sum_single_segment_is_column_sum():
    vals = np.arange(12.0).reshape(4, 3)
    out = T.segment_sum(Tensor(vals), [0, 0, 0, 0], 1)
    assert np.array_equal(out.values, vals.sum(axis=0, keepdims=True))


def test_segment_sum_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        T.segment_sum(Tensor([[1.0]]), [5], 2)


def test_segment_mean_matches_group_by_oracle():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(30, 5))
    seg = rng.integers(0, 6, size=30)
    sums = T.segment_sum(Tensor(vals), seg, 6).values
    counts = np.bincount(seg, minlength=6)
    got = sums / np.maximum(counts, 1)[:, None]
    expected = np.zeros((6, 5))
    for g in range(6):  # naive group-by mean
        members = vals[seg == g]
        if len(members):
            expected[g] = members.mean(axis=0)
    assert np.allclose(got, expected, atol=1e-12)


def test_segment_sum_gradient():
    rng = np.random.default_rng(5)
    x = param(rng.normal(size=(8, 3)), "x")
    seg = np.array([0, 1, 1, 2, 0, 2, 2, 1])
    w = Tensor(rng.normal(size=(3, 3)))

    def f():
        return T.mul(T.segment_sum(x.tensor, seg, 3), w).sum()

    assert finite_difference_check(f, [x]) < 1e-6


def test_segment_max_matches_group_by_oracle_and_grad():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(20, 4))
    seg = rng.integers(0, 5, size=20)
    seg[:5] = np.arange(5)
    out = T.segment_max(Tensor(vals), seg, 5)
    for g in range(5):
        assert np.allclose(out.values[g], vals[seg == g].max(axis=0))
    x = param(vals, "x")
    w = Tensor(rng.normal(size=(5, 4)))

    def f():
        return T.mul(T.segment_max(x.tensor, seg, 5), w).sum()

    assert finite_difference_check(f, [x]) < 1e-6


@st.composite
def segmented_rows(draw, width=None, min_rows=0, per_row=False):
    """(values, segment ids, n_segments, upstream grad) with empty segments
    and zero rows allowed; the upstream grad has one row per segment, or per
    input row if ``per_row``.  Values are small integers, so every summation
    order gives the same float and ties in a segment max are common.  Half
    the cases reach 4096 elements, where segment_sum switches from
    ``np.add.at`` to sort + ``reduceat``."""
    d = width or draw(st.integers(1, 8))
    if draw(st.booleans()):
        lo = -(-4096 // d)
        rows = draw(st.integers(lo, lo + 40))
    else:
        rows = draw(st.integers(min_rows, min(4095 // d, 60)))
    n_seg = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(-3, 4, size=(rows, d)).astype(float)
    seg = rng.integers(0, n_seg, size=rows)
    upstream = rng.integers(-3, 4, size=(rows if per_row else n_seg, d)).astype(float)
    return vals, seg, n_seg, upstream


def _value_and_grad(op, vals, seg, n_seg, upstream):
    x = Tensor(vals, requires_grad=True)
    out = op(x, seg, n_seg)
    backward(T.mul(out, Tensor(upstream)).sum())
    return out.values, x.grad


@settings(max_examples=60, deadline=None)
@given(case=segmented_rows())
def test_segment_sum_property_matches_per_segment_loop(case):
    vals, seg, n_seg, upstream = case
    got, grad = _value_and_grad(T.segment_sum, vals, seg, n_seg, upstream)
    want = np.zeros((n_seg, vals.shape[1]))
    want_grad = np.zeros_like(vals)
    for s in range(n_seg):
        members = seg == s
        want[s] = vals[members].sum(axis=0)
        want_grad[members] = upstream[s]
    assert np.array_equal(got, want)
    assert np.array_equal(grad, want_grad)


@settings(max_examples=60, deadline=None)
@given(case=segmented_rows())
def test_segment_max_property_matches_per_segment_loop(case):
    # the gradient goes to the first row attaining each (segment, column) max
    vals, seg, n_seg, upstream = case
    got, grad = _value_and_grad(T.segment_max, vals, seg, n_seg, upstream)
    want = np.zeros((n_seg, vals.shape[1]))
    want_grad = np.zeros_like(vals)
    for s in range(n_seg):
        members = np.flatnonzero(seg == s)
        if not members.size:
            continue
        for c in range(vals.shape[1]):
            first = members[np.argmax(vals[members, c])]
            want[s, c] = vals[first, c]
            want_grad[first, c] = upstream[s, c]
    assert np.array_equal(got, want)
    assert np.array_equal(grad, want_grad)


@settings(max_examples=60, deadline=None)
@given(case=segmented_rows(width=1, min_rows=1, per_row=True))
def test_segment_softmax_property_matches_per_segment_loop(case):
    vals, seg, n_seg, upstream = case
    vals = vals * 0.7  # non-integer scores
    got, grad = _value_and_grad(T.segment_softmax, vals, seg, n_seg, upstream)
    want = np.zeros_like(vals)
    want_grad = np.zeros_like(vals)
    for s in range(n_seg):
        members = np.flatnonzero(seg == s)
        if not members.size:
            continue
        x = vals[members, 0]
        y = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
        jacobian = np.diag(y) - np.outer(y, y)
        want[members, 0] = y
        want_grad[members, 0] = jacobian.T @ upstream[members, 0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-12)


def test_segment_softmax_zero_rows_errors():
    with pytest.raises(ValueError, match="no scores"):
        T.segment_softmax(Tensor(np.zeros((0, 1))), np.zeros(0, dtype=int), 3)


def test_gather_rows_forward_and_grad():
    x = param(np.arange(6.0).reshape(3, 2), "x")
    out = T.gather_rows(x.tensor, [2, 0, 2])
    assert np.array_equal(out.values, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    err = finite_difference_check(lambda: T.gather_rows(x.tensor, [2, 0, 2]).sum(), [x])
    assert err < 1e-6


def test_mse_loss_values():
    assert T.mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).values[0, 0] == 0.0
    assert T.mse_loss(Tensor([1.0, 1.0]), Tensor([0.0, 2.0])).values[0, 0] == 1.0


def test_mse_loss_empty_errors():
    with pytest.raises(ValueError, match="zero samples"):
        T.mse_loss(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 1))))


def test_mse_loss_gradient():
    rng = np.random.default_rng(7)
    p = param(rng.normal(size=(5, 1)), "p")
    t = Tensor(rng.normal(size=(5, 1)))
    err = finite_difference_check(lambda: T.mse_loss(p.tensor, t), [p], h=1e-6)
    assert err < 1e-8


def test_backward_linear():
    x = Tensor([[3.0]], requires_grad=True)
    backward(x * 2.0)
    assert x.grad[0, 0] == 2.0


def test_backward_accumulates_without_zeroing():
    x = Tensor([[3.0]], requires_grad=True)
    backward(x * 2.0)
    backward(x * 2.0)
    assert x.grad[0, 0] == 4.0


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x * 1.0)


def test_backward_visits_each_node_once():
    x = Tensor([[1.0]], requires_grad=True)
    y = x * 2.0
    z = T.add(y, y)  # diamond: y reachable via two paths
    w = T.mul(z, z)
    order = toposort(w)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    backward(w)
    # d/dx of (2x + 2x)^2 = 2*(4x)*4 = 32x
    assert np.isclose(x.grad[0, 0], 32.0)


def test_no_grad_disables_recording():
    x = Tensor([[1.0]], requires_grad=True)
    with T.no_grad():
        y = x * 3.0
    assert not y.requires_grad
    assert y._backward_fn is None


def test_detach_breaks_graph():
    x = Tensor([[2.0]], requires_grad=True)
    y = (x * 3.0).detach()
    z = y * 5.0
    assert not z.requires_grad


def test_add_and_mul_broadcast_gradients():
    rng = np.random.default_rng(8)
    a = param(rng.normal(size=(4, 3)), "a")
    row = param(rng.normal(size=(1, 3)), "row")
    scalar = param(rng.normal(size=(1, 1)), "s")
    col = param(rng.normal(size=(4, 1)), "col")
    cases = [
        (lambda: T.add(a.tensor, row.tensor).sum(), [a, row]),
        (lambda: T.add(a.tensor, scalar.tensor).sum(), [a, scalar]),
        (lambda: T.mul(a.tensor, col.tensor).sum(), [a, col]),
        (lambda: T.mul(T.tanh(a.tensor), T.tanh(a.tensor)).sum(), [a]),
    ]
    for f, ps in cases:
        assert finite_difference_check(f, ps) < 1e-6
