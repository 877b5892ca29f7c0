import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import entry_sum, gather, in_order

from roadcarbon import tensor as T
from roadcarbon.optim import Parameter, finite_difference_check
from roadcarbon.tensor import Tensor, backward, toposort


def param(values, name="p"):
    return Parameter(name, Tensor(values, requires_grad=True))


def mse_with_upstream(out, target):
    """``mse_loss(out, target)``, both padded with one zero row and column so
    that outputs without rows or columns still give a loss, and the exact
    gradient that loss sends back to ``out``."""
    n, d = out.shape
    padded = T.vstack([T.hstack([out, Tensor(np.zeros((n, 1)))]), Tensor(np.zeros((1, d + 1)))])
    loss = T.mse_loss(padded, Tensor(np.pad(target, ((0, 1), (0, 1)))))
    return loss, 2.0 / ((n + 1) * (d + 1)) * (out.values - target)


def segment_sum(x, seg, n_seg):
    """Rows of ``x`` summed by segment id, as the engine forms it: ``attend``
    with one unit-weight arc per row."""
    return T.attend(x, Tensor(np.ones((len(seg), 1))), in_order(seg, n_seg))


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
    err = finite_difference_check(lambda: entry_sum(T.matmul(a.tensor, b.tensor)), [a, b])
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
    loss, upstream = mse_with_upstream(T.hstack([a, b]), np.arange(10.0).reshape(2, 5))
    backward(loss)
    assert np.array_equal(a.grad, upstream[:, :2])
    assert np.array_equal(b.grad, upstream[:, 2:])


def test_vstack_backward_slices_grads():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    loss, upstream = mse_with_upstream(T.vstack([a, b]), np.arange(10.0).reshape(5, 2))
    backward(loss)
    assert np.array_equal(a.grad, upstream[:2])
    assert np.array_equal(b.grad, upstream[2:])


def test_leaky_relu_values():
    out = T.leaky_relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.allclose(out.values.ravel(), [-0.2, 0.0, 2.0])


def test_tanh_odd():
    assert T.tanh(Tensor([0.0])).values[0, 0] == 0.0


def test_activation_gradients():
    rng = np.random.default_rng(1)
    x = param(rng.normal(size=(4, 3)), "x")
    for fn in (T.leaky_relu, T.tanh):
        err = finite_difference_check(lambda: entry_sum(fn(x.tensor)), [x])
        assert err < 1e-6


def test_segment_softmax_symmetry():
    out = T.segment_softmax(Tensor([0.0, 0.0]), in_order([0, 0], 1))
    assert np.allclose(out.values.ravel(), [0.5, 0.5])


def test_segment_softmax_analytic():
    out = T.segment_softmax(Tensor([np.log(2.0), 0.0]), in_order([0, 0], 1))
    assert np.allclose(out.values.ravel(), [2.0 / 3.0, 1.0 / 3.0])


def test_segment_softmax_single_element_segment():
    out = T.segment_softmax(Tensor([123.0]), in_order([0], 1))
    assert out.values[0, 0] == 1.0


def test_segment_softmax_empty_space_errors():
    with pytest.raises(ValueError, match="empty segment"):
        T.segment_softmax(Tensor(np.zeros((0, 1))), in_order([], 0))


def test_segment_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    scores = Tensor(rng.normal(size=(40, 1)) * 10)
    seg = rng.integers(0, 7, size=40)
    seg[:7] = np.arange(7)  # every segment non-empty
    out = T.segment_softmax(scores, in_order(seg, 7))
    sums = np.bincount(seg, weights=out.values.ravel(), minlength=7)
    assert np.all(np.abs(sums - 1.0) < 1e-9)


def test_segment_softmax_gradient():
    rng = np.random.default_rng(3)
    x = param(rng.normal(size=(9, 1)), "x")
    seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    target = Tensor(rng.normal(size=(9, 1)))

    def f():
        return T.mse_loss(T.segment_softmax(x.tensor, in_order(seg, 3)), target)

    assert finite_difference_check(f, [x]) < 1e-6


def test_segment_sum_basic():
    out = segment_sum(Tensor([[1.0], [2.0], [3.0]]), [0, 0, 1], 3)
    assert np.array_equal(out.values, [[3.0], [3.0], [0.0]])
    # zero rows still sum to float64 zeros (np.bincount alone gives int64)
    empty = T._segment_sum_np(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3)
    assert empty.dtype == np.float64 and np.array_equal(empty, np.zeros((3, 2)))


def test_segment_sum_single_segment_is_column_sum():
    vals = np.arange(12.0).reshape(4, 3)
    out = segment_sum(Tensor(vals), [0, 0, 0, 0], 1)
    assert np.array_equal(out.values, vals.sum(axis=0, keepdims=True))


def test_segment_sum_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        segment_sum(Tensor([[1.0]]), [5], 2)


def test_segment_mean_matches_group_by_oracle():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(30, 5))
    seg = rng.integers(0, 6, size=30)
    sums = segment_sum(Tensor(vals), seg, 6).values
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
    target = Tensor(rng.normal(size=(3, 3)))

    def f():
        return T.mse_loss(segment_sum(x.tensor, seg, 3), target)

    assert finite_difference_check(f, [x]) < 1e-6


def test_segment_max_matches_group_by_oracle_and_grad():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(20, 4))
    seg = rng.integers(0, 5, size=20)
    seg[:5] = np.arange(5)
    out = T.segment_max(Tensor(vals), in_order(seg, 5))
    for g in range(5):
        assert np.allclose(out.values[g], vals[seg == g].max(axis=0))
    x = param(vals, "x")
    target = Tensor(rng.normal(size=(5, 4)))

    def f():
        return T.mse_loss(T.segment_max(x.tensor, in_order(seg, 5)), target)

    assert finite_difference_check(f, [x]) < 1e-6


@st.composite
def segmented_rows(draw, width=None, min_rows=0, per_row=False, specials=False):
    """(values, segment ids, n_segments, loss target) with empty segments,
    zero rows and (unless ``width`` is given) zero columns allowed; the
    target has one row per segment, or per input row if ``per_row``.
    Values are multiples of 1/7, so summation order changes the last bits
    while ties in a segment max stay common; ``specials`` sprinkles NaN and
    -inf entries.  Half the cases reach 4096 elements."""
    d = draw(st.integers(0, 8)) if width is None else width
    if d and draw(st.booleans()):
        lo = -(-4096 // d)
        rows = draw(st.integers(lo, lo + 40))
    else:
        rows = draw(st.integers(min_rows, min(4095 // max(d, 1), 60)))
    n_seg = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(-3, 4, size=(rows, d)) / 7.0
    if specials:
        vals[rng.random(vals.shape) < 0.05] = np.nan
        vals[rng.random(vals.shape) < 0.05] = -np.inf
    seg = rng.integers(0, n_seg, size=rows)
    upstream = rng.integers(-3, 4, size=(rows if per_row else n_seg, d)).astype(float)
    return vals, seg, n_seg, upstream


def _value_and_grad(op, vals, seg, n_seg, target):
    """The op's output, the input's gradient, and the upstream gradient
    that produced it."""
    x = Tensor(vals, requires_grad=True)
    out = op(x, seg, n_seg)
    loss, upstream = mse_with_upstream(out, target)
    backward(loss)
    return out.values, x.grad, upstream


@settings(max_examples=60, deadline=None)
@given(case=segmented_rows())
def test_segment_sum_property_matches_per_segment_loop(case):
    # rows are added in input order, so the sum is bitwise the loop's
    vals, seg, n_seg, target = case
    got, grad, upstream = _value_and_grad(segment_sum, vals, seg, n_seg, target)
    want = np.zeros((n_seg, vals.shape[1]))
    for i in range(len(seg)):
        want[seg[i]] += vals[i]
    assert got.dtype == grad.dtype == np.float64  # zero rows included
    assert np.array_equal(got, want)
    assert np.array_equal(grad, upstream[seg])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN entries
@settings(max_examples=60, deadline=None)
@given(case=segmented_rows(specials=True))
def test_segment_max_property_matches_per_segment_loop(case):
    # the gradient goes to the first NaN, or else the first row attaining
    # the maximum, of each (segment, column) slot
    vals, seg, n_seg, target = case
    got, grad, upstream = _value_and_grad(
        lambda x, s, n: T.segment_max(x, in_order(s, n)), vals, seg, n_seg, target
    )
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
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(grad, want_grad, equal_nan=True)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN entries
@settings(max_examples=60, deadline=None)
@given(case=segmented_rows(specials=True), seed=st.integers(0, 2**32 - 1))
def test_segment_max_of_source_rows_matches_gather_then_max(case, seed):
    # reading values[src] inside the op, repeats included, is bitwise the
    # max of the rows gathered first, in value and gradient
    vals, seg, n_seg, target = case
    src = np.random.default_rng(seed).integers(0, max(len(seg), 1), size=len(seg))
    got, grad, _ = _value_and_grad(
        lambda x, s, n: T.segment_max(x, T.Arcs(src, s, n, len(s))), vals, seg, n_seg, target
    )
    want, want_grad, _ = _value_and_grad(
        lambda x, s, n: T.segment_max(gather(x, src), in_order(s, n)), vals, seg, n_seg, target
    )
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(grad, want_grad, equal_nan=True)


def test_segment_max_reads_rows_in_order_in_place():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    arcs = T.Arcs(np.arange(3), [1, 0, 1], 2, 3)
    assert arcs.identity
    out = T.segment_max(x, arcs)
    assert out._parents == (x,)
    assert np.array_equal(out.values, [[2.0, 3.0], [4.0, 5.0]])
    with pytest.raises(ValueError, match="must be equal 1-D"):
        T.Arcs(np.arange(3), [0, 0], 1, 3)
    with pytest.raises(ValueError, match="source out of range"):
        T.Arcs([3], [0], 1, 3)
    with pytest.raises(ValueError, match="3 rows of values for arcs from 4 rows"):
        T.segment_max(x, T.Arcs([3], [0], 1, 4))


@settings(max_examples=60, deadline=None)
@given(case=segmented_rows(width=1, min_rows=1, per_row=True))
def test_segment_softmax_property_matches_per_segment_loop(case):
    vals, seg, n_seg, target = case
    got, grad, upstream = _value_and_grad(
        lambda x, s, n: T.segment_softmax(x, in_order(s, n)), vals, seg, n_seg, target
    )
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
        T.segment_softmax(Tensor(np.zeros((0, 1))), in_order([], 3))


def test_row_prefix_forward_and_grad():
    x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    assert T.row_prefix(x, 4) is x
    out = T.row_prefix(x, 3)
    assert np.array_equal(out.values, x.values[:3])
    backward(mse_with_upstream(out, np.zeros((3, 2)))[0])
    want = np.zeros((4, 2))
    want[:3] = mse_with_upstream(Tensor(x.values[:3]), np.zeros((3, 2)))[1]
    assert np.array_equal(x.grad, want)
    assert T.row_prefix(x, 0).shape == (0, 2)
    for k in (-1, 5):
        with pytest.raises(ValueError, match="row_prefix"):
            T.row_prefix(x, k)


def arc_triple_oracle(V, E, src, dst, M, upstream):
    """The explicit triple: rows [V[dst] | E zero-padded to every arc | V[src]]
    times M, and the gradients of sum(out * upstream) through that matrix."""
    n, d_in = V.shape
    m_e, d_e = E.shape
    E_pad = np.vstack([E, np.zeros((len(src) - m_e, d_e))])
    cat = np.hstack([V[dst], E_pad, V[src]])
    d_cat = upstream @ M.T
    dV = np.zeros_like(V)
    np.add.at(dV, dst, d_cat[:, :d_in])
    np.add.at(dV, src, d_cat[:, d_in + d_e :])
    return cat @ M, dV, d_cat[:m_e, d_in : d_in + d_e], cat.T @ upstream


def _arc_linear_case(rng, n=5, m_e=6, loops=True, d_in=3, d_e=2, k=4):
    src, dst = rng.integers(0, n, size=m_e), rng.integers(0, n, size=m_e)
    if loops:
        src = np.concatenate([src, np.arange(n)])
        dst = np.concatenate([dst, np.arange(n)])
    V = rng.normal(size=(n, d_in))
    E = rng.normal(size=(m_e, d_e))
    M = rng.normal(size=(2 * d_in + d_e, k))
    return V, E, src, dst, M


def test_arc_linear_forward_matches_explicit_triple():
    rng = np.random.default_rng(11)
    V, E, src, dst, M = _arc_linear_case(rng)
    out = T.arc_linear(Tensor(V), Tensor(E), T.Arcs(src, dst, len(V)), Tensor(M))
    want, *_ = arc_triple_oracle(V, E, src, dst, M, np.zeros((len(src), M.shape[1])))
    assert out.shape == want.shape
    assert np.max(np.abs(out.values - want)) <= 1e-12


def test_arc_linear_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    V, E, src, dst, M = _arc_linear_case(rng, n=4, m_e=5, k=2)
    v, e, w = param(V, "V"), param(E, "E"), param(M, "M")
    arcs = T.Arcs(src, dst, len(V))
    target = Tensor(rng.normal(size=(len(src), 2)))

    def f():
        return T.mse_loss(T.arc_linear(v.tensor, e.tensor, arcs, w.tensor), target)

    assert finite_difference_check(f, [v, e, w]) < 1e-6


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    m_e=st.integers(0, 10),
    loops=st.booleans(),
    d_in=st.integers(1, 4),
    d_e=st.integers(0, 3),
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_arc_linear_property_matches_explicit_triple(n, m_e, loops, d_in, d_e, k, seed):
    # random endpoints repeat arcs and draw self-arcs; ``loops`` appends the
    # padded self-loop rows past E's rows
    rng = np.random.default_rng(seed)
    V, E, src, dst, M = _arc_linear_case(rng, n, m_e, loops, d_in, d_e, k)
    v, e, w = (Tensor(x, requires_grad=True) for x in (V, E, M))
    out = T.arc_linear(v, e, T.Arcs(src, dst, n), w)
    loss, upstream = mse_with_upstream(out, rng.normal(size=(len(src), k)))
    backward(loss)
    want, dV, dE, dM = arc_triple_oracle(V, E, src, dst, M, upstream)
    scale = 1 + np.abs(want).max(initial=0.0)
    assert out.shape == (len(src), k)
    assert np.max(np.abs(out.values - want), initial=0.0) <= 1e-12 * scale
    for got, ref in ((v.grad, dV), (e.grad, dE), (w.grad, dM)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * (1 + np.abs(ref).max(initial=0.0))


def test_arc_linear_shape_errors_name_the_shapes():
    V, E = Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"M \(4, 1\).*\(3, 2\).*\(2, 1\)"):
        T.arc_linear(V, E, T.Arcs([0, 1], [1, 2], 3), Tensor(np.zeros((4, 1))))
    with pytest.raises(ValueError, match=r"\(2, 1\) outnumber the 1 arcs"):
        T.arc_linear(V, E, T.Arcs([0], [1], 3), Tensor(np.zeros((5, 1))))
    with pytest.raises(ValueError, match="source out of range for 3 rows"):
        T.Arcs([0, 3], [1, 2], 3)
    with pytest.raises(ValueError, match=r"arcs from 4 rows into 4 do not index nodes \(3, 2\)"):
        T.arc_linear(V, E, T.Arcs([0, 3], [1, 2], 4), Tensor(np.zeros((5, 1))))


def attend_oracle(H, w, src, dst, n, upstream):
    """Arc-by-arc gather, weigh and scatter, and the gradients of
    sum(out * upstream) taken the same way."""
    out = np.zeros((n, H.shape[1]))
    dH = np.zeros_like(H)
    dw = np.zeros_like(w)
    for a, (s, d) in enumerate(zip(src, dst)):
        out[d] += w[a, 0] * H[s]
        dH[s] += w[a, 0] * upstream[d]
        dw[a, 0] = (upstream[d] * H[s]).sum()
    return out, dH, dw


def test_attend_forward_matches_gather_multiply_scatter():
    rng = np.random.default_rng(13)
    H, w = rng.normal(size=(5, 3)), rng.normal(size=(8, 1))
    src, dst = rng.integers(0, 5, size=8), rng.integers(0, 4, size=8)
    out = T.attend(Tensor(H), Tensor(w), T.Arcs(src, dst, 4, 5))
    want = np.zeros((4, 3))
    np.add.at(want, dst, H[src] * w)
    assert out.shape == (4, 3)
    assert np.max(np.abs(out.values - want)) <= 1e-12


def test_attend_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    h, w = param(rng.normal(size=(4, 3)), "H"), param(rng.normal(size=(7, 1)), "w")
    arcs = T.Arcs(rng.integers(0, 4, size=7), rng.integers(0, 6, size=7), 6, 4)
    target = Tensor(rng.normal(size=(6, 3)))

    def f():
        return T.mse_loss(T.attend(h.tensor, w.tensor, arcs), target)

    assert finite_difference_check(f, [h, w]) < 1e-6


def rng_target(n, d):
    """A loss target of n x d normals, seeded by its shape."""
    return np.random.default_rng(n * 131 + d).normal(size=(n, d))


def _table_ends(rng, m: int, cap: int) -> tuple[np.ndarray, int]:
    """m arc ends, shuffled, over as many rows as they fill: every fifth row
    gets no arc, the others between 3/4 of ``cap`` and ``cap`` (the last
    one the remainder), so their arc table has at most ``cap`` arcs a row
    and under 2 cells per arc."""
    degrees: list[int] = []
    while sum(degrees) < m:
        degrees.append(0 if len(degrees) % 5 == 4 else int(rng.integers(-(-3 * cap // 4), cap + 1)))
    degrees[-1] -= sum(degrees) - m
    return rng.permutation(np.repeat(np.arange(len(degrees)), degrees)), len(degrees)


@st.composite
def attend_cases(draw):
    """(H, w, src, dst, n) for ``attend``.  Small cases: m <= 12 random
    arcs, which repeat arcs and leave rows without arcs, or one arc per
    source row in order, as pooling reads them.  Table cases: at least
    TABLE_MIN_ARCS arcs of width 2, 3 or 64 whose rows have at most a drawn
    in-degree up to TABLE_MAX_DEGREE, every fifth row and some trailing
    rows without arcs, with identity or tabled sources; small drawn degrees
    repeat arcs.  Either way the output row count n is drawn apart from
    H's rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    identity = draw(st.booleans())
    if draw(st.booleans()):
        rows, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
        m = rows if identity else draw(st.integers(0, 12))
        src = np.arange(rows) if identity else rng.integers(0, rows, size=m)
        dst = rng.integers(0, n, size=m)
    else:
        d = draw(st.sampled_from([2, 3, 64]))
        m = draw(st.integers(T.TABLE_MIN_ARCS, T.TABLE_MIN_ARCS + 200))
        dst, n = _table_ends(rng, m, draw(st.integers(1, T.TABLE_MAX_DEGREE)))
        n += draw(st.integers(0, 3))
        if identity:
            src, rows = np.arange(m), m
        else:
            src, rows = _table_ends(rng, m, draw(st.integers(1, T.TABLE_MAX_DEGREE)))
            rows += draw(st.integers(0, 3))
    return rng.normal(size=(rows, d)), rng.normal(size=(m, 1)), src, dst, n


@settings(max_examples=120, deadline=None)
@given(case=attend_cases())
def test_attend_property_matches_arc_loop(case):
    # each output row adds its arcs' products in arc order from +0.0 and
    # each source row its arcs' gradient rows the same way, by flat slots
    # or through the arc tables, so both match the loop bit for bit
    H, w, src, dst, n = case
    (rows, d), m = H.shape, len(w)
    h, wt = Tensor(H, requires_grad=True), Tensor(w, requires_grad=True)
    arcs = T.Arcs(src, dst, n, rows)
    assert arcs.identity == np.array_equal(src, np.arange(rows))
    if m >= T.TABLE_MIN_ARCS:
        assert arcs.into_rows() is not None
        assert arcs.identity or arcs.from_rows() is not None
    out = T.attend(h, wt, arcs)
    loss, upstream = mse_with_upstream(out, rng_target(n, d))
    backward(loss)
    want, dH, dw = attend_oracle(H, w, src, dst, n, upstream)
    assert out.shape == (n, d)
    assert out.values.dtype == h.grad.dtype == wt.grad.dtype == np.float64
    assert np.array_equal(out.values, want)
    assert np.array_equal(h.grad, dH)
    assert np.array_equal(wt.grad, dw)


def _slot_attend(H, w, src, dst, n, upstream):
    """``attend`` and its gradients taken by flat slots."""
    gd = upstream[dst]
    return (
        T._segment_sum_np(H[src] * w, dst, n),
        T._segment_sum_np(gd * w, src, len(H)),
        (gd * H[src]).sum(axis=1, keepdims=True),
    )


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 64]),
    cut=st.integers(0, 3),
    cap=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_arc_linear_table_gradients_match_flat_slot_sums(k, cut, cap, seed):
    # V's and M's gradients from tabled destination and source sums equal
    # those from ``_segment_sum_np`` bit for bit; ``cut`` output rows past
    # the arcs' own get zero destination sums, as in a prefix of the arcs
    rng = np.random.default_rng(seed)
    m = int(rng.integers(T.TABLE_MIN_ARCS, T.TABLE_MIN_ARCS + 200))
    dst, n_dst = _table_ends(rng, m, cap)
    src, n_src = _table_ends(rng, m, cap)
    nodes = max(n_dst, n_src) + cut
    arcs = T.Arcs(src, dst, n_dst, nodes)
    d_in, d_e, m_e = 3, 2, m - int(rng.integers(0, 10))
    V, E, M = rng.normal(size=(nodes, d_in)), rng.normal(size=(m_e, d_e)), rng.normal(size=(2 * d_in + d_e, k))
    v, e, mm = (Tensor(x, requires_grad=True) for x in (V, E, M))
    out = T.arc_linear(v, e, arcs, mm)
    loss, g = mse_with_upstream(out, rng.normal(size=(m, k)))
    backward(loss)
    if k > 1:
        assert arcs.into_rows() is not None and arcs.from_rows() is not None
    g_dst, g_src = T._segment_sum_np(g, dst, nodes), T._segment_sum_np(g, src, nodes)
    M_d, M_e, M_s = M[:d_in], M[d_in : d_in + d_e], M[d_in + d_e :]
    assert np.array_equal(v.grad, g_dst @ M_d.T + g_src @ M_s.T)
    assert np.array_equal(mm.grad, np.concatenate([V.T @ g_dst, E.T @ g[:m_e], V.T @ g_src]))


def test_arc_tables_list_each_rows_arcs_in_arc_order():
    rng = np.random.default_rng(21)
    m = T.TABLE_MIN_ARCS
    dst, n = _table_ends(rng, m, 6)
    arcs = T.Arcs(rng.permutation(m), dst, n, m)
    into = arcs.into_rows()
    assert into.shape == (np.bincount(dst).max(), n)
    for r in range(n):
        listed = into[:, r]
        assert listed.tolist() == np.flatnonzero(dst == r).tolist() + [m] * int((listed == m).sum())
    assert arcs.into_rows() is into  # built once
    assert T.Arcs(dst[:-1], dst[:-1], n).into_rows() is None  # under the arc cutoff


def _no_table_case(kind, rng):
    """(H, w, src, dst, n) of an arc set that takes no arc table."""
    m = T.TABLE_MIN_ARCS + 40
    if kind == "width 1":
        dst, n = _table_ends(rng, m, 4)
        src, rows = _table_ends(rng, m, 4)
        return rng.normal(size=(rows, 1)), rng.normal(size=(m, 1)), src, dst, n
    if kind == "below the cutoff":
        m = T.TABLE_MIN_ARCS - 1
        dst, n = _table_ends(rng, m, 4)
        src, rows = _table_ends(rng, m, 4)
    elif kind == "star":  # a whole set of rows pooled into one
        dst, n, src, rows = np.zeros(m, dtype=np.int64), 1, np.arange(m), m
    elif kind == "in-degree over the cap":  # every non-empty row over it
        dst, n = _table_ends(rng, m, 2 * T.TABLE_MAX_DEGREE)
        src, rows = np.arange(m), m
    else:  # "over the fill": 8 rows at the cap, the others one arc each
        cap = T.TABLE_MAX_DEGREE
        n = 8 + m - 8 * cap
        dst = rng.permutation(np.repeat(np.arange(n), [cap] * 8 + [1] * (n - 8)))
        src, rows = np.arange(m), m
    return rng.normal(size=(rows, 8)), rng.normal(size=(m, 1)), src, dst, n


@pytest.mark.parametrize(
    "kind", ["width 1", "below the cutoff", "star", "in-degree over the cap", "over the fill"]
)
def test_arc_sets_without_a_table_sum_by_flat_slots(kind):
    H, w, src, dst, n = _no_table_case(kind, np.random.default_rng(22))
    h, wt = Tensor(H, requires_grad=True), Tensor(w, requires_grad=True)
    arcs = T.Arcs(src, dst, n, len(H))
    out = T.attend(h, wt, arcs)
    loss, upstream = mse_with_upstream(out, rng_target(*out.shape))
    backward(loss)
    if kind == "width 1":  # never asked for: a width-1 sum builds no table
        assert arcs._into is False and arcs._from is False
    else:
        assert arcs.into_rows() is None
        assert arcs.identity or arcs.from_rows() is None
    want, dH, dw = _slot_attend(H, w, src, dst, n, upstream)
    assert np.array_equal(out.values, want)
    assert np.array_equal(h.grad, dH)
    assert np.array_equal(wt.grad, dw)


def test_arcs_derivations_keep_rows_and_check_only_the_cut():
    arcs = T.Arcs([2, 0, 1, 3], [1, 0, 2, 0], 3, 4)
    looped = arcs.with_loops()
    assert looped.src.tolist() == [2, 0, 1, 3, 0, 1, 2]
    assert looped.dst.tolist() == [1, 0, 2, 0, 0, 1, 2]
    assert (looped.n, looped.rows, looped.identity) == (3, 4, False)
    assert arcs.prefix(4, 3) is arcs
    head = arcs.prefix(2, 2)
    assert (head.src.tolist(), head.dst.tolist(), head.n, head.rows) == ([2, 0], [1, 0], 2, 4)
    # the destination check runs only when the prefix cuts output rows off
    with pytest.raises(ValueError, match="destination out of range for 1 rows"):
        arcs.prefix(2, 1)
    with pytest.raises(ValueError, match="source out of range for 2 rows"):
        arcs.prefix(1, 3, 2)
    tail = arcs.prefix(2, 3, 3)
    assert (tail.n, tail.rows) == (3, 3)
    for bad in ((5, 3), (2, 4), (2, 3, 5)):
        with pytest.raises(ValueError, match="is not within 4 arcs from 4 rows into 3"):
            arcs.prefix(*bad)
    # no arcs into as many rows as there are sources: the loops are the identity
    assert T.Arcs([], [], 3).with_loops().identity
    assert T.Arcs([0, 1], [0, 1], 2).prefix(1, 1).identity is False


def test_attend_shape_and_range_errors():
    H, w = Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="must be equal 1-D"):
        T.Arcs([0, 1], [1], 3)
    with pytest.raises(ValueError, match=r"weights \(2, 1\).*\(3\)"):
        T.attend(H, w, T.Arcs([0, 1, 2], [0, 1, 2], 3))
    with pytest.raises(ValueError, match="weights"):
        T.attend(H, Tensor(np.zeros((2, 2))), T.Arcs([0, 1], [0, 1], 3))
    with pytest.raises(ValueError, match="negative"):
        T.Arcs([], [], -1, 3)
    with pytest.raises(ValueError, match="source out of range for 3 rows"):
        T.Arcs([0, 3], [0, 1], 2, 3)
    with pytest.raises(ValueError, match="source out of range"):
        T.Arcs([-1, 0], [0, 1], 2, 3)
    with pytest.raises(ValueError, match="destination out of range for 2 rows"):
        T.Arcs([0, 1], [0, 2], 2, 3)
    with pytest.raises(ValueError, match="3 rows of H for arcs from 4 rows"):
        T.attend(H, w, T.Arcs([0, 1], [0, 1], 2, 4))


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


def twice(x):
    return T.matmul(x, Tensor([[2.0]]))


def test_backward_linear():
    x = Tensor([[3.0]], requires_grad=True)
    backward(twice(x))
    assert x.grad[0, 0] == 2.0


def test_backward_accumulates_without_zeroing():
    x = Tensor([[3.0]], requires_grad=True)
    backward(twice(x))
    backward(twice(x))
    assert x.grad[0, 0] == 4.0


def test_backward_on_a_leaf_loss():
    x = Tensor([[3.0]], requires_grad=True)
    backward(x)
    backward(x)
    assert x.grad[0, 0] == 2.0


def test_backward_through_a_released_graph_raises():
    x = Tensor([[3.0]], requires_grad=True)
    y = twice(x)
    loss = T.matmul(y, y)
    backward(loss)
    assert x.grad[0, 0] == 24.0
    with pytest.raises(ValueError, match="released graph"):
        backward(loss)
    # an inner node of the spent graph cannot start a new one either
    with pytest.raises(ValueError, match="released graph"):
        backward(T.add(y, x))
    assert x.grad[0, 0] == 24.0


def test_backward_frees_inner_grads_and_keeps_leaf_grads():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    inner = T.tanh(x)
    loss = T.mse_loss(inner, Tensor(np.zeros((1, 2))))  # the mean of tanh(x)^2
    backward(loss)
    assert inner.grad is None and loss.grad is None
    assert inner._parents == () and inner._backward_fn is None
    np.testing.assert_allclose(x.grad, np.tanh(x.values) * (1 - np.tanh(x.values) ** 2))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(T.tanh(x))


def test_backward_visits_each_node_once():
    x = Tensor([[1.0]], requires_grad=True)
    y = twice(x)
    z = T.add(y, y)  # diamond: y reachable via two paths
    w = T.matmul(z, z)
    order = toposort(w)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    backward(w)
    # d/dx of (2x + 2x)^2 = 2*(4x)*4 = 32x
    assert np.isclose(x.grad[0, 0], 32.0)


def test_no_grad_disables_recording():
    x = Tensor([[1.0]], requires_grad=True)
    with T.no_grad():
        y = twice(x)
    assert not y.requires_grad
    assert y._backward_fn is None


def test_add_broadcast_gradients():
    rng = np.random.default_rng(8)
    a = param(rng.normal(size=(4, 3)), "a")
    row = param(rng.normal(size=(1, 3)), "row")
    scalar = param(rng.normal(size=(1, 1)), "s")
    same = param(rng.normal(size=(4, 3)), "same")
    cases = [
        (lambda: entry_sum(T.add(a.tensor, row.tensor)), [a, row]),
        (lambda: entry_sum(T.add(a.tensor, scalar.tensor)), [a, scalar]),
        (lambda: entry_sum(T.add(T.tanh(a.tensor), same.tensor)), [a, same]),
    ]
    for f, ps in cases:
        assert finite_difference_check(f, ps) < 1e-6
