import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import dense_egat_reference, entry_sum, in_order, layer_arcs, random_arc_graph

from roadcarbon.layers import (
    EgatParams,
    FusionParams,
    attention_fusion,
    egat_layer,
    stack_egat,
    stack_hetero,
)
from roadcarbon.optim import finite_difference_check
from roadcarbon.tensor import Arcs, Tensor, add, backward, mse_loss, row_prefix


def make_params(prefix, d_in, d_e, d_out=None, d_att=4, seed=0):
    rng = np.random.default_rng(seed)
    d_out = d_out or d_in
    return EgatParams.create(prefix, d_in, d_e, d_out, d_e_out=d_e, d_att=d_att, rng=rng)


def test_single_node_no_arcs_is_self_transform():
    params = make_params("p", 3, 2)
    V = Tensor([[1.0, -2.0, 0.5]])
    E = Tensor(np.zeros((0, 2)))
    V_out, E_out, rec = egat_layer(V, E, *layer_arcs([], [], 1), params)
    assert np.allclose(V_out.values, V.values @ params.W.values)
    assert rec.arc_alpha[0, 0] == 1.0
    assert E_out.shape == (0, 2)


def test_layer_without_arc_updater_returns_no_arcs():
    rng = np.random.default_rng(4)
    V, E, src, dst = random_arc_graph(rng, 6)
    full = make_params("p", 3, 2)
    terminal = EgatParams(full.W, full.U, full.a, A=None)
    arcs = layer_arcs(src, dst, 6)
    v_full, _, _ = egat_layer(Tensor(V), Tensor(E), *arcs, full)
    v_term, e_term, _ = egat_layer(Tensor(V), Tensor(E), *arcs, terminal)
    assert e_term is None
    assert np.array_equal(v_full.values, v_term.values)
    assert [p.name for p in terminal.parameters()] == ["p.W", "p.U", "p.a"]


def test_stack_without_arcs_reaches_every_parameter():
    # zero arcs take the general path, so the arc updater feeding the next
    # layer gets an exact zero gradient rather than none
    rng = np.random.default_rng(5)
    layers = [
        EgatParams.create("l0", 2, 2, d_out=2, d_e_out=2, d_att=3, rng=rng),
        EgatParams.create("l1", 2, 2, d_out=2, d_e_out=None, d_att=3, rng=rng),
    ]
    V, E = Tensor(rng.normal(size=(3, 2))), Tensor(np.zeros((0, 2)))
    out, e_out, _ = stack_egat(V, E, [], [], layers)
    assert e_out is None
    backward(entry_sum(out))
    params = [p for layer in layers for p in layer.parameters()]
    assert all(p.grad is not None for p in params)
    assert not layers[0].A.grad.any()


def test_symmetric_nodes_get_equal_outputs():
    params = make_params("p", 2, 1)
    V = Tensor([[0.3, -0.8], [0.3, -0.8]])
    E = Tensor([[0.5], [0.5]])
    V_out, _, _ = egat_layer(V, E, *layer_arcs([0, 1], [1, 0], 2), params)
    assert np.array_equal(V_out.values[0], V_out.values[1])


def test_alpha_sums_to_one_per_destination():
    rng = np.random.default_rng(0)
    V, E, src, dst = random_arc_graph(rng, 20)
    params = make_params("p", 3, 2)
    _, _, rec = egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, 20), params)
    sums = np.bincount(rec.arc_dst, weights=rec.arc_alpha.ravel(), minlength=20)
    assert np.all(np.abs(sums - 1.0) < 1e-9)


def test_egat_matches_dense_reference():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 11))
        V, E, src, dst = random_arc_graph(rng, n)
        params = make_params("p", 3, 2, seed=trial)
        V_out, E_out, _ = egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, n), params)
        V_ref, E_ref = dense_egat_reference(V, E, src, dst, params)
        assert np.max(np.abs(V_out.values - V_ref)) < 1e-10
        assert np.max(np.abs(E_out.values - E_ref)) < 1e-10


def test_egat_permutation_equivariance():
    rng = np.random.default_rng(2)
    n = 9
    V, E, src, dst = random_arc_graph(rng, n)
    params = make_params("p", 3, 2)
    out, _, _ = egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, n), params)
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    out_p, _, _ = egat_layer(Tensor(V[perm]), Tensor(E), *layer_arcs(inv[src], inv[dst], n), params)
    assert np.max(np.abs(out_p.values - out.values[perm])) < 1e-9


def test_egat_gradient_check():
    rng = np.random.default_rng(3)
    V, E, src, dst = random_arc_graph(rng, 6)
    params = make_params("p", 3, 2)
    target = Tensor(rng.normal(size=(6, 3)))
    Vt = Tensor(V)
    Et = Tensor(E)

    def f():
        out, e_out, _ = egat_layer(Vt, Et, *layer_arcs(src, dst, 6), params)
        return mse_loss(entry_sum(out), entry_sum(e_out))

    assert finite_difference_check(f, params.parameters()) < 1e-6


def test_egat_dimension_mismatch():
    params = make_params("p", 3, 2)
    with pytest.raises(ValueError, match="d_in"):
        egat_layer(Tensor(np.zeros((2, 5))), Tensor(np.zeros((0, 2))), *layer_arcs([], [], 2), params)
    arcs = Arcs([0], [1], 2)
    with pytest.raises(ValueError, match="not 1 arcs plus 2 self-loops"):
        egat_layer(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 2))), arcs, arcs, params)


@pytest.mark.parametrize("k", (1, 4, 7, 12))
def test_egat_row_prefix_equals_first_rows_of_full_call(k):
    # every arc points into the first k rows; all n rows still serve as sources
    rng = np.random.default_rng(30 + k)
    n = 12
    V, E, src, dst = random_arc_graph(rng, n)
    into = dst < k
    src, dst, E = src[into], dst[into], E[into]
    assert src.size
    params = make_params("p", 3, 2)
    upstream = Tensor(rng.normal(size=(k, 3)))
    arc_upstream = Tensor(rng.normal(size=(src.size, 2)))

    def run(rows_out):
        for p in params.parameters():
            p.tensor.grad = None
        Vt, Et = Tensor(V, requires_grad=True), Tensor(E, requires_grad=True)
        v_out, e_out, rec = egat_layer(Vt, Et, *layer_arcs(src, dst, rows_out or n, n), params)
        rows = v_out if rows_out else row_prefix(v_out, k)
        backward(add(mse_loss(rows, upstream), mse_loss(e_out, arc_upstream)))
        grads = [Vt.grad, Et.grad] + [p.grad for p in params.parameters()]
        return rows.values, e_out.values, rec, grads

    got, got_arcs, rec, got_grads = run(k)
    want, want_arcs, _, want_grads = run(None)
    assert got.shape == (k, 3) and rec.arc_dst.max() == k - 1
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got_arcs - want_arcs).max() <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0)


def test_egat_rejects_more_output_rows_than_nodes():
    rng = np.random.default_rng(31)
    V, E, src, dst = random_arc_graph(rng, 5)
    with pytest.raises(ValueError, match="rows_out 6 is not within the 5 rows of V"):
        egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, 6, 5), make_params("p", 3, 2))


def test_fusion_identical_inputs_is_identity_with_half_weights():
    rng = np.random.default_rng(4)
    fusion = FusionParams.create("f", 3, rng)
    x = Tensor(rng.normal(size=(5, 3)))
    out, rec = attention_fusion([("a", x), ("b", x)], fusion)
    assert np.allclose(out.values, x.values)
    assert np.allclose(rec.beta, 0.5)


def test_fusion_beta_rows_sum_to_one():
    rng = np.random.default_rng(5)
    fusion = FusionParams.create("f", 4, rng)
    inputs = [("a", Tensor(rng.normal(size=(7, 4)))), ("b", Tensor(rng.normal(size=(7, 4))))]
    _, rec = attention_fusion(inputs, fusion)
    assert np.all(np.abs(rec.beta.sum(axis=1) - 1.0) < 1e-9)


def test_fusion_shift_invariance():
    # adding the same constant to every tag's pre-softmax score leaves the
    # per-node weights unchanged (softmax shift invariance)
    from roadcarbon.tensor import segment_softmax

    rng = np.random.default_rng(6)
    n, n_tags = 4, 2
    scores = rng.normal(size=(n_tags * n, 1))
    seg = np.tile(np.arange(n), n_tags)
    beta1 = segment_softmax(Tensor(scores), in_order(seg, n)).values
    beta2 = segment_softmax(Tensor(scores + 7.25), in_order(seg, n)).values
    assert np.max(np.abs(beta1 - beta2)) <= 1e-12


def test_fusion_requires_two_inputs_and_equal_shapes():
    rng = np.random.default_rng(7)
    fusion = FusionParams.create("f", 3, rng)
    with pytest.raises(ValueError, match="at least two"):
        attention_fusion([("a", Tensor(np.zeros((2, 3))))], fusion)
    with pytest.raises(ValueError, match="shape"):
        attention_fusion(
            [("a", Tensor(np.zeros((2, 3)))), ("b", Tensor(np.zeros((3, 3))))], fusion
        )


def test_fusion_gradient_check():
    rng = np.random.default_rng(8)
    fusion = FusionParams.create("f", 3, rng)
    a = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=(4, 3)))

    def f():
        out, _ = attention_fusion([("a", a), ("b", b)], fusion)
        return entry_sum(out)

    assert finite_difference_check(f, fusion.parameters()) < 1e-6


def test_hetero_layer_zero_od_arcs_still_fuses():
    rng = np.random.default_rng(9)
    V = Tensor(rng.normal(size=(4, 3)))
    p_rn = make_params("rn", 3, 2, seed=1)
    p_od = make_params("od", 3, 1, seed=2)
    fusion = FusionParams.create("f", 3, rng)
    src = np.array([0, 1]); dst = np.array([1, 0])
    out, (rec,) = stack_hetero(
        V,
        [
            ("rn", src, dst, Tensor(rng.normal(size=(2, 2)))),
            ("od", np.zeros(0, int), np.zeros(0, int), Tensor(np.zeros((0, 1)))),
        ],
        [{"rn": p_rn, "od": p_od}],
        fusion,
    )
    # od branch = self-loop-only transform
    assert np.allclose(
        rec.per_type["od"].arc_alpha.ravel(), np.ones(4)
    )
    assert out.shape == (4, 3)
    assert np.all(np.abs(rec.fusion.beta.sum(axis=1) - 1.0) < 1e-9)


def test_hetero_layer_identical_types_gives_half_beta():
    rng = np.random.default_rng(10)
    V = Tensor(rng.normal(size=(3, 2)))
    params = make_params("x", 2, 1, seed=3)
    fusion = FusionParams.create("f", 2, rng)
    src = np.array([0, 1, 2]); dst = np.array([1, 2, 0])
    E = Tensor(rng.normal(size=(3, 1)))
    out, (rec,) = stack_hetero(
        V, [("rn", src, dst, E), ("od", src, dst, E)], [{"rn": params, "od": params}], fusion
    )
    assert np.allclose(rec.fusion.beta, 0.5)
    v_rn, _, _ = egat_layer(V, E, *layer_arcs(src, dst, 3), params)
    assert np.allclose(out.values, v_rn.values)


def test_hetero_layer_single_type_beta_is_one():
    rng = np.random.default_rng(11)
    V = Tensor(rng.normal(size=(3, 2)))
    params = make_params("x", 2, 1, seed=4)
    fusion = FusionParams.create("f", 2, rng)
    out, (rec,) = stack_hetero(
        V, [("rn", np.array([0]), np.array([1]), Tensor([[1.0]]))], [{"rn": params}], fusion
    )
    assert np.array_equal(rec.fusion.beta, np.ones((3, 1)))
    v_rn, _, _ = egat_layer(V, Tensor([[1.0]]), *layer_arcs([0], [1], 3), params)
    assert np.array_equal(out.values, v_rn.values)


def test_stack_egat_one_layer_equals_single_call():
    rng = np.random.default_rng(12)
    V, E, src, dst = random_arc_graph(rng, 5)
    params = make_params("p", 3, 2)
    v1, e1, _ = egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, 5), params)
    v2, e2, _ = stack_egat(Tensor(V), Tensor(E), src, dst, [params])
    assert np.array_equal(v1.values, v2.values)
    assert np.array_equal(e1.values, e2.values)


def test_stack_receptive_field_on_path_graph():
    # path 0-1-2: with one layer node 2 ignores node 0; with two it does not
    rng = np.random.default_rng(13)
    d_in, d_e = 2, 1
    layer0 = make_params("l0", d_in, d_e, seed=5)
    layer1 = make_params("l1", d_in, d_e, seed=6)
    src = np.array([0, 1, 1, 2])
    dst = np.array([1, 0, 2, 1])
    E = Tensor(rng.normal(size=(4, 1)))
    V = rng.normal(size=(3, 2))
    V2 = V.copy()
    V2[0] += 1.0

    one_a, _, _ = stack_egat(Tensor(V), E, src, dst, [layer0])
    one_b, _, _ = stack_egat(Tensor(V2), E, src, dst, [layer0])
    assert np.array_equal(one_a.values[2], one_b.values[2])

    def two(v):
        out, _, _ = stack_egat(Tensor(v), E, src, dst, [layer0, layer1])
        return out.values

    assert not np.allclose(two(V)[2], two(V2)[2])


def test_stack_egat_three_layer_gradient():
    rng = np.random.default_rng(14)
    V, E, src, dst = random_arc_graph(rng, 5, d_in=2, d_e=2)
    layers = [make_params(f"l{i}", 2, 2, seed=20 + i) for i in range(3)]
    params = [p for lp in layers for p in lp.parameters()]
    Vt, Et = Tensor(V), Tensor(E)

    def f():
        out, e_out, _ = stack_egat(Vt, Et, src, dst, layers)
        return mse_loss(entry_sum(out), entry_sum(e_out))

    assert finite_difference_check(f, params, h=1e-5) < 1e-4


@pytest.mark.parametrize("stack", ["egat", "hetero"])
def test_stack_builds_its_arc_sets_once_whatever_its_depth(monkeypatch, stack):
    # a stack converts, range-checks and loops its arcs before the first
    # layer; its layers' kernels read those arc sets and build none
    built = []

    def counted(method):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            if out is not self:  # a prefix that keeps everything is the set itself
                built.append(method.__name__)
            return out

        return wrapper

    for name in ("__init__", "with_loops", "prefix"):
        monkeypatch.setattr(Arcs, name, counted(getattr(Arcs, name)))
    rng = np.random.default_rng(17)
    V, E, src, dst = random_arc_graph(rng, 6, d_in=2, d_e=2)

    def arc_sets_built(depth):
        layers = [make_params(f"l{i}", 2, 2, seed=60 + i) for i in range(depth)]
        built.clear()
        if stack == "egat":
            stack_egat(Tensor(V), Tensor(E), src, dst, layers)
        else:
            stack_hetero(Tensor(V), [("rn", src, dst, Tensor(E))], [{"rn": p} for p in layers], None)
        return list(built)

    assert arc_sets_built(2) == arc_sets_built(4) == ["__init__", "with_loops"]


def test_stack_hetero_depth_and_gradient():
    rng = np.random.default_rng(15)
    n, d = 4, 2
    V = Tensor(rng.normal(size=(n, d)))
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 0])
    E_rn = Tensor(rng.normal(size=(4, 1)))
    E_od = Tensor(rng.normal(size=(4, 1)))
    fusion = FusionParams.create("f", d, rng)
    layer_params = []
    for i in range(2):
        layer_params.append(
            {
                "rn": make_params(f"rn{i}", d, 1, seed=30 + i),
                "od": make_params(f"od{i}", d, 1, seed=40 + i),
            }
        )
    typed = [("rn", src, dst, E_rn), ("od", src, dst, E_od)]
    out, recs = stack_hetero(V, typed, layer_params, fusion)
    assert out.shape == (n, d)
    assert len(recs) == 2

    params = fusion.parameters() + [
        p for lp in layer_params for eg in lp.values() for p in eg.parameters()
    ]

    def f():
        o, _ = stack_hetero(V, typed, layer_params, fusion)
        return entry_sum(o)

    assert finite_difference_check(f, params, h=1e-5) < 1e-4


def test_stack_hetero_one_layer_equals_single_call():
    rng = np.random.default_rng(16)
    V = Tensor(rng.normal(size=(4, 2)))
    src = np.array([0, 1]); dst = np.array([1, 0])
    E_rn = Tensor(rng.normal(size=(2, 1)))
    E_od = Tensor(rng.normal(size=(2, 1)))
    fusion = FusionParams.create("f", 2, rng)
    layer = {"rn": make_params("rn0", 2, 1, seed=50), "od": make_params("od0", 2, 1, seed=51)}
    typed = [("rn", src, dst, E_rn), ("od", src, dst, E_od)]
    stacked, _ = stack_hetero(V, typed, [layer], fusion)
    arcs = layer_arcs(src, dst, 4)
    v_rn, _, _ = egat_layer(V, E_rn, *arcs, layer["rn"])
    v_od, _, _ = egat_layer(V, E_od, *arcs, layer["od"])
    direct, _ = attention_fusion([("rn", v_rn), ("od", v_od)], fusion)
    assert np.array_equal(stacked.values, direct.values)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(0, 14),
    d_in=st.integers(1, 4),
    d_e=st.integers(1, 3),
    d_out=st.integers(1, 4),
    d_att=st.integers(1, 4),
    with_A=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_egat_property_matches_dense_reference(n, m, d_in, d_e, d_out, d_att, with_A, seed):
    # arbitrary arcs: self-arcs, repeats and nodes without incoming arcs included
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, d_in))
    E = rng.normal(size=(m, d_e))
    src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    params = EgatParams.create("p", d_in, d_e, d_out, d_e_out=d_e, d_att=d_att, rng=rng)
    V_ref, E_ref = dense_egat_reference(V, E, src, dst, params)
    if not with_A:
        params = EgatParams(params.W, params.U, params.a, A=None)

    V_out, E_out, rec = egat_layer(Tensor(V), Tensor(E), *layer_arcs(src, dst, n), params)
    assert np.max(np.abs(V_out.values - V_ref)) <= 1e-10 * (1 + np.abs(V_ref).max())
    if with_A:
        assert E_out.shape == E_ref.shape
        assert np.all(np.abs(E_out.values - E_ref) <= 1e-10 * (1 + np.abs(E_ref)))
    else:
        assert E_out is None
    # real arcs first, then one self-loop per node
    assert np.array_equal(rec.arc_dst, np.concatenate([dst, np.arange(n)]))
    sums = np.bincount(rec.arc_dst, weights=rec.arc_alpha.ravel(), minlength=n)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def fusion_reference(xs, c, W, b):
    """Per-tag loop: score each tag's rows, softmax across tags per node, weigh."""
    scores = np.hstack([np.tanh(x @ W + b) @ c for x in xs])  # n x n_tags
    exps = np.exp(scores - scores.max(axis=1, keepdims=True))
    beta = exps / exps.sum(axis=1, keepdims=True)
    out = sum(beta[:, [k]] * x for k, x in enumerate(xs))
    return out, beta


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    d=st.integers(1, 5),
    n_tags=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fusion_property_matches_per_tag_loop(n, d, n_tags, seed):
    rng = np.random.default_rng(seed)
    fusion = FusionParams.create("f", d, rng)
    fusion.b.tensor.values = rng.normal(size=(1, 1))
    xs = [rng.normal(size=(n, d)) for _ in range(n_tags)]
    tags = ("rn", "od", "x")[:n_tags]

    out, rec = attention_fusion([(t, Tensor(x)) for t, x in zip(tags, xs)], fusion)
    want_out, want_beta = fusion_reference(xs, fusion.c.values, fusion.W.values, fusion.b.values)
    assert rec.tags == tags
    assert rec.beta.shape == (n, n_tags)
    assert np.max(np.abs(rec.beta - want_beta)) <= 1e-12
    assert np.max(np.abs(out.values - want_out)) <= 1e-12 * (1 + np.abs(want_out).max())
