import numpy as np
import pytest

from roadcarbon.layers import (
    EgatParams,
    FusionParams,
    attention_fusion,
    egat_layer,
    hetero_layer,
    stack_egat,
    stack_hetero,
)
from roadcarbon.optim import finite_difference_check
from roadcarbon.tensor import Tensor, backward, mse_loss


def make_params(prefix, d_in, d_e, d_out=None, d_att=4, seed=0):
    rng = np.random.default_rng(seed)
    d_out = d_out or d_in
    return EgatParams.create(prefix, d_in, d_e, d_out, d_e_out=d_e, d_att=d_att, rng=rng)


def dense_reference(V, E, src, dst, params, slope=0.2):
    """O(N^2)-style per-node loop implementation of the convolution."""
    n, d_in = V.shape
    W, U, a = params.W.values, params.U.values, params.a.values
    d_e = params.d_e
    incoming = {i: [] for i in range(n)}
    for k, (s, d) in enumerate(zip(src, dst)):
        incoming[d].append((s, E[k]))
    for i in range(n):
        incoming[i].append((i, np.zeros(d_e)))  # self-loop
    V_out = np.zeros((n, W.shape[1]))
    for i in range(n):
        scores = []
        for j, e in incoming[i]:
            cat = np.concatenate([V[i], e, V[j]])
            h = (cat @ U @ a).item()
            scores.append(h if h >= 0 else slope * h)
        scores = np.array(scores)
        exps = np.exp(scores - scores.max())
        alpha = exps / exps.sum()
        for (j, _), w in zip(incoming[i], alpha):
            V_out[i] += w * (V[j] @ W)
    E_out = np.stack(
        [np.concatenate([V[d], E[k], V[s]]) @ params.A.values for k, (s, d) in enumerate(zip(src, dst))]
    ) if len(src) else np.zeros((0, params.A.values.shape[1]))
    return V_out, E_out


def random_graph(rng, n, d_in=3, d_e=2):
    V = rng.normal(size=(n, d_in))
    m = rng.integers(1, max(2, n * 2))
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    E = rng.normal(size=(m, d_e))
    return V, E, src, dst


def test_single_node_no_arcs_is_self_transform():
    params = make_params("p", 3, 2)
    V = Tensor([[1.0, -2.0, 0.5]])
    E = Tensor(np.zeros((0, 2)))
    V_out, E_out, rec = egat_layer(V, E, [], [], params)
    assert np.allclose(V_out.values, V.values @ params.W.values)
    assert rec.arc_alpha[0, 0] == 1.0
    assert E_out.shape == (0, 2)


def test_layer_without_arc_updater_returns_no_arcs():
    rng = np.random.default_rng(4)
    V, E, src, dst = random_graph(rng, 6)
    full = make_params("p", 3, 2)
    terminal = EgatParams(full.W, full.U, full.a, A=None)
    v_full, _, _ = egat_layer(Tensor(V), Tensor(E), src, dst, full)
    v_term, e_term, _ = egat_layer(Tensor(V), Tensor(E), src, dst, terminal)
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
    backward(out.sum())
    params = [p for layer in layers for p in layer.parameters()]
    assert all(p.grad is not None for p in params)
    assert not layers[0].A.grad.any()


def test_symmetric_nodes_get_equal_outputs():
    params = make_params("p", 2, 1)
    V = Tensor([[0.3, -0.8], [0.3, -0.8]])
    E = Tensor([[0.5], [0.5]])
    V_out, _, _ = egat_layer(V, E, [0, 1], [1, 0], params)
    assert np.array_equal(V_out.values[0], V_out.values[1])


def test_alpha_sums_to_one_per_destination():
    rng = np.random.default_rng(0)
    V, E, src, dst = random_graph(rng, 20)
    params = make_params("p", 3, 2)
    _, _, rec = egat_layer(Tensor(V), Tensor(E), src, dst, params)
    sums = np.bincount(rec.arc_dst, weights=rec.arc_alpha.ravel(), minlength=20)
    assert np.all(np.abs(sums - 1.0) < 1e-9)


def test_egat_matches_dense_reference():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 11))
        V, E, src, dst = random_graph(rng, n)
        params = make_params("p", 3, 2, seed=trial)
        V_out, E_out, _ = egat_layer(Tensor(V), Tensor(E), src, dst, params)
        V_ref, E_ref = dense_reference(V, E, src, dst, params)
        assert np.max(np.abs(V_out.values - V_ref)) < 1e-10
        assert np.max(np.abs(E_out.values - E_ref)) < 1e-10


def test_egat_permutation_equivariance():
    rng = np.random.default_rng(2)
    n = 9
    V, E, src, dst = random_graph(rng, n)
    params = make_params("p", 3, 2)
    out, _, _ = egat_layer(Tensor(V), Tensor(E), src, dst, params)
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    out_p, _, _ = egat_layer(Tensor(V[perm]), Tensor(E), inv[src], inv[dst], params)
    assert np.max(np.abs(out_p.values - out.values[perm])) < 1e-9


def test_egat_gradient_check():
    rng = np.random.default_rng(3)
    V, E, src, dst = random_graph(rng, 6)
    params = make_params("p", 3, 2)
    target = Tensor(rng.normal(size=(6, 3)))
    Vt = Tensor(V)
    Et = Tensor(E)

    def f():
        out, e_out, _ = egat_layer(Vt, Et, src, dst, params)
        return mse_loss(out.sum(), e_out.sum())

    assert finite_difference_check(f, params.parameters()) < 1e-6


def test_egat_dimension_mismatch():
    params = make_params("p", 3, 2)
    with pytest.raises(ValueError, match="d_in"):
        egat_layer(Tensor(np.zeros((2, 5))), Tensor(np.zeros((0, 2))), [], [], params)


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
    beta1 = segment_softmax(Tensor(scores), seg, n).values
    beta2 = segment_softmax(Tensor(scores + 7.25), seg, n).values
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
        return out.sum()

    assert finite_difference_check(f, fusion.parameters()) < 1e-6


def test_hetero_layer_zero_od_arcs_still_fuses():
    rng = np.random.default_rng(9)
    V = Tensor(rng.normal(size=(4, 3)))
    p_rn = make_params("rn", 3, 2, seed=1)
    p_od = make_params("od", 3, 1, seed=2)
    fusion = FusionParams.create("f", 3, rng)
    src = np.array([0, 1]); dst = np.array([1, 0])
    out, edges, rec = hetero_layer(
        V,
        [
            ("rn", src, dst, Tensor(rng.normal(size=(2, 2))), p_rn),
            ("od", np.zeros(0, int), np.zeros(0, int), Tensor(np.zeros((0, 1))), p_od),
        ],
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
    out, edges, rec = hetero_layer(
        V, [("rn", src, dst, E, params), ("od", src, dst, E, params)], fusion
    )
    assert np.allclose(rec.fusion.beta, 0.5)
    v_rn, _, _ = egat_layer(V, E, src, dst, params)
    assert np.allclose(out.values, v_rn.values)


def test_hetero_layer_single_type_beta_is_one():
    rng = np.random.default_rng(11)
    V = Tensor(rng.normal(size=(3, 2)))
    params = make_params("x", 2, 1, seed=4)
    fusion = FusionParams.create("f", 2, rng)
    out, _, rec = hetero_layer(
        V, [("rn", np.array([0]), np.array([1]), Tensor([[1.0]]), params)], fusion
    )
    assert np.array_equal(rec.fusion.beta, np.ones((3, 1)))


def test_stack_egat_one_layer_equals_single_call():
    rng = np.random.default_rng(12)
    V, E, src, dst = random_graph(rng, 5)
    params = make_params("p", 3, 2)
    v1, e1, _ = egat_layer(Tensor(V), Tensor(E), src, dst, params)
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
    V, E, src, dst = random_graph(rng, 5, d_in=2, d_e=2)
    layers = [make_params(f"l{i}", 2, 2, seed=20 + i) for i in range(3)]
    params = [p for lp in layers for p in lp.parameters()]
    Vt, Et = Tensor(V), Tensor(E)

    def f():
        out, e_out, _ = stack_egat(Vt, Et, src, dst, layers)
        return mse_loss(out.sum(), e_out.sum())

    assert finite_difference_check(f, params, h=1e-5) < 1e-4


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
        return o.sum()

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
    direct, _, _ = hetero_layer(
        V,
        [("rn", src, dst, E_rn, layer["rn"]), ("od", src, dst, E_od, layer["od"])],
        fusion,
    )
    assert np.array_equal(stacked.values, direct.values)
