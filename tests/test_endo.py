import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from wirecat import endo
from wirecat.endo import (
    Tensor,
    identity_tensor,
    scalar_tensor,
    tensor_product,
    trace_contract,
)
from wirecat.errors import DimMismatch, LabelClash, SizeCapExceeded, UnknownAxis
from wirecat.graphs import DirectedGraph
from wirecat.sampling import random_fraction, random_graph, random_tensor
from wirecat.wiring import IN, OUT


def edge_of(g):
    """Number the edges of ``g``: internal edges, boundary legs, free edges.

    Maps every flag to the index of the edge it lies on.
    """
    out, fresh = {}, itertools.count()
    for f in sorted(set(g.lam) | g.exceptional, key=repr):
        if f not in out:
            mate = g.pi[f] if f in g.exceptional else g.iota.get(f, f)
            out[f] = out[mate] = next(fresh)
    return out


def state_sum(g, vertex_tensors, d):
    """Brute-force value of a graph whose vertices carry tensors.

    Sums, over every assignment of an index in 0..d-1 to each edge, the
    product of the vertex entries that the assignment picks; each free loop
    multiplies by d.  Exponential in the number of edges, and shares no code
    with ``tensor_product``, ``trace_contract`` or ``evaluate_graph``:
    ``Tensor`` only holds the result.
    """
    edge = edge_of(g)
    pol = {1: IN, -1: OUT}
    picks = []
    for k, t in enumerate(vertex_tensors):
        axis_edge = {(pol[g.delta[f]], g.lam[f]): edge[f]
                     for f in g.vertices[k]}
        picks.append((t.data, [axis_edge[a] for a in t.axes]))
    legs = sorted(g.beta, key=repr)
    axes = [(pol[g.delta[f]], g.beta[f]) for f in legs]
    out = np.full((d,) * len(axes), Fraction(0), dtype=object)
    loops = Fraction(d) ** g.loop_count
    for state in itertools.product(range(d), repeat=len(set(edge.values()))):
        term = loops
        for data, es in picks:
            term *= data[tuple(state[e] for e in es)]
        out[tuple(state[edge[f]] for f in legs)] += term
    return Tensor(d, axes, out)


def mat_to_tensor(M, d, in_label="x", out_label="y"):
    """The linear map with matrix M (rows = outputs) as a tensor."""
    data = [[M[j][i] for j in range(d)] for i in range(d)]
    return Tensor(d, [(IN, in_label), (OUT, out_label)], data)


def random_matrix(rng, d):
    return [[random_fraction(rng) for _ in range(d)] for _ in range(d)]


def matmul(A, B, d):
    return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def test_axes_are_canonically_ordered():
    t1 = Tensor(2, [(IN, "a"), (OUT, "b")], [[1, 2], [3, 4]])
    t2 = Tensor(2, [(OUT, "b"), (IN, "a")], [[1, 3], [2, 4]])
    assert t1 == t2 and hash(t1) == hash(t2)


def test_duplicate_axes_rejected():
    with pytest.raises(LabelClash):
        Tensor(2, [(IN, "a"), (IN, "a")], [[1, 0], [0, 1]])
    # Results built without re-coercing their entries keep the check.
    with pytest.raises(LabelClash):
        identity_tensor("a", 2).rename_axes({(IN, "a"): (OUT, "a")})


def test_scalar_value_and_add():
    s = scalar_tensor(3, Fraction(1, 2))
    assert (s + s).scalar_value() == 1
    with pytest.raises(UnknownAxis):
        identity_tensor("a", 2).scalar_value()


def test_add_requires_same_axes():
    with pytest.raises(DimMismatch):
        scalar_tensor(2) + identity_tensor("a", 2)


def test_trace_of_identity_is_d():
    for d in range(1, 5):
        t = trace_contract(identity_tensor("l", d), "l", "l")
        assert t.scalar_value() == d


def test_tensor_product_label_clash():
    with pytest.raises(LabelClash):
        tensor_product(identity_tensor("a", 2), identity_tensor("a", 2))


def test_tensor_product_cap():
    t = identity_tensor("a", 2)
    u = identity_tensor("b", 2)
    with pytest.raises(SizeCapExceeded):
        tensor_product(t, u, cap_power=3)


def test_dioperadic_is_matrix_product():
    from wirecat.wprop import EndoWheeledProp
    rng = random.Random(41)
    for d in (2, 3):
        w = EndoWheeledProp(d)
        for _ in range(40):
            A = random_matrix(rng, d)
            B = random_matrix(rng, d)
            ta = mat_to_tensor(A, d, "x", "y")
            tb = mat_to_tensor(B, d, "u", "v")
            composed = w.dioperadic(ta, "x", tb, "v")
            want = mat_to_tensor(matmul(A, B, d), d, "u", "y")
            assert composed == want


def test_trace_is_cyclic():
    rng = random.Random(42)
    for _ in range(100):
        d = rng.choice([2, 3])
        A = random_matrix(rng, d)
        B = random_matrix(rng, d)
        tab = mat_to_tensor(matmul(A, B, d), d)
        tba = mat_to_tensor(matmul(B, A, d), d)
        assert trace_contract(tab, "x", "y") == trace_contract(tba, "x", "y")


def chain_graph():
    """v1 --> v2 with boundary in-leg p on v1 and out-leg q on v2."""
    return DirectedGraph([[0, 1], [2, 3]], (), {1: 2, 2: 1}, {},
                         {0: 1, 1: -1, 2: 1, 3: -1},
                         {0: "a", 1: "m", 2: "m", 3: "b"},
                         {0: "p", 3: "q"}, 0)


def test_evaluate_chain_is_composition():
    rng = random.Random(43)
    d = 3
    A = random_matrix(rng, d)
    B = random_matrix(rng, d)
    ta = mat_to_tensor(A, d, "a", "m")
    tb = mat_to_tensor(B, d, "m", "b")
    out = endo.evaluate_graph(chain_graph(), [ta, tb], d)
    assert out == mat_to_tensor(matmul(B, A, d), d, "p", "q")


def test_evaluate_free_edge_and_loops():
    from wirecat.graphs import free_edge, free_loop
    d = 4
    out = endo.evaluate_graph(free_edge("p", "q"), [], d)
    assert out == identity_tensor("?", d).rename_axes(
        {(IN, "?"): (IN, "p"), (OUT, "?"): (OUT, "q")})
    assert endo.evaluate_graph(free_loop(3), [], d).scalar_value() == d ** 3


def test_evaluate_graph_matches_state_sum():
    rng = random.Random(45)
    for d in (1, 2, 3):
        checked = 0
        while checked < 100:
            g = random_graph(rng)
            edge = edge_of(g)
            # At most 10 flags keeps evaluate_graph's outer products under
            # 3^10 entries; at most 8 edges keeps the state sum under 3^8 terms.
            if len(edge) > 10 or len(set(edge.values())) > 8:
                continue
            tensors = [random_tensor(rng, d, sorted(ins), sorted(outs))
                       for ins, outs in (g.neighbourhood(k + 1)
                                         for k in range(g.r))]
            assert endo.evaluate_graph(g, tensors, d) == \
                state_sum(g, tensors, d)
            checked += 1


def ring_graph(k):
    """k vertices in a ring, each with in-axes x and c and out-axis y: the y
    of vertex j feeds the c of vertex j+1 (mod k), and each x is a boundary
    leg.  This is the shape of the k-th Killing form."""
    vertices = [[3 * j, 3 * j + 1, 3 * j + 2] for j in range(k)]
    iota = {}
    for j in range(k):
        y, c = 3 * j + 2, 3 * ((j + 1) % k) + 1
        iota[y], iota[c] = c, y
    delta = {f: -1 if f % 3 == 2 else 1 for f in range(3 * k)}
    lam = {f: "xcy"[f % 3] for f in range(3 * k)}
    beta = {3 * j: "x%d" % j for j in range(k)}
    return DirectedGraph(vertices, (), iota, {}, delta, lam, beta, 0)


def test_ring_evaluates_at_its_planned_peak():
    # In vertex order the running product holds x_0..x_j, the open c of
    # vertex 0 and the open y of vertex j: j+3 axes, k+1 at j = k-2.
    rng = random.Random(47)
    d = 2
    for k in range(2, 7):
        g = ring_graph(k)
        tensors = [random_tensor(rng, d, ["c", "x"], ["y"]) for _ in range(k)]
        got = endo.evaluate_graph(g, tensors, d, cap_power=k + 1)
        assert got == state_sum(g, tensors, d)
        with pytest.raises(SizeCapExceeded):
            endo.evaluate_graph(g, tensors, d, cap_power=k)


def test_results_hold_only_fractions():
    from wirecat.graphs import free_edge, free_loop
    rng = random.Random(48)
    d = 2
    s = random_tensor(rng, d, ["a"], ["b"])
    t = random_tensor(rng, d, ["c"], ["e"])
    ring = ring_graph(3)
    results = [
        tensor_product(s, t),
        trace_contract(s, "a", "b"),
        s.scale(3),
        s.scale(0),
        s + s,
        s.rename_axes({(IN, "a"): (IN, "z")}),
        endo.evaluate_graph(ring, [random_tensor(rng, d, ["c", "x"], ["y"])
                                   for _ in range(3)], d),
        endo.evaluate_graph(chain_graph(), [mat_to_tensor([[1, 2], [3, 4]], d, "a", "m"),
                                            mat_to_tensor([[0, 1], [1, 0]], d, "m", "b")], d),
        endo.evaluate_graph(free_edge("p", "q"), [], d),
        endo.evaluate_graph(free_loop(2), [], d),
    ]
    for r in results:
        assert all(type(x) is Fraction for x in r.data.reshape(-1)), r


def test_state_sum_of_a_chain_is_composition():
    rng = random.Random(46)
    for d in (1, 2, 3):
        A = random_matrix(rng, d)
        B = random_matrix(rng, d)
        ta = mat_to_tensor(A, d, "a", "m")
        tb = mat_to_tensor(B, d, "m", "b")
        assert state_sum(chain_graph(), [ta, tb], d) == \
            mat_to_tensor(matmul(B, A, d), d, "p", "q")


def test_evaluate_decorated_binds_generators():
    g = chain_graph()
    d = 2
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    raw = [[M[j][i] for j in range(d)] for i in range(d)]
    decor = [("f", ("a",), ("m",)), ("f", ("m",), ("b",))]
    out = endo.evaluate_decorated(g, decor, {"f": raw}, d)
    assert out == mat_to_tensor(matmul(M, M, d), d, "p", "q")


def test_json_roundtrip():
    rng = random.Random(44)
    from wirecat.sampling import random_tensor
    for _ in range(20):
        t = random_tensor(rng, 2, ["a", "b"], ["c"])
        assert endo.from_json(endo.to_json(t)) == t
        assert endo.to_json(t) == endo.to_json(endo.from_json(endo.to_json(t)))
