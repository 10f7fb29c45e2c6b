import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wirecat import endo
from wirecat.endo import (
    Tensor,
    evaluate_graph,
    identity_tensor,
    scalar_tensor,
    tensor_product,
    trace_contract,
)
from wirecat.errors import (
    DimMismatch,
    InvalidTensor,
    LabelClash,
    SizeCapExceeded,
    UnknownAxis,
)
from wirecat.graphs import DirectedGraph, corolla
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
    # So do sampled tensors, which are built from integer numerators.
    with pytest.raises(LabelClash):
        random_tensor(random.Random(0), 2, ["a", "a"], [])


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


def test_tensor_product_names_a_clash_of_mixed_labels():
    t = Tensor(2, [(IN, 1), (IN, "a")], [[1, 2], [3, 4]])
    with pytest.raises(LabelClash, match="shared axes"):
        tensor_product(t, t)


def test_tensors_of_two_dimensions_do_not_combine():
    with pytest.raises(DimMismatch):
        tensor_product(identity_tensor("a", 2), identity_tensor("b", 3))
    with pytest.raises(DimMismatch, match="vertex 1 has dim 3"):
        evaluate_graph(corolla(["a"], ["b"]), [Tensor(3, [(IN, "a"), (OUT, "b")], [0] * 9)], 2)


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


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def prime_tensor(rng, d, in_labels, out_labels):
    """A random tensor whose entries have denominators among the primes up
    to 97, so that its own denominator is a large product of coprimes."""
    axes = [(IN, l) for l in in_labels] + [(OUT, l) for l in out_labels]
    return Tensor(d, axes, [Fraction(rng.randint(-97, 97), rng.choice(PRIMES))
                            for _ in range(d ** len(axes))])


def check_against_state_sum(rng, d, count, sample):
    """Compare ``evaluate_graph`` with ``state_sum`` on ``count`` random graphs
    whose vertices carry tensors drawn by ``sample``."""
    checked = 0
    while checked < count:
        g = random_graph(rng)
        edge = edge_of(g)
        # At most 10 flags keeps evaluate_graph's outer products under
        # 3^10 entries; at most 8 edges keeps the state sum under 3^8 terms.
        if len(edge) > 10 or len(set(edge.values())) > 8:
            continue
        tensors = [sample(rng, d, sorted(ins), sorted(outs))
                   for ins, outs in (g.neighbourhood(k + 1)
                                     for k in range(g.r))]
        assert endo.evaluate_graph(g, tensors, d) == state_sum(g, tensors, d)
        checked += 1


def test_evaluate_graph_matches_state_sum():
    rng = random.Random(45)
    for d in (1, 2, 3):
        check_against_state_sum(rng, d, 100, random_tensor)
    # Every vertex brings its own denominator, so one dropped or counted
    # twice changes the value.
    rng = random.Random(49)
    for d in (1, 2, 3):
        check_against_state_sum(rng, d, 25, prime_tensor)


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


def operation_results():
    """A result of every tensor operation, on entries that cancel."""
    from wirecat.graphs import free_edge, free_loop
    rng = random.Random(48)
    d = 2
    s = random_tensor(rng, d, ["a"], ["b"])
    t = random_tensor(rng, d, ["c"], ["e"])
    halves = Tensor(d, [(IN, "h")], [Fraction(1, 2), Fraction(3, 2)])
    evens = Tensor(d, [(OUT, "k")], [2, -4])
    ring = ring_graph(3)
    return [
        s,
        endo.from_json(endo.to_json(s)),
        identity_tensor("a", d),
        scalar_tensor(d, Fraction(6, 4)),
        tensor_product(s, t),
        tensor_product(halves, evens),
        trace_contract(s, "a", "b"),
        trace_contract(identity_tensor("a", d).scale(Fraction(1, 2)), "a", "a"),
        s.scale(3),
        s.scale(0),
        s.scale(Fraction(2, 3)),
        s.scale(np.int64(3)),
        Tensor(d, [(IN, "n")], [np.int64(2), np.int64(4)]),
        s + s,
        halves + halves,
        s + s.scale(-1),
        s.rename_axes({(IN, "a"): (IN, "z")}),
        s.rename_axes({(IN, "a"): (OUT, "z")}),
        endo.evaluate_graph(ring, [random_tensor(rng, d, ["c", "x"], ["y"])
                                   for _ in range(3)], d),
        endo.evaluate_graph(chain_graph(), [mat_to_tensor([[1, 2], [3, 4]], d, "a", "m"),
                                            mat_to_tensor([[0, 1], [1, 0]], d, "m", "b")], d),
        endo.evaluate_graph(chain_graph(), [
            mat_to_tensor([[Fraction(1, 2), 0], [0, Fraction(3, 2)]], d, "a", "m"),
            mat_to_tensor([[2, 0], [0, 2]], d, "m", "b")], d),
        endo.evaluate_graph(free_edge("p", "q"), [], d),
        endo.evaluate_graph(free_loop(2), [], d),
    ]


def test_results_hold_only_fractions():
    for r in operation_results():
        assert all(type(x) is Fraction for x in r.data.reshape(-1)), r


def test_results_are_in_lowest_terms():
    for r in operation_results():
        assert all(type(n) is int for n in r.num.flat), r
        assert type(r.den) is int and r.den > 0, r
        assert math.gcd(r.den, *r.num.flat) == 1, r


def test_results_are_canonical():
    rng = random.Random(51)
    for r in operation_results():
        assert list(r.axes) == sorted(r.axes, key=repr), r
        assert not r.num.flags.writeable, r
        order = rng.sample(range(len(r.axes)), len(r.axes))
        again = Tensor(r.dim, [r.axes[k] for k in order], r.data.transpose(order))
        assert again == r and endo.to_json(again) == endo.to_json(r), r
        assert (again.num.tolist(), again.den) == (r.num.tolist(), r.den), r


def reference_random_tensor(rng, d, in_labels, out_labels):
    """``random_tensor`` by two ``rng.randint`` calls per entry."""
    axes = [(IN, l) for l in in_labels] + [(OUT, l) for l in out_labels]
    entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d ** len(axes))]
    return Tensor(d, axes, entries)


def test_random_tensor_draws_as_randint_does():
    shapes = [(n, m) for n in range(5) for m in range(5 - n)]
    for seed in range(200):
        n, m = shapes[seed % len(shapes)]
        ins, outs = ["x%d" % k for k in range(n)], ["y%d" % k for k in range(m)]
        for d in (1, 2, 3):
            got, want = random.Random(seed), random.Random(seed)
            assert random_tensor(got, d, ins, outs) == \
                reference_random_tensor(want, d, ins, outs), (seed, d)
            assert got.random() == want.random(), (seed, d)


def test_equal_tensors_have_one_representation():
    rng = random.Random(50)
    t = random_tensor(rng, 2, ["a"], ["b", "c"])
    zero = Tensor(2, t.axes, [0] * 8)
    half = Tensor(2, [(IN, "a")], [Fraction(1, 2), Fraction(3, 2)])
    cases = [
        (t.scale(Fraction(1, 3)).scale(3), t),
        (half + half, Tensor(2, [(IN, "a")], [1, 3])),
        (scalar_tensor(2, Fraction(1, 2)) + scalar_tensor(2, Fraction(1, 2)),
         scalar_tensor(2)),
        (t.scale(0), zero),
        (t + t.scale(-1), zero),
        (zero.scale(Fraction(1, 7)), zero),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert endo.to_json(got) == endo.to_json(want)
        assert (got.num.tolist(), got.den) == (want.num.tolist(), want.den)
    assert zero.den == 1 and (t + t.scale(-1)).den == 1


@pytest.mark.parametrize("entry", [0.1, 1.0, True, np.float64(0.5), np.True_,
                                   "1/0", None])
def test_library_input_must_be_exact(entry):
    for make in (lambda: Tensor(2, [], [entry]),
                 lambda: Tensor(2, [(IN, "a")], [[1], [entry]]),
                 lambda: Tensor(2, [(IN, "a")], [Fraction(1, 3), entry]),
                 lambda: identity_tensor("a", 2).scale(entry),
                 lambda: scalar_tensor(2, entry)):
        with pytest.raises(InvalidTensor):
            make()
    assert Tensor(2, [], ["1/10"]) == scalar_tensor(2, Fraction(1, 10))


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
