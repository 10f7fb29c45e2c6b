import itertools
import random

import pytest

from wirecat import graphs
from wirecat.errors import BoundaryMismatch, InvalidGraph, UnknownVertex
from wirecat.graphs import (
    DirectedGraph,
    canonical_form,
    corolla,
    free_edge,
    free_loop,
    is_isomorphic_loose,
    is_isomorphic_strict,
    loose_canonical_form,
    reorder,
    substitute,
    substitute_all,
)
from wirecat.sampling import random_graph, random_graph_with_boundary


def rename_flags(g: DirectedGraph, f):
    """Rebuild g with every flag renamed by the injection f."""
    return DirectedGraph(
        [[f(x) for x in v] for v in g.vertices],
        [f(x) for x in g.exceptional],
        {f(a): f(b) for a, b in g.iota.items()},
        {f(a): f(b) for a, b in g.pi.items()},
        {f(a): d for a, d in g.delta.items()},
        {f(a): l for a, l in g.lam.items()},
        {f(a): l for a, l in g.beta.items()},
        g.loop_count,
    )


def chain_graph():
    """v1 --(edge)--> v2 with one in-leg on v1 and one out-leg on v2."""
    return DirectedGraph(
        vertices=[[0, 1], [2, 3]],
        exceptional=(),
        iota={1: 2, 2: 1},
        pi={},
        delta={0: 1, 1: -1, 2: 1, 3: -1},
        lam={0: "a", 1: "m", 2: "m", 3: "b"},
        beta={0: "p", 3: "q"},
        loop_count=0,
    )


def test_validate_accepts_samples():
    rng = random.Random(20)
    for _ in range(60):
        random_graph(rng)  # constructor validates


def test_validate_rejects_involution_violation():
    with pytest.raises(InvalidGraph):
        DirectedGraph([[0, 1]], (), {0: 1}, {}, {0: 1, 1: -1},
                      {0: "a", 1: "b"}, {}, 0)


def test_validate_rejects_orientation_violation():
    # iota must pair flags of opposite orientation
    with pytest.raises(InvalidGraph):
        DirectedGraph([[0, 1]], (), {0: 1, 1: 0}, {}, {0: 1, 1: 1},
                      {0: "a", 1: "b"}, {}, 0)


def test_corolla_orders_mixed_labels_numbers_first():
    g = corolla([1, "a"], ["b", 2])
    assert [g.lam[f] for f in sorted(g.lam)] == [1, "a", 2, "b"]
    assert g.beta == g.lam


def test_validate_rejects_label_clash():
    # two in-flags of one vertex may not share a label
    with pytest.raises(InvalidGraph):
        DirectedGraph([[0, 1]], (), {}, {}, {0: 1, 1: 1},
                      {0: "a", 1: "a"}, {0: "p", 1: "q"}, 0)


def test_validate_rejects_duplicate_boundary_label():
    with pytest.raises(InvalidGraph):
        DirectedGraph([[0], [1]], (), {}, {}, {0: 1, 1: 1},
                      {0: "a", 1: "a"}, {0: "p", 1: "p"}, 0)


@pytest.mark.parametrize("parts, clause", [
    (([[0], [0]], (), {}, {}, {0: 1}, {0: "a"}, {0: "p"}), "PartitionOverlap"),
    (([], [0, 1], {0: 1, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: -1}, {}, {}),
     "ExceptionalLeak: iota moves exceptional"),
    (([], [0, 1], {}, {}, {0: 1, 1: -1}, {}, {0: "p", 1: "q"}), "PiDomain"),
    (([], [0], {}, {0: 0}, {0: 1}, {}, {0: "p"}), "PiFixedPoint: pi fixes"),
    (([], [0, 1, 2], {}, {0: 1, 1: 2, 2: 0}, {0: 1, 1: -1, 2: 1}, {},
      {0: "p", 1: "q", 2: "r"}), "PiFixedPoint: pi not an involution"),
    (([[0]], (), {}, {}, {}, {0: "a"}, {0: "p"}), "DeltaMismatch: no direction"),
    (([], [0, 1], {}, {0: 1, 1: 0}, {0: 1, 1: 1}, {}, {0: "p", 1: "q"}),
     "DeltaMismatch: delta equal across free edge"),
    (([], (), {}, {}, {7: 1}, {}, {}), "DeltaMismatch: delta directs flags"),
    (([[0]], (), {}, {}, {0: 1}, {}, {0: "p"}), "LabelCollision: lambda domain"),
])
def test_validate_names_each_violated_clause(parts, clause):
    with pytest.raises(InvalidGraph) as caught:
        DirectedGraph(*parts)
    assert any(v.startswith(clause) for v in caught.value.violations)


def test_boundary_of_chain():
    g = chain_graph()
    assert g.boundary() == (frozenset({"p"}), frozenset({"q"}))


def test_canonical_form_invariant_under_flag_renaming():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng)
        flags = sorted(g.delta, key=repr)
        names = ["f%d" % k for k in range(len(flags))]
        rng.shuffle(names)
        table = dict(zip(flags, names))
        h = rename_flags(g, lambda x: table[x])
        assert canonical_form(g) == canonical_form(h)
        assert is_isomorphic_strict(g, h)


def test_strict_iso_detects_reordering():
    g = chain_graph()
    h = reorder(g, [2, 1])
    assert not is_isomorphic_strict(g, h) or g.r < 2
    assert is_isomorphic_loose(g, h) == (2, 1)


def test_loose_canonical_form_invariant_under_reordering():
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph(rng)
        order = list(range(1, g.r + 1))
        rng.shuffle(order)
        h = reorder(g, order)
        assert loose_canonical_form(g) == loose_canonical_form(h)


def test_loose_canonical_form_respects_decorations():
    g = chain_graph()
    h = reorder(g, [2, 1])
    assert loose_canonical_form(g, ["A", "B"]) == loose_canonical_form(h, ["B", "A"])
    assert loose_canonical_form(g, ["A", "B"]) != loose_canonical_form(h, ["A", "B"])


def test_loose_iso_negative():
    g = chain_graph()
    h = free_loop(1)
    assert is_isomorphic_loose(g, h) is None


def loosely_isomorphic(g, g_decor, h, h_decor):
    """Brute force: whether some vertex order of ``g``, each decoration moving
    with its vertex, is strictly isomorphic to ``h`` with its decorations."""
    target = (canonical_form(h), tuple(h_decor))
    return g.r == h.r and any(
        (canonical_form(reorder(g, order)), tuple(g_decor[i - 1] for i in order)) == target
        for order in itertools.permutations(range(1, g.r + 1)))


def shuffled(rng, g, decor):
    """``g`` with its vertices in random order and its flags renamed at random,
    with the decorations moved along."""
    order = list(range(1, g.r + 1))
    rng.shuffle(order)
    table = dict(zip(g.delta, rng.sample(range(10 * len(g.delta) + 10), len(g.delta))))
    return (rename_flags(reorder(g, order), table.__getitem__),
            [decor[i - 1] for i in order])


def cover_graph(base_r, edges, k):
    """The k-fold cyclic cover of a closed graph on ``base_r`` vertices: its
    edge number e, ``(u, v, s)``, lifts to the edges from (u, i) to
    (v, i + s mod k) at the ports ``o<e>`` and ``i<e>``.  Colour refinement
    alone cannot split the k lifts of a vertex."""
    vertices = [[] for _ in range(base_r * k)]
    delta, lam, iota = {}, {}, {}
    for e, (u, v, s) in enumerate(edges):
        for i in range(k):
            out, inn = len(delta), len(delta) + 1
            delta[out], lam[out], delta[inn], lam[inn] = -1, "o%d" % e, 1, "i%d" % e
            vertices[u * k + i].append(out)
            vertices[v * k + (i + s) % k].append(inn)
            iota[out], iota[inn] = inn, out
    return DirectedGraph(vertices, (), iota, {}, delta, lam, {}, 0)


def random_cover(rng, max_vertices):
    base_r = rng.randint(1, 2)
    k = rng.randint(1, max_vertices // base_r)
    return cover_graph(base_r, random_voltages(rng, base_r, k, rng.randint(1, 3)), k)


def random_voltages(rng, base_r, k, n_edges):
    return [(rng.randrange(base_r), rng.randrange(base_r), rng.randrange(k))
            for _ in range(n_edges)]


def union(parts):
    """The disjoint union of the graphs ``parts``, vertices in part order."""
    def merged(field):
        return {(k, a): b for k, g in enumerate(parts) for a, b in getattr(g, field).items()}
    def paired(field):
        return {(k, a): (k, b) for k, g in enumerate(parts)
                for a, b in getattr(g, field).items()}
    return DirectedGraph(
        [[(k, f) for f in v] for k, g in enumerate(parts) for v in g.vertices],
        [(k, f) for k, g in enumerate(parts) for f in g.exceptional],
        paired("iota"), paired("pi"), merged("delta"), merged("lam"),
        merged("beta"), sum(g.loop_count for g in parts))


def assert_keys_match_oracle(pool):
    """Equal loose keys exactly on the brute-force isomorphic pairs of
    ``pool``; returns the number of isomorphic pairs."""
    keys = [loose_canonical_form(g, decor) for g, decor in pool]
    same = 0
    for (a, (g, dg)), (b, (h, dh)) in itertools.combinations(enumerate(pool), 2):
        if g.r == h.r and g.boundary() == h.boundary():
            iso = loosely_isomorphic(g, dg, h, dh)
            assert (keys[a] == keys[b]) == iso, (graphs.to_json(g), dg,
                                                 graphs.to_json(h), dh)
            same += iso
    return same


def test_loose_key_agrees_with_brute_force_oracle():
    rng = random.Random(40)
    pool = []
    for _ in range(100):
        g = random_graph(rng, max_vertices=4, max_flags=2, max_free_edges=1, max_loops=1)
        decor = [rng.choice("AB") for _ in range(g.r)]
        pool += [(g, decor), shuffled(rng, g, decor)]
    same = assert_keys_match_oracle(pool)
    for _ in range(40):
        # Covers of one shape, alike to colour refinement.
        base_r, k = rng.choice([(1, 3), (1, 4), (1, 5), (2, 2)])
        n_edges = rng.randint(1, 3)
        decor = [rng.choice("AB") for _ in range(base_r * k)]
        pool = []
        for _ in range(3):
            g = cover_graph(base_r, random_voltages(rng, base_r, k, n_edges), k)
            pool += [(g, decor), shuffled(rng, g, decor)]
        same += assert_keys_match_oracle(pool)
    assert same > 200


def test_loose_key_agrees_with_oracle_on_unions_of_identical_parts():
    rng = random.Random(41)
    parts = []
    for _ in range(6):
        part = random_cover(rng, 3)
        parts.append((part, [rng.choice("AB") for _ in range(part.r)]))
    pool = []
    while len(pool) < 60:
        picked = []
        while sum(p[0].r for p in picked) < 4:
            picked += [rng.choice(parts)] * rng.randint(1, 2)
        if sum(p[0].r for p in picked) <= 6:
            g = union([p[0] for p in picked])
            pool.append(shuffled(rng, g, [d for p in picked for d in p[1]]))
    assert assert_keys_match_oracle(pool) > 50


def test_loose_key_has_no_size_limit():
    rng = random.Random(42)
    cases = [(cover_graph(1, [(0, 0, 1)], n), [None] * n) for n in range(9, 31)]
    part = cover_graph(2, [(0, 1, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 1)
    for k in range(9, 13):
        cases.append((union([part] * k), ["A", "B"] * k))
    for g, decor in cases:
        h, h_decor = shuffled(rng, g, decor)
        assert loose_canonical_form(g, decor) == loose_canonical_form(h, h_decor)
        order = is_isomorphic_loose(g, h)
        assert is_isomorphic_strict(reorder(g, order), h)


def test_loose_key_of_cycles_of_two_lengths():
    # Directed 6-, 3- and 3-cycles of identical vertices: the search meets a
    # node whose trace is worse than the best leaf's and prunes it.
    rng = random.Random(44)
    g = union([cover_graph(1, [(0, 0, 1)], n) for n in (6, 3, 3)])
    key = loose_canonical_form(g)
    for _ in range(20):
        h, _ = shuffled(rng, g, [None] * g.r)
        assert loose_canonical_form(h) == key
    assert loose_canonical_form(union([cover_graph(1, [(0, 0, 1)], 4)] * 3)) != key


def test_loose_key_is_the_strict_key_in_its_order():
    # The loose key reuses the vertex records of one ``canonical_form`` pass;
    # it must equal the strict key of the graph reordered to the winning order.
    rng = random.Random(43)
    cases = []
    for _ in range(150):
        g = random_graph(rng, max_vertices=5)
        cases.append((g, [rng.choice("AB") for _ in range(g.r)]))
    for n in range(3, 31):
        cases.append(shuffled(rng, cover_graph(1, [(0, 0, 1)], n), [None] * n))
    for g, decor in cases:
        key, order = loose_canonical_form(g, decor, with_order=True)
        order = [v - 1 for v in order]
        assert key == (canonical_form(reorder(g, [v + 1 for v in order])),
                       tuple(decor[v] for v in order))


def test_reorder_rejects_non_permutation():
    with pytest.raises(UnknownVertex):
        reorder(chain_graph(), [1, 1])


def test_substitute_checks_the_vertex_and_the_boundary():
    g = corolla(["a"], ["b"])
    with pytest.raises(UnknownVertex):
        substitute(g, 2, g)
    with pytest.raises(BoundaryMismatch):
        substitute(g, 1, corolla(["a"], ["c"]))


def test_corolla_refuses_a_repeated_label():
    with pytest.raises(InvalidGraph, match="LabelCollision"):
        corolla(["a", "a"], [])


@pytest.mark.parametrize("count", [-1, 1.5])
def test_free_loop_refuses_a_count_that_is_no_nonnegative_integer(count):
    with pytest.raises(InvalidGraph, match="LoopCount"):
        free_loop(count)


def test_a_graph_copies_the_maps_it_is_given():
    # ``DirectedGraph(...)`` copies its input, so a caller's later writes
    # into the lists and dicts it passed leave the graph unchanged.
    parts = [[[0, 1], [2, 3]], [4, 5], {1: 2, 2: 1}, {4: 5, 5: 4},
             {0: 1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1},
             {0: "a", 1: "m", 2: "m", 3: "b"}, {0: "p", 3: "q", 4: "r", 5: "s"}]
    g = DirectedGraph(*parts, 1)
    before = graphs.to_json(g)
    parts[0][0].append(6)
    parts[1].append(6)
    for m in parts[2:]:
        m[0], m[6] = m.pop(1, "x"), -1
    assert graphs.to_json(g) == before and g.validate() == []


def test_substitute_corolla_unit_left():
    # Substituting the matching corolla into any vertex changes nothing.
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng)
        if not g.r:
            continue
        v = rng.randint(1, g.r)
        ins, outs = g.neighbourhood(v)
        assert is_isomorphic_strict(substitute(g, v, corolla(ins, outs)), g)


def test_substitute_corolla_unit_right():
    # Substituting any graph into a corolla gives that graph back.
    rng = random.Random(24)
    for _ in range(30):
        h = random_graph_with_boundary(rng, ["p0", "p1"], ["q0"])
        ins, outs = h.boundary()
        g = corolla(ins, outs)
        assert is_isomorphic_strict(substitute(g, 1, h), h)


def test_substitute_free_edge_makes_loop():
    # A vertex with one in- and one out-leg wired to itself swallows a free
    # edge into a closed loop.
    g = DirectedGraph([[0, 1]], (), {0: 1, 1: 0}, {},
                      {0: 1, 1: -1}, {0: "x", 1: "y"}, {}, 0)
    h = free_edge("x", "y")
    out = substitute(g, 1, h)
    assert out.r == 0
    assert out.loop_count == 1


def test_substitute_all_matches_iterated():
    rng = random.Random(25)
    for _ in range(20):
        g = random_graph_with_boundary(rng, ["p0"], ["q0"], max_vertices=3)
        if g.r < 2:
            continue
        inner = {}
        for v in range(1, g.r + 1):
            ins, outs = g.neighbourhood(v)
            inner[v] = random_graph_with_boundary(rng, sorted(ins), sorted(outs),
                                                  max_vertices=2)
        combined = substitute_all(g, inner)
        step = g
        for v in sorted(inner, reverse=True):
            step = substitute(step, v, inner[v])
        assert is_isomorphic_strict(combined, step)


def test_substitution_associativity():
    # Substituting h into g and then k into a vertex coming from h equals
    # substituting k into h first.
    rng = random.Random(26)
    done = 0
    while done < 20:
        g = random_graph_with_boundary(rng, ["p0"], ["q0"], max_vertices=2)
        if not g.r:
            continue
        v = rng.randint(1, g.r)
        ins, outs = g.neighbourhood(v)
        h = random_graph_with_boundary(rng, sorted(ins), sorted(outs),
                                       max_vertices=2)
        if not h.r:
            continue
        w = rng.randint(1, h.r)
        wins, wouts = h.neighbourhood(w)
        k = random_graph_with_boundary(rng, sorted(wins), sorted(wouts),
                                       max_vertices=2)
        # In substitute(g, v, h) the vertices of h occupy slots v..v+h.r-1.
        lhs = substitute(substitute(g, v, h), v + w - 1, k)
        rhs = substitute(g, v, substitute(h, w, k))
        assert is_isomorphic_strict(lhs, rhs)
        done += 1


def test_json_roundtrip():
    rng = random.Random(27)
    for _ in range(30):
        g = random_graph(rng)
        h = graphs.from_json(graphs.to_json(g))
        assert canonical_form(g) == canonical_form(h)
        assert graphs.to_json(g) == graphs.to_json(h)


def test_loop_flags_import():
    g = graphs.from_obj({"vertices": [], "loop_flags": 4})
    assert g.loop_count == 2
    with pytest.raises(InvalidGraph):
        graphs.from_obj({"vertices": [], "loop_flags": 3})


def test_to_dot_mentions_all_vertices():
    g = chain_graph()
    dot = graphs.to_dot(g)
    assert dot.startswith("digraph")
    assert "v1" in dot and "v2" in dot


def test_to_dot_escapes_every_label():
    g = DirectedGraph([[0, 1], [2]], [3, 4], {1: 2, 2: 1}, {3: 4, 4: 3},
                      {0: 1, 1: -1, 2: 1, 3: 1, 4: -1},
                      {0: "a", 1: 'm"', 2: "n\\"},
                      {0: '"p"', 3: "x\\y", 4: 'y"'}, 0)
    assert graphs.to_dot(g).splitlines()[3:9] == [
        '  v1 -> v2 [taillabel="m\\"", headlabel="n\\\\"];',
        '  b1 [shape=none, label="\\"p\\""];',
        "  b1 -> v1;",
        '  e2a [shape=none, label="y\\""];',
        '  e2b [shape=none, label="x\\\\y"];',
        "  e2a -> e2b;",
    ]


def test_to_dot_draws_free_edges_and_loops():
    g = DirectedGraph([[0, 1], [2]], [3, 4], {1: 2, 2: 1}, {3: 4, 4: 3},
                      {0: 1, 1: -1, 2: 1, 3: 1, 4: -1}, {0: "a", 1: "m", 2: "m"},
                      {0: "p", 3: "x", 4: "y"}, 2)
    assert graphs.to_dot(g).splitlines() == [
        "digraph G {",
        '  v1 [label="v1"];',
        '  v2 [label="v2"];',
        '  v1 -> v2 [taillabel="m", headlabel="m"];',
        '  b1 [shape=none, label="p"];',
        "  b1 -> v1;",
        '  e2a [shape=none, label="y"];',
        '  e2b [shape=none, label="x"];',
        "  e2a -> e2b;",
        '  loop1 [shape=point, label=""];',
        "  loop1 -> loop1;",
        '  loop2 [shape=point, label=""];',
        "  loop2 -> loop2;",
        "}",
    ]
