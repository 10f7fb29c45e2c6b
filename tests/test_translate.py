import random

from hypothesis import given, strategies as st

from wirecat import graphs, wiring
from wirecat.graphs import (
    canonical_form,
    corolla,
    is_isomorphic_strict,
    substitute,
)
from wirecat.sampling import (
    random_composable_pair,
    random_graph,
    random_wiring_diagram,
)
from wirecat.translate import graph_to_wd, wd_to_graph
from wirecat.wiring import IN, OUT, Interface, WiringDiagram, identity_diagram


def test_boundary_orientation_flip():
    # The graph boundary (in, out) maps to the diagram's boundary interface
    # with the roles exchanged: in-legs of the graph are out-labels of box 0.
    g = corolla(["a"], ["b"])
    d = graph_to_wd(g)
    assert d.output.out_labels == frozenset({"a"})
    assert d.output.in_labels == frozenset({"b"})
    assert d.r == 1


def test_identity_diagram_translates_to_corolla():
    d = identity_diagram(["s"], ["t"])
    g = wd_to_graph(d)
    assert g.r == 1
    assert not g.exceptional and g.loop_count == 0
    ins, outs = g.neighbourhood(1)
    assert (ins, outs) == g.boundary() == (frozenset({"s"}), frozenset({"t"}))


def test_free_edge_translates_to_no_box_strand():
    # A diagram wiring its own boundary through with no boxes becomes a graph
    # with a single exceptional (free) edge.
    d = WiringDiagram(Interface(["a"], ["b"]), [],
                      {(0, OUT, "a"): (0, IN, "b")})
    g = wd_to_graph(d)
    assert g.r == 0 and len(g.exceptional) == 2


def test_circles_become_loops_and_back():
    d = WiringDiagram(Interface(), [], {}, circles=2)
    g = wd_to_graph(d)
    assert g.loop_count == 2
    assert graph_to_wd(g).circles == 2


def test_wd_roundtrip_exact():
    rng = random.Random(31)
    for _ in range(300):
        d = random_wiring_diagram(rng)
        assert graph_to_wd(wd_to_graph(d)) == d


def test_graph_roundtrip_up_to_strict_canonical_form():
    rng = random.Random(32)
    for _ in range(300):
        g = random_graph(rng)
        h = wd_to_graph(graph_to_wd(g))
        assert canonical_form(g) == canonical_form(h)


def test_composition_substitution_intertwining():
    # Translating a composite diagram equals substituting the translated
    # inner graph into the corresponding vertex of the translated outer one.
    rng = random.Random(33)
    for _ in range(150):
        d, i, inner = random_composable_pair(rng)
        lhs = wd_to_graph(d.compose(i, inner))
        rhs = substitute(wd_to_graph(d), i, wd_to_graph(inner))
        assert is_isomorphic_strict(lhs, rhs)


# Labels mix integers and strings, "1" and 1 among them.
LABELS = st.one_of(st.integers(-2, 12), st.text("ab1", max_size=2))


@st.composite
def diagrams(draw):
    """A valid wiring diagram: random label lists per box and polarity, the
    longer side cut to the shorter, and the in-endpoints permuted."""
    boxes = range(draw(st.integers(0, 4)) + 1)
    ends = {pol: [(k, pol, a) for k in boxes
                  for a in draw(st.lists(LABELS, max_size=4, unique=True))]
            for pol in (OUT, IN)}
    n = min(len(ends[OUT]), len(ends[IN]))
    outs, ins = ends[OUT][:n], draw(st.permutations(ends[IN][:n]))
    interfaces = [Interface([a for b, _, a in outs if b == k],
                            [a for b, _, a in ins if b == k]) for k in boxes]
    return WiringDiagram(interfaces[0], interfaces[1:], dict(zip(outs, ins)),
                         draw(st.integers(0, 2)))


@given(diagrams())
def test_translation_of_any_valid_diagram(d):
    g = wd_to_graph(d)
    assert g.validate() == []
    assert graph_to_wd(g) == d
    assert wiring.from_json(wiring.to_json(d)) == d
    graphs.to_json(g)
