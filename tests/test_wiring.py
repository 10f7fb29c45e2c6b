import random

import pytest

from wirecat import wiring
from wirecat.errors import (
    EndpointSetMismatch,
    IndexOutOfRange,
    InterfaceMismatch,
    NegativeCircles,
    NonBijectiveMatching,
    NotABijection,
)
from wirecat.sampling import (
    random_composable_pair,
    random_composable_triple,
    random_wiring_diagram,
)
from wirecat.wiring import (
    IN,
    OUT,
    Interface,
    WiringDiagram,
    identity_diagram,
    resolve_strands,
)


def two_box_diagram():
    """Boundary (a; b), two boxes wired boundary->box1->box2->boundary."""
    out0 = Interface(["a"], ["b"])
    b1 = Interface(["x"], ["y"])
    b2 = Interface(["u"], ["v"])
    matching = {
        (0, OUT, "a"): (1, IN, "y"),
        (1, OUT, "x"): (2, IN, "v"),
        (2, OUT, "u"): (0, IN, "b"),
    }
    return WiringDiagram(out0, [b1, b2], matching)


def test_validation_rejects_partial_matching():
    with pytest.raises(NonBijectiveMatching):
        WiringDiagram(Interface(["a"], []), [], {})


def test_validation_rejects_unknown_endpoint():
    with pytest.raises(EndpointSetMismatch):
        WiringDiagram(Interface(["a"], ["b"]),
                      [], {(0, OUT, "zzz"): (0, IN, "b")})


def test_validation_rejects_non_injective_matching():
    d = Interface(["a", "c"], ["b", "d"])
    with pytest.raises(NonBijectiveMatching):
        WiringDiagram(d, [], {(0, OUT, "a"): (0, IN, "b"),
                              (0, OUT, "c"): (0, IN, "b")})


def test_negative_circles_rejected():
    for circles in (-1, 1.5):  # graphs of diagrams are built unchecked
        with pytest.raises(NegativeCircles):
            WiringDiagram(Interface(), [], {}, circles=circles)


def test_compose_index_out_of_range():
    d = two_box_diagram()
    with pytest.raises(IndexOutOfRange):
        d.compose(3, identity_diagram(["y"], ["x"]))


def test_compose_interface_mismatch():
    d = two_box_diagram()
    with pytest.raises(InterfaceMismatch):
        d.compose(1, identity_diagram(["wrong"], ["x"]))
    with pytest.raises(InterfaceMismatch):  # labels of mixed types
        d.compose(1, identity_diagram(["wrong", 1], ["x"]))


def test_identity_laws_on_fixed_diagram():
    d = two_box_diagram()
    for i in (1, 2):
        inner = d.inputs[i - 1]
        left = identity_diagram(inner.in_labels, inner.out_labels)
        assert d.compose(i, left) == d


def test_closed_chain_counts_a_circle():
    # A box whose output wires straight back into its own input closes up
    # against an identity, producing one circle.
    out0 = Interface([], [])
    box = Interface(["x"], ["y"])
    d = WiringDiagram(out0, [box], {(1, OUT, "x"): (1, IN, "y")})
    inner = identity_diagram(["y"], ["x"])
    assert d.compose(1, inner).circles == 0  # identity passes through
    closer = WiringDiagram(Interface(["y"], ["x"]), [],
                           {(0, OUT, "y"): (0, IN, "x")})
    composed = d.compose(1, closer)
    assert composed.r == 0
    assert composed.circles == 1


def pairs(*edges):
    """A pairing that maps each node of each edge to the other node."""
    return {a: b for e in edges for a, b in (e, e[::-1])}


def test_resolve_strands_free_edge_glued_to_itself():
    # link and glue send both ends to the same place; the walk must still
    # alternate and find one closed strand.
    edge = pairs(("in", "out"))
    assert resolve_strands(edge, edge, []) == ([], 1)


def test_resolve_strands_lone_end_is_zero_length():
    assert resolve_strands({}, {}, ["e"]) == ([("e", "e")], 0)
    assert resolve_strands(pairs(("a", "b")), {}, ["e", "a"]) == \
        ([("e", "e"), ("a", "b")], 0)


def test_resolve_strands_order_of_ends():
    # x - m1 = m2 - y, u - v, g0 = m3 - z, and a closed square p - q = r - s = p
    # (- is a link hop, = a glue hop).
    link = pairs(("x", "m1"), ("m2", "y"), ("u", "v"), ("m3", "z"),
                 ("p", "q"), ("r", "s"))
    glue = pairs(("m1", "m2"), ("g0", "m3"), ("q", "r"), ("s", "p"))
    strands, closed = resolve_strands(link, glue, ["v", "z", "y", "x", "g0", "u"])
    assert strands == [("v", "u"), ("z", "g0"), ("y", "x")]
    assert closed == 1


def test_circles_add_up():
    d = two_box_diagram()
    bumped = WiringDiagram(d.output, d.inputs, d.matching, 2)
    inner = d.inputs[0]
    ident = identity_diagram(inner.in_labels, inner.out_labels)
    bumped_inner = WiringDiagram(ident.output, ident.inputs, ident.matching, 3)
    assert bumped.compose(1, bumped_inner).circles == 5


def test_sampled_identity_laws():
    rng = random.Random(11)
    for _ in range(50):
        d = random_wiring_diagram(rng)
        if not d.r:
            continue
        i = rng.randint(1, d.r)
        inner = d.inputs[i - 1]
        assert d.compose(i, identity_diagram(inner.in_labels, inner.out_labels)) == d


def test_sampled_right_identity():
    rng = random.Random(12)
    for _ in range(50):
        d = random_wiring_diagram(rng)
        ident = identity_diagram(d.output.out_labels, d.output.in_labels)
        assert ident.compose(1, d) == d


def test_sampled_associativity_both_shapes():
    rng = random.Random(13)
    for _ in range(60):
        shape, d, i, d2, j, e = random_composable_triple(rng)
        if shape == "nested":
            lhs = d.compose(i, d2.compose(j, e))
            rhs = d.compose(i, d2).compose(i - 1 + j, e)
        else:
            lhs = d.compose(i, d2).compose(j + d2.r - 1, e)
            rhs = d.compose(j, e).compose(i, d2)
        assert lhs == rhs


def test_equivariance_under_renumbering():
    # Renumbering the outer diagram's boxes and then composing equals
    # composing first and renumbering the composite by the induced
    # permutation of its boxes.
    rng = random.Random(14)
    checked = 0
    while checked < 40:
        d, i, inner = random_composable_pair(rng)
        perm = list(range(1, d.r + 1))
        rng.shuffle(perm)
        sigma = {k + 1: perm[k] for k in range(d.r)}
        moved = wiring.renumber_inputs(d, sigma)
        lhs = moved.compose(sigma[i], inner)
        comp = d.compose(i, inner)
        s, i2 = inner.r, sigma[i]

        def comp_pos(k, at):
            return k if k < at else k + s - 1

        tau = {}
        for k in range(1, d.r + 1):
            if k != i:
                tau[comp_pos(k, i)] = comp_pos(sigma[k], i2)
        for off in range(s):
            tau[i + off] = i2 + off
        assert wiring.renumber_inputs(comp, tau) == lhs
        checked += 1


def test_renumber_inputs_roundtrip():
    rng = random.Random(15)
    for _ in range(30):
        d = random_wiring_diagram(rng)
        perm = list(range(1, d.r + 1))
        rng.shuffle(perm)
        sigma = {k + 1: perm[k] for k in range(d.r)}
        inv = {v: k for k, v in sigma.items()}
        assert wiring.renumber_inputs(wiring.renumber_inputs(d, sigma), inv) == d


def test_renumber_rejects_non_permutation():
    d = two_box_diagram()
    with pytest.raises(NotABijection):
        wiring.renumber_inputs(d, {1: 1, 2: 1})


def test_permutation_diagram_permutes_labels():
    sigma = {"a": "b", "b": "a"}
    tau = {"t": "t"}
    p = wiring.permutation_diagram(sigma, tau)
    assert p.matching[(0, OUT, "b")] == (1, IN, "a")
    with pytest.raises(NotABijection):
        wiring.permutation_diagram({"a": "a", "b": "a"}, {})


def test_diagrams_and_interfaces_compare_by_value():
    assert Interface(["a"], ["b"]) == Interface({"a"}, ("b",))
    assert hash(Interface(["a"], ["b"])) == hash(Interface({"a"}, ("b",)))
    assert Interface(["a"], ["b"]) != Interface(["b"], ["a"])
    d = two_box_diagram()
    same = WiringDiagram(Interface(["a"], ["b"]), list(d.inputs),
                         dict(reversed(list(d.matching.items()))))
    assert same == d and hash(same) == hash(d)
    swap = wiring.permutation_diagram({"a": "b", "b": "a"}, {})
    assert swap != identity_diagram(["a", "b"], [])
    assert WiringDiagram(d.output, d.inputs, d.matching, 1) != d
    assert wiring.renumber_inputs(d, {1: 2, 2: 1}) != d


def test_json_roundtrip():
    rng = random.Random(16)
    for _ in range(25):
        d = random_wiring_diagram(rng)
        assert wiring.from_json(wiring.to_json(d)) == d


def test_json_deterministic():
    rng = random.Random(17)
    d = random_wiring_diagram(rng)
    assert wiring.to_json(d) == wiring.to_json(wiring.from_json(wiring.to_json(d)))
