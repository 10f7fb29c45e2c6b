import hashlib
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wirecat import endo, translate, wiring, wprop
from wirecat.errors import (
    ArityMismatch,
    BoundaryMismatch,
    InvalidTensor,
    LabelClash,
    NotABijection,
    UnknownLabel,
    WirecatError,
)
from wirecat.graphs import DirectedGraph, corolla, reorder, substitute_all
from wirecat.sampling import (
    endo_sampler,
    free_sampler,
    random_decorated_element,
    random_fraction,
    random_free_term,
    random_graph_with_boundary,
    random_tensor,
    random_wiring_diagram,
)
from wirecat.wiring import IN, OUT, Interface, WiringDiagram, label_key
from wirecat.wprop import (
    EndoWheeledProp,
    FreeElement,
    FreeWheeledProp,
    Signature,
    axiom_suite,
    contract,
    dioperadic,
    eta,
    flatten,
    horizontal,
    loop_element,
    relabel,
    unit,
    unit_empty,
    wd_action,
)

SIG = Signature({"f": (2, 1), "g": (1, 2)})


def test_eta_boundary_and_arity():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    assert e.boundary() == (frozenset({"a", "b"}), frozenset({"c"}))
    with pytest.raises(ArityMismatch):
        eta(SIG, "f", ("a",), ("c",))
    with pytest.raises(ArityMismatch):
        eta(SIG, "h", ("a", "b"), ("c",))
    with pytest.raises(ArityMismatch):
        eta(SIG, "f", ("a", "b"), ("c", "d"))


def test_an_element_needs_one_decoration_per_vertex():
    with pytest.raises(ArityMismatch):
        FreeElement(["a"], ["b"], [(1, corolla(["a"], ["b"]), ())])


def test_eta_takes_mixed_label_types():
    e = eta(SIG, "f", (1, "a"), ("c",))
    assert e.boundary() == (frozenset({1, "a"}), frozenset({"c"}))
    assert e == eta(SIG, "f", (1, "a"), ("c",))


def test_linear_structure():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    assert (e + e) == e.scale(2)
    assert (e - e).is_zero()
    assert e.scale(Fraction(1, 2)).scale(2) == e


def test_addition_requires_matching_boundary():
    with pytest.raises(BoundaryMismatch):
        eta(SIG, "f", ("a", "b"), ("c",)) + unit("a")


def test_horizontal_unit_and_clash():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    assert horizontal(e, unit_empty()) == e
    assert horizontal(unit_empty(), e) == e
    with pytest.raises(LabelClash):
        horizontal(e, eta(SIG, "f", ("a", "x"), ("y",)))


def test_horizontal_commutes():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    u = eta(SIG, "g", ("x",), ("y", "z"))
    assert horizontal(e, u) == horizontal(u, e)


def test_contract_with_unit_relabels():
    # Contracting against an identity strand only renames the boundary leg.
    e = eta(SIG, "f", ("a", "b"), ("c",))
    assert contract(horizontal(e, unit("u")), "u", "c") == \
        relabel(e, {"a": "a", "b": "b"}, {"c": "u"})


def test_contract_names_an_unknown_label():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    with pytest.raises(UnknownLabel, match="'z' not an in-label"):
        contract(e, "z", "c")
    with pytest.raises(UnknownLabel, match="'z' not an out-label"):
        contract(e, "a", "z")


def test_contract_unit_on_itself_is_loop():
    assert contract(unit("t"), "t", "t") == loop_element()


def test_relabel_requires_bijections():
    e = eta(SIG, "f", ("a", "b"), ("c",))
    with pytest.raises((NotABijection, BoundaryMismatch, LabelClash)):
        relabel(e, {"a": "b"}, {})


def test_term_order_is_quotiented():
    # The same two-vertex picture built in either order is one term.
    e1 = eta(SIG, "f", ("a", "b"), ("c",))
    e2 = eta(SIG, "g", ("x",), ("y", "z"))
    assert horizontal(e1, e2) == horizontal(e2, e1)
    assert len(horizontal(e1, e2).terms) == 1


def test_dioperadic_matches_horizontal_contract():
    a = eta(SIG, "f", ("a", "b"), ("c",))
    b = eta(SIG, "g", ("x",), ("y", "z"))
    assert dioperadic(a, "a", b, "y") == contract(horizontal(a, b), "a", "y")


def sample_two_level(rng):
    """(outer graph, per-vertex middle graphs, per-vertex inner elements)."""
    g = random_graph_with_boundary(rng, ["p0"], ["q0"], max_vertices=3)
    mids, inners = {}, {}
    for v in range(1, g.r + 1):
        ins, outs = g.neighbourhood(v)
        mids[v] = random_graph_with_boundary(rng, sorted(ins), sorted(outs),
                                             max_vertices=3)
        inners[v] = [
            random_decorated_element(rng, sorted(mins), sorted(mouts),
                                     max_vertices=2)
            for w in range(1, mids[v].r + 1)
            for mins, mouts in [mids[v].neighbourhood(w)]
        ]
    return g, mids, inners


def test_flatten_associativity():
    rng = random.Random(51)
    for _ in range(40):
        g, mids, inners = sample_two_level(rng)
        lhs = flatten(g, [flatten(mids[v], inners[v])
                          for v in range(1, g.r + 1)])
        combined = substitute_all(g, mids)
        flat_inners = [e for v in range(1, g.r + 1) for e in inners[v]]
        rhs = flatten(combined, flat_inners)
        assert lhs == rhs


def test_flatten_unit_corolla_outer():
    # Substituting an element into the corolla on its own boundary is the
    # identity.
    rng = random.Random(52)
    for _ in range(25):
        e = random_decorated_element(rng, ["p0", "p1"], ["q0"])
        ins, outs = e.boundary()
        assert flatten(corolla(ins, outs), [e]) == e


def test_flatten_unit_generators_inner():
    # Substituting each vertex's bare generator back in returns the term.
    rng = random.Random(53)
    for _ in range(25):
        e = random_decorated_element(rng, ["p0"], ["q0", "q1"], max_terms=1)
        [(coeff, g, decor)] = list(e.terms.values())
        args = [FreeElement(ins, outs, [(1, corolla(ins, outs),
                                         ((sym, ins, outs),))])
                for sym, ins, outs in decor]
        assert flatten(g, args) == e.scale(Fraction(1, coeff))


# -- the monad laws on drawn nestings -----------------------------------------

@st.composite
def graphs_with_boundary(draw, ins, outs, max_vertices=2, max_legs=2):
    """A graph with boundary (ins, outs), translated from a diagram with that
    output: each box's leg counts are drawn, the side short of endpoints is
    topped up box by box (a box is added when all are full), and the
    matching and the circles are drawn."""
    counts = [[draw(st.integers(0, max_legs)) for _ in (OUT, IN)]
              for _ in range(draw(st.integers(0, max_vertices)))]
    gap = len(ins) + sum(c[0] for c in counts) - len(outs) - sum(c[1] for c in counts)
    short = 1 if gap > 0 else 0
    for _ in range(abs(gap)):
        room = [c for c in counts if c[short] < max_legs]
        if not room:
            counts.append([0, 0])
            room = counts[-1:]
        room[0][short] += 1
    boxes = [Interface(ins, outs)] + [
        Interface(["c%d" % k for k in range(o)], ["d%d" % k for k in range(i)])
        for o, i in counts]
    out_eps = [(k, OUT, a) for k, box in enumerate(boxes)
               for a in sorted(box.out_labels, key=label_key)]
    in_eps = draw(st.permutations([(k, IN, a) for k, box in enumerate(boxes)
                                   for a in sorted(box.in_labels, key=label_key)]))
    return translate.wd_to_graph(WiringDiagram(
        boxes[0], boxes[1:], dict(zip(out_eps, in_eps)), draw(st.integers(0, 1))))


@st.composite
def one_term_elements(draw, ins, outs):
    """A one-term element with boundary (ins, outs): a drawn graph, a drawn
    nonzero coefficient and a drawn symbol e0..e3 on each vertex."""
    g = draw(graphs_with_boundary(ins, outs))
    decor = []
    for v in range(1, g.r + 1):
        vins, vouts = (tuple(sorted(s, key=label_key)) for s in g.neighbourhood(v))
        decor.append(("e%d" % draw(st.integers(0, 3)), vins, vouts))
    coeff = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 3)))
    return FreeElement(ins, outs, [(coeff, g, tuple(decor))])


@st.composite
def two_level_nestings(draw):
    """(outer graph, per-vertex middle graphs, per-vertex inner elements), the
    shape ``sample_two_level`` draws, with every part drawn here."""
    g = draw(graphs_with_boundary(["p0"], ["q0"]))
    mids, inners = {}, {}
    for v in range(1, g.r + 1):
        mids[v] = draw(graphs_with_boundary(*g.neighbourhood(v)))
        inners[v] = [draw(one_term_elements(*mids[v].neighbourhood(w)))
                     for w in range(1, mids[v].r + 1)]
    return g, mids, inners


@given(two_level_nestings())
def test_monad_laws_on_drawn_nestings(nesting):
    # Associativity; then the units: the corolla on an element's boundary
    # outside it, and the corollas of a term's own generators inside it.
    g, mids, inners = nesting
    middles = [flatten(mids[v], inners[v]) for v in range(1, g.r + 1)]
    flat_inners = [e for v in range(1, g.r + 1) for e in inners[v]]
    assert flatten(g, middles) == flatten(substitute_all(g, mids), flat_inners)
    for e in middles + flat_inners:
        assert flatten(corolla(*e.boundary()), [e]) == e
    for e in flat_inners:
        [(coeff, h, decor)] = list(e.terms.values())
        args = [FreeElement(ins, outs, [(1, corolla(ins, outs),
                                         ((sym, ins, outs),))])
                for sym, ins, outs in decor]
        assert flatten(h, args) == e.scale(Fraction(1, coeff))


def test_axiom_suite_free():
    report = axiom_suite(FreeWheeledProp(SIG), free_sampler(SIG), trials=30,
                         rng=random.Random(54))
    assert report["ok"], report


def test_axiom_suite_endo():
    report = axiom_suite(EndoWheeledProp(2), endo_sampler(2), trials=30,
                         rng=random.Random(55))
    assert report["ok"], report


class BrokenEndo(EndoWheeledProp):
    """Mutant: contraction picks the wrong out-axis."""

    def contract(self, a, i, j):
        outs = sorted((l for p, l in a.axes if p == OUT), key=repr)
        if len(outs) > 1:
            wrong = outs[0] if repr(outs[0]) != repr(j) else outs[1]
            return endo.trace_contract(a, i, wrong)
        return endo.trace_contract(a, i, j)


def test_broken_contraction_fails_with_witness():
    report = axiom_suite(BrokenEndo(2), endo_sampler(2), trials=30,
                         rng=random.Random(56))
    assert not report["ok"]
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v["ok"]]
    assert failed
    assert all(report[k]["witness"] is not None for k in failed)


class BrokenFree(FreeWheeledProp):
    """Mutant: contraction glues to the wrong out-label, as in ``BrokenEndo``."""

    def contract(self, a, i, j):
        outs = sorted(a.out_labels, key=repr)
        if len(outs) > 1:
            wrong = outs[0] if repr(outs[0]) != repr(j) else outs[1]
            return contract(a, i, wrong)
        return contract(a, i, j)


def test_broken_free_contraction_fails_with_witness():
    report = axiom_suite(BrokenFree(SIG), free_sampler(SIG), trials=200,
                         rng=random.Random(109))
    assert not report["ok"]
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v["ok"]]
    assert failed
    assert all(report[k]["witness"] is not None for k in failed)


def test_wd_action_commutes_with_evaluation():
    # Acting in the free prop on one generator per box and then evaluating
    # term by term equals acting on the bound tensors: evaluation is a
    # morphism of circuit algebras.
    rng = random.Random(58)
    d = 2
    for _ in range(200):
        diagram = random_wiring_diagram(rng, max_boxes=3, max_labels=2,
                                        max_circles=2)
        sig = Signature({"b%d" % k: (len(box.in_labels), len(box.out_labels))
                         for k, box in enumerate(diagram.inputs)})
        gens, tensors, bind = [], [], {}
        for k, box in enumerate(diagram.inputs):
            ins, outs = sorted(box.in_labels), sorted(box.out_labels)
            raw = np.array([random_fraction(rng)
                            for _ in range(d ** (len(ins) + len(outs)))],
                           dtype=object).reshape((d,) * (len(ins) + len(outs)))
            bind["b%d" % k] = raw
            gens.append(eta(sig, "b%d" % k, ins, outs))
            tensors.append(endo.Tensor(d, [(IN, l) for l in ins]
                                       + [(OUT, l) for l in outs], raw))
        free = wd_action(FreeWheeledProp(sig), diagram, gens)
        value = None
        for c, g, decor in free.terms.values():
            term = endo.evaluate_decorated(g, decor, bind, d).scale(c)
            value = term if value is None else value + term
        assert value == wd_action(EndoWheeledProp(d), diagram, tensors)


@pytest.mark.parametrize("prop", ["free", "endo"])
def test_wd_action_rejects_wrong_arguments(prop):
    rng = random.Random(59)
    diagram = random_wiring_diagram(rng, max_boxes=3, max_labels=2)
    while not diagram.r:
        diagram = random_wiring_diagram(rng, max_boxes=3, max_labels=2)
    boxes = [(sorted(b.in_labels), sorted(b.out_labels))
             for b in diagram.inputs]
    if prop == "free":
        sig = Signature({"z": (1, 0), **{"b%d" % k: (len(i), len(o))
                                          for k, (i, o) in enumerate(boxes)}})
        w = FreeWheeledProp(sig)
        args = [eta(sig, "b%d" % k, i, o) for k, (i, o) in enumerate(boxes)]
        stranger = eta(sig, "z", ["zz"], [])
    else:
        w = EndoWheeledProp(2)
        args = [random_tensor(rng, 2, i, o) for i, o in boxes]
        stranger = random_tensor(rng, 2, ["zz"], [])
    with pytest.raises(WirecatError):
        wd_action(w, diagram, args[:-1])
    with pytest.raises(WirecatError):
        wd_action(w, diagram, args + [args[0]])
    with pytest.raises(WirecatError):
        wd_action(w, diagram, [stranger] + args[1:])


def test_json_roundtrip():
    rng = random.Random(57)
    for _ in range(20):
        e = random_decorated_element(rng, ["p0"], ["q0"])
        s = wprop.to_json(e)
        assert wprop.from_json(s) == e
        assert wprop.to_json(wprop.from_json(s)) == s


@pytest.mark.parametrize("labels, order", [({10, 2}, [2, 10]),
                                           ({1, "a", None}, [1, "a", None])])
def test_every_writer_lists_labels_in_one_order(labels, order):
    # Boundaries are label sets: the element and wd writers and the reprs all
    # print them in ``wiring.label_key`` order, not by value or by ``repr``.
    e = eta(Signature({"s": (len(labels), 0)}), "s", labels, [])
    assert wprop.to_obj(e)["in"] == order
    assert wiring.to_obj(wiring.identity_diagram(labels, []))["output"]["out"] == order
    assert repr(Interface(labels, [])) == "Interface(out=%r, in=[])" % (order,)
    assert repr(e) == "FreeElement(in=%r, out=[], 1 terms)" % (order,)


@pytest.mark.parametrize("coeff", [0.1, 0.5, True, False])
def test_free_coefficients_are_exact_only(coeff):
    # As for tensor entries: a float is not the rational it prints as, and a
    # boolean is no number.
    e = eta(SIG, "f", ("a", "b"), ("c",))
    [(_, g, decor)] = e.terms.values()
    with pytest.raises(InvalidTensor):
        e.scale(coeff)
    with pytest.raises(InvalidTensor):
        FreeElement(("a", "b"), ("c",), [(coeff, g, decor)])
    with pytest.raises(InvalidTensor):
        endo.scalar_tensor(1).scale(coeff)
    assert e.scale(Fraction(1, 10)).scale(10) == e.scale("1") == e


# sha256 over ``wprop.to_json`` of the results of each operation below on
# seeds 0..39, on multi-term elements of the free sampler.  When terms merge, the
# printed graph is the one of the first term that reached the key, so these
# pin the representative graphs as well as the values.
ELEMENT_GOLDENS = {
    "sum": "c0dab782b66f3acfbf7d4b3674dd22a0bb7cfd9b269c1b4cefc8af2ec30509f0",
    "scale": "025bd19bbacc32e49c24c9c0f732fb9ebc791d6fa48d3d29511ca1d711fff6ce",
    "cancel": "05aefc185e263b585ecb29da7ca9c9ed472b519170088ae990b6e915b79a8564",
    "horizontal": "c2c3ad5b49d137cfa6f8daab6999ce9756b6e31c543adc6518785fb3655f9961",
    "contract": "1764c3d48c7e6fb115f71285ef1ed25c0664b9478dc9bfa0f77ee78000936f73",
    "dioperadic": "785c264bf7bbed9db082c3c6906bef387c333f51b3398d08c2457ec4d0b866df",
    "relabel": "69759d4a7874f8dbc3ba13669d55d105f75ec3c7e8895ca6d431c21cbb942349",
    "flatten": "1ac64ca43844520b931afd7c42e524db38f3368ba7726fcc189e1b741be44ec1",
}


def fresh_copy(rng, sample, taken):
    """A sample relabelled onto labels outside ``taken``."""
    x = sample(rng)
    ins, outs = sorted(x.in_labels), sorted(x.out_labels)
    fresh = wprop._fresh_labels(len(ins) + len(outs), taken, "w")
    return relabel(x, dict(zip(ins, fresh)), dict(zip(outs, fresh[len(ins):])))


def partner(rng, sample, a):
    """A sample relabelled onto the boundary of ``a``, or ``a`` scaled."""
    for _ in range(20):
        b = sample(rng)
        if (len(b.in_labels), len(b.out_labels)) == (len(a.in_labels), len(a.out_labels)):
            return relabel(b, dict(zip(sorted(b.in_labels), sorted(a.in_labels))),
                           dict(zip(sorted(b.out_labels), sorted(a.out_labels))))
    return a.scale(3)


def reordered(rng, a):
    """``a`` with the vertices of each term in random order: equal to ``a``,
    with other representative graphs."""
    terms = []
    for c, g, decor in a.terms.values():
        order = list(range(1, g.r + 1))
        rng.shuffle(order)
        terms.append((c, reorder(g, order), [decor[i - 1] for i in order]))
    return FreeElement(a.in_labels, a.out_labels, terms)


def element_results(op, rng):
    sample = free_sampler(SIG, max_terms=3)
    a = sample(rng)
    ins, outs = sorted(a.in_labels), sorted(a.out_labels)
    if op == "sum":
        b, r = partner(rng, sample, a), reordered(rng, a)
        return [a + b, b + a + b.scale(-1), r + b + a, a.scale(2) + r.scale(-1)]
    if op == "scale":
        return [a.scale(random_fraction(rng) or 1), a.scale(0)]
    if op == "cancel":
        b, r = partner(rng, sample, a), reordered(rng, a)
        return [a - a.scale(2) + a, (a + b) - a.scale(2) + a,
                (r + b) - a.scale(2) + a + r, b + r - r + a]
    if op == "horizontal":
        c = fresh_copy(rng, sample, ins + outs)
        return [horizontal(a, c), horizontal(c, a)]
    if op == "contract":
        return [contract(a, rng.choice(ins), rng.choice(outs))] if ins and outs else []
    if op == "dioperadic":
        c = fresh_copy(rng, sample, ins + outs)
        if not ins or not c.out_labels:
            return []
        return [dioperadic(a, rng.choice(ins), c, rng.choice(sorted(c.out_labels)))]
    if op == "relabel":
        fresh = wprop._fresh_labels(len(ins) + len(outs), ins + outs, "w")
        rng.shuffle(fresh)
        return [relabel(a, dict(zip(ins, fresh)), dict(zip(outs, fresh[len(ins):])))]
    g, mids, inners = sample_two_level(rng)
    return [flatten(corolla(ins, outs), [a]),
            flatten(g, [flatten(mids[v], inners[v]) for v in range(1, g.r + 1)])]


@pytest.mark.parametrize("op", list(ELEMENT_GOLDENS))
def test_element_operation_goldens(op):
    digest = hashlib.sha256()
    for seed in range(40):
        for x in element_results(op, random.Random(seed)):
            digest.update(wprop.to_json(x).encode() + b"\n")
    assert digest.hexdigest() == ELEMENT_GOLDENS[op]


def test_trusted_surgery_builds_valid_graphs(monkeypatch):
    # Surgery and the generator graphs skip ``validate``; every graph they
    # build on the law suites' sampled inputs must still pass it.
    built = []
    trusted = DirectedGraph._trusted.__func__

    def recorded(cls, *parts):
        g = trusted(cls, *parts)
        built.append((sys._getframe(1).f_code.co_name, g))
        return g

    monkeypatch.setattr(DirectedGraph, "_trusted", classmethod(recorded))
    rng = random.Random(61)
    assert axiom_suite(FreeWheeledProp(SIG), free_sampler(SIG, max_terms=3),
                       trials=10, rng=rng)["ok"]
    for _ in range(20):
        g, mids, inners = sample_two_level(rng)
        flatten(g, [flatten(mids[v], inners[v]) for v in range(1, g.r + 1)])
        flatten(substitute_all(g, mids),
                [e for v in range(1, g.r + 1) for e in inners[v]])
        h = translate.wd_to_graph(random_wiring_diagram(rng))
        order = list(range(1, h.r + 1))
        rng.shuffle(order)
        reorder(h, order)
    assert {name for name, _ in built} == {
        "substitute", "reorder", "_disjoint_union", "_glue_boundary",
        "relabel", "wd_to_graph", "corolla", "free_edge", "free_loop"}
    for name, g in built:
        assert g.validate() == [], (name, g.validate())


def test_trusted_elements_pass_the_full_checks(monkeypatch):
    # The operations and the units skip the per-term checks; every element
    # they build on the law suites' inputs must pass them as built.
    built = []
    trusted = FreeElement._trusted.__func__

    def recorded(cls, *parts):
        built.append(trusted(cls, *parts))
        return built[-1]

    monkeypatch.setattr(FreeElement, "_trusted", classmethod(recorded))
    rng = random.Random(63)
    report = axiom_suite(FreeWheeledProp(SIG), free_sampler(SIG, max_terms=3),
                         trials=10, rng=rng)
    for _ in range(20):
        g, mids, inners = sample_two_level(rng)
        flatten(g, [flatten(mids[v], inners[v]) for v in range(1, g.r + 1)])
        flatten(substitute_all(g, mids),
                [e for v in range(1, g.r + 1) for e in inners[v]])
        random_free_term(rng, SIG)
    for a in built:
        assert FreeElement(a.in_labels, a.out_labels, a._raw)._raw == a._raw
        for coeff, graph, _ in a._raw:
            assert type(coeff) is Fraction and graph.validate() == []
    assert report["ok"]


def test_terms_are_keyed_only_to_merge_or_compare(monkeypatch):
    keys = []
    loose = wprop.loose_canonical_form
    monkeypatch.setattr(wprop, "loose_canonical_form",
                        lambda *args, **kw: keys.append(args) or loose(*args, **kw))
    rng = random.Random(62)
    words = [random_free_term(rng, SIG) for _ in range(30)]
    a = eta(SIG, "f", ("a", "b"), ("c",))
    b = horizontal(unit_empty(), horizontal(eta(SIG, "g", ("x",), ("y", "z")), a))
    chain = contract(horizontal(contract(b, "x", "z"), loop_element()), "a", "y")
    assert keys == []
    for x in words + [b, chain]:
        ins, outs = sorted(x.in_labels), sorted(x.out_labels)
        same = relabel(x, dict(zip(ins, ins)), dict(zip(outs, outs)))
        assert len(keys) == 0 and not x.is_zero()
        assert x == same and len(keys) == 2
        assert x == same and hash(x) == hash(same) and len(keys) == 2
        keys.clear()
    # A sum holds its terms unkeyed until it is read: then one key per term.
    total = a.scale(3) + a.scale(-1)
    assert keys == []
    assert total == a.scale(2) and len(keys) == 3
