"""Seeded random generators for diagrams, graphs, tensors and free elements.

Everything is driven by a caller-supplied ``random.Random`` so that runs are
reproducible.  The default size parameters are the ones used by the law
suites: diagrams with at most 5 boxes, 4 labels per polarity per box and 2
circles; graphs with at most 3 vertices per level.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import List, Sequence

from . import wprop
from .endo import Tensor
from .graphs import DirectedGraph
from .translate import wd_to_graph
from .wiring import IN, OUT, Interface, WiringDiagram, label_key


def _labels(prefix: str, n: int) -> List[str]:
    return ["%s%d" % (prefix, k) for k in range(n)]


def random_wiring_diagram(rng: random.Random, max_boxes: int = 5,
                          max_labels: int = 4, max_circles: int = 2) -> WiringDiagram:
    """A random valid wiring diagram.

    Interfaces are drawn freely and then balanced (total out-endpoints must
    equal total in-endpoints); the matching is a uniform bijection.
    """
    r = rng.randint(0, max_boxes)
    outs = [rng.randint(0, max_labels) for _ in range(r + 1)]
    ins = [rng.randint(0, max_labels) for _ in range(r + 1)]
    # Balance the totals by trimming random boxes on the long side, so no
    # interface ever exceeds max_labels.
    long, short = (outs, ins) if sum(outs) > sum(ins) else (ins, outs)
    for _ in range(sum(long) - sum(short)):
        long[rng.choice([k for k, n in enumerate(long) if n])] -= 1
    return _matched(rng, [Interface(_labels("a", n), _labels("b", m))
                          for n, m in zip(outs, ins)], max_circles)


def _matched(rng: random.Random, interfaces: Sequence[Interface],
             max_circles: int) -> WiringDiagram:
    """A diagram on ``interfaces`` (box 0 first) with a uniform matching and
    a random number of circles."""
    out_eps = [(k, OUT, a) for k, box in enumerate(interfaces)
               for a in sorted(box.out_labels, key=label_key)]
    in_eps = [(k, IN, a) for k, box in enumerate(interfaces)
              for a in sorted(box.in_labels, key=label_key)]
    rng.shuffle(in_eps)
    return WiringDiagram(interfaces[0], interfaces[1:], dict(zip(out_eps, in_eps)),
                         rng.randint(0, max_circles))


def random_diagram_into(rng: random.Random, outer: WiringDiagram, i: int,
                        max_boxes: int = 3) -> WiringDiagram:
    """A random diagram composable into box ``i`` (1-based) of ``outer``."""
    inner = outer.inputs[i - 1]
    return random_diagram_with_output(rng, inner.in_labels, inner.out_labels, max_boxes)


def random_diagram_with_output(rng: random.Random, out_labels, in_labels,
                               max_boxes: int = 3, max_labels: int = 3,
                               max_circles: int = 2) -> WiringDiagram:
    """A random diagram with the prescribed output interface."""
    output = Interface(out_labels, in_labels)
    r = rng.randint(0, max_boxes)
    outs = [rng.randint(0, max_labels) for _ in range(r)]
    ins = [rng.randint(0, max_labels) for _ in range(r)]
    # Balance: the output interface is fixed, so trim the long side of the
    # input boxes or top up their short side (adding a box if none has room).
    while gap := (len(output.out_labels) + sum(outs)
                  - len(output.in_labels) - sum(ins)):
        long, short = (outs, ins) if gap > 0 else (ins, outs)
        trimmable = [k for k, n in enumerate(long) if n]
        if trimmable and rng.random() < 0.5:
            long[rng.choice(trimmable)] -= 1
            continue
        if all(n >= max_labels for n in short):
            outs.append(0)
            ins.append(0)
        room = [k for k, n in enumerate(short) if n < max_labels]
        short[rng.choice(room or range(len(short)))] += 1
    return _matched(rng, [output] + [Interface(_labels("c", n), _labels("d", m))
                                     for n, m in zip(outs, ins)], max_circles)


def random_composable_pair(rng: random.Random):
    """(outer, i, inner) with inner composable into box i of outer."""
    while True:
        d = random_wiring_diagram(rng)
        if d.r:
            break
    i = rng.randint(1, d.r)
    return d, i, random_diagram_into(rng, d, i)


def random_composable_triple(rng: random.Random):
    """(shape, d, i, d2, j, e): a triple for one associativity shape.

    ``shape`` is "nested" (e goes into a box of d2) or "parallel" (d2 and e
    go into different boxes of d).
    """
    while True:
        d = random_wiring_diagram(rng)
        if d.r >= 1:
            break
    shape = rng.choice(["nested", "parallel"]) if d.r >= 2 else "nested"
    if shape == "nested":
        i = rng.randint(1, d.r)
        while True:
            d2 = random_diagram_into(rng, d, i)
            if d2.r >= 1:
                break
        j = rng.randint(1, d2.r)
        e = random_diagram_into(rng, d2, j)
        return shape, d, i, d2, j, e
    i, k = sorted(rng.sample(range(1, d.r + 1), 2))
    d2 = random_diagram_into(rng, d, i)
    e = random_diagram_into(rng, d, k)
    return shape, d, i, d2, k, e


def random_graph(rng: random.Random, max_vertices: int = 3,
                 max_flags: int = 4, max_free_edges: int = 2,
                 max_loops: int = 2) -> DirectedGraph:
    """A random valid graph built directly from its parts."""
    r = rng.randint(0, max_vertices)
    fresh = itertools.count()
    vertices, delta, lam = [], {}, {}
    for _ in range(r):
        cell = []
        for sign, prefix in ((1, "i"), (-1, "o")):
            for a in _labels(prefix, rng.randint(0, max_flags // 2)):
                f = next(fresh)
                delta[f] = sign
                lam[f] = a
                cell.append(f)
        vertices.append(cell)
    flags = [f for cell in vertices for f in cell]
    pos = [f for f in flags if delta[f] == 1]
    neg = [f for f in flags if delta[f] == -1]
    rng.shuffle(pos)
    rng.shuffle(neg)
    iota = {}
    for f, m in zip(pos, neg):
        if rng.random() < 0.5:
            iota[f], iota[m] = m, f
    bnd = itertools.count()
    beta = {}
    for f in flags:
        if f not in iota:
            beta[f] = "%s%d" % ("p" if delta[f] == 1 else "q", next(bnd))
    exceptional, pi = [], {}
    for _ in range(rng.randint(0, max_free_edges)):
        a, b = next(fresh), next(fresh)
        delta[a], delta[b] = 1, -1
        beta[a] = "p%d" % next(bnd)
        beta[b] = "q%d" % next(bnd)
        pi[a], pi[b] = b, a
        exceptional += [a, b]
    return DirectedGraph(vertices, exceptional, iota, pi, delta, lam, beta,
                         rng.randint(0, max_loops))


def random_graph_with_boundary(rng: random.Random, in_labels, out_labels,
                               max_vertices: int = 3) -> DirectedGraph:
    """A random valid graph with the prescribed boundary label sets."""
    return wd_to_graph(random_diagram_with_output(
        rng, in_labels, out_labels, max_boxes=max_vertices, max_labels=3,
        max_circles=1))


def random_decorated_element(rng: random.Random, in_labels, out_labels,
                             max_vertices: int = 3,
                             max_terms: int = 2) -> wprop.FreeElement:
    """A random free-prop element with the prescribed boundary.

    Decorations are synthesized ad hoc (one of the symbols e0..e3 plus slot
    order), which is all the monad laws care about.
    """
    def term():
        g = random_graph_with_boundary(rng, in_labels, out_labels, max_vertices)
        decor = []
        for k in range(g.r):
            ins, outs = (tuple(sorted(s, key=label_key)) for s in g.neighbourhood(k + 1))
            decor.append(("e%d" % rng.randrange(4), ins, outs))
        return (random_fraction(rng) or 1, g, tuple(decor))
    terms = [term() for _ in range(rng.randint(1, max_terms))]
    return wprop.FreeElement(in_labels, out_labels, terms)


_N, _D, _DEN = 9, 4, 12  # numerators in -_N.._N, denominators in 1.._D, all dividing _DEN
_N_BITS, _D_BITS = (2 * _N + 1).bit_length(), _D.bit_length()  # the ranges' sizes' bit lengths


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_N, _N), rng.randint(1, _D))


def random_tensor(rng: random.Random, d: int, in_labels: Sequence,
                  out_labels: Sequence) -> Tensor:
    """Entries drawn as ``random_fraction``'s ``rng.randint`` calls draw them in
    CPython 3.10-3.12: ``getrandbits``, redrawn until it falls in the range."""
    axes = [(IN, l) for l in in_labels] + [(OUT, l) for l in out_labels]
    bits, num = rng.getrandbits, []
    for _ in range(d ** len(axes)):
        a = bits(_N_BITS)
        while a > 2 * _N:
            a = bits(_N_BITS)
        b = bits(_D_BITS)
        while b >= _D:
            b = bits(_D_BITS)
        num.append((a - _N) * (_DEN // (b + 1)))
    return Tensor._exact(d, axes, num, _DEN)


def endo_sampler(d: int):
    """A sampler of End elements with up to 2 axes per side, for the axiom suite."""
    def sample(rng: random.Random) -> Tensor:
        n = rng.randint(0, 2)
        m = rng.randint(0, 2)
        return random_tensor(rng, d, _labels("x", n), _labels("y", m))
    return sample


def random_free_term(rng: random.Random, sig: wprop.Signature) -> wprop.FreeElement:
    """A random word in the free prop: 1-2 generators, a loop or not, 0-1 contractions."""
    syms = sorted(sig.arities)
    fresh = itertools.count()
    gens = []
    for _ in range(rng.randint(1, 2)):
        sym = rng.choice(syms)
        n, m = sig.arity(sym)
        ins = ["g%d" % next(fresh) for _ in range(n)]
        outs = ["g%d" % next(fresh) for _ in range(m)]
        gens.append(wprop.eta(sig, sym, ins, outs))
    elem = functools.reduce(wprop.horizontal, gens)
    if rng.random() < 0.3:
        elem = wprop.horizontal(elem, wprop.loop_element())
    for _ in range(rng.randint(0, 1)):
        ins, outs = elem.boundary()
        if not ins or not outs:
            break
        i = rng.choice(sorted(ins, key=label_key))
        j = rng.choice(sorted(outs, key=label_key))
        elem = wprop.contract(elem, i, j)
    return elem


def free_sampler(sig: wprop.Signature, max_terms: int = 2):
    """A sampler of random free-prop elements (short linear combinations)."""
    def sample(rng: random.Random) -> wprop.FreeElement:
        first = random_free_term(rng, sig)
        elem = first.scale(random_fraction(rng) or 1)
        for _ in range(rng.randint(0, max_terms - 1)):
            other = random_free_term(rng, sig)
            ins1, outs1 = first.boundary()
            ins2, outs2 = other.boundary()
            if len(ins1) != len(ins2) or len(outs1) != len(outs2):
                continue
            f = dict(zip(sorted(ins2, key=label_key), sorted(ins1, key=label_key)))
            g = dict(zip(sorted(outs2, key=label_key), sorted(outs1, key=label_key)))
            elem = elem + wprop.relabel(other, f, g).scale(random_fraction(rng) or 1)
        return elem
    return sample
