"""Seeded random generators for diagrams, graphs, tensors and free elements.

Everything is driven by a caller-supplied ``random.Random`` so that runs are
reproducible.  The default size parameters are the ones used by the law
suites: diagrams with at most 5 boxes, 4 labels per polarity per box and 2
circles; graphs with at most 3 vertices per level.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import wprop
from .endo import Tensor
from .graphs import DirectedGraph
from .translate import wd_to_graph
from .wiring import IN, OUT, Interface, WiringDiagram


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
    while sum(outs) > sum(ins):
        k = rng.choice([k for k in range(r + 1) if outs[k]])
        outs[k] -= 1
    while sum(ins) > sum(outs):
        k = rng.choice([k for k in range(r + 1) if ins[k]])
        ins[k] -= 1
    interfaces = [Interface(_labels("a", outs[k]), _labels("b", ins[k]))
                  for k in range(r + 1)]
    out_eps = [(k, OUT, a) for k in range(r + 1)
               for a in sorted(interfaces[k].out_labels)]
    in_eps = [(k, IN, a) for k in range(r + 1)
              for a in sorted(interfaces[k].in_labels)]
    rng.shuffle(in_eps)
    matching = dict(zip(out_eps, in_eps))
    return WiringDiagram(interfaces[0], interfaces[1:], matching,
                         rng.randint(0, max_circles))


def random_diagram_into(rng: random.Random, outer: WiringDiagram, i: int,
                        max_boxes: int = 3, max_labels: int = 3,
                        max_circles: int = 2) -> WiringDiagram:
    """A random diagram composable into box ``i`` (1-based) of ``outer``."""
    inner = outer.inputs[i - 1]
    return random_diagram_with_output(rng, inner.in_labels, inner.out_labels,
                                      max_boxes, max_labels, max_circles)


def random_diagram_with_output(rng: random.Random, out_labels, in_labels,
                               max_boxes: int = 3, max_labels: int = 3,
                               max_circles: int = 2) -> WiringDiagram:
    """A random diagram with the prescribed output interface."""
    output = Interface(out_labels, in_labels)
    r = rng.randint(0, max_boxes)
    outs = [rng.randint(0, max_labels) for _ in range(r)]
    ins = [rng.randint(0, max_labels) for _ in range(r)]
    # Balance: the output interface is fixed, so trim or top up the input
    # boxes (adding a box if there is nothing left to adjust).
    while len(output.out_labels) + sum(outs) != len(output.in_labels) + sum(ins):
        gap = (len(output.out_labels) + sum(outs)
               - (len(output.in_labels) + sum(ins)))
        if gap > 0:
            trimmable = [k for k in range(r) if outs[k]]
            if trimmable and rng.random() < 0.5:
                outs[rng.choice(trimmable)] -= 1
                continue
            if r == 0 or all(ins[k] >= max_labels for k in range(r)):
                outs.append(0)
                ins.append(0)
                r += 1
            ins[rng.choice([k for k in range(r) if ins[k] < max_labels] or
                           list(range(r)))] += 1
        else:
            trimmable = [k for k in range(r) if ins[k]]
            if trimmable and rng.random() < 0.5:
                ins[rng.choice(trimmable)] -= 1
                continue
            if r == 0 or all(outs[k] >= max_labels for k in range(r)):
                outs.append(0)
                ins.append(0)
                r += 1
            outs[rng.choice([k for k in range(r) if outs[k] < max_labels] or
                            list(range(r)))] += 1
    interfaces = [output] + [Interface(_labels("c", outs[k]), _labels("d", ins[k]))
                             for k in range(r)]
    out_eps = [(k, OUT, a) for k in range(r + 1)
               for a in sorted(interfaces[k].out_labels)]
    in_eps = [(k, IN, a) for k in range(r + 1)
              for a in sorted(interfaces[k].in_labels)]
    rng.shuffle(in_eps)
    matching = dict(zip(out_eps, in_eps))
    return WiringDiagram(output, interfaces[1:], matching,
                         rng.randint(0, max_circles))


def random_composable_pair(rng: random.Random, **kw):
    """(outer, i, inner) with inner composable into box i of outer."""
    while True:
        d = random_wiring_diagram(rng, **kw)
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
                               max_vertices: int = 3, max_labels: int = 3,
                               max_circles: int = 1) -> DirectedGraph:
    """A random valid graph with the prescribed boundary label sets."""
    d = random_diagram_with_output(rng, in_labels, out_labels,
                                   max_boxes=max_vertices,
                                   max_labels=max_labels,
                                   max_circles=max_circles)
    return wd_to_graph(d)


def random_decorated_element(rng: random.Random, in_labels, out_labels,
                             max_vertices: int = 3, max_terms: int = 2,
                             n_symbols: int = 4) -> wprop.FreeElement:
    """A random free-prop element with the prescribed boundary.

    Decorations are synthesized ad hoc (symbol plus slot order), which is all
    the monad laws care about.
    """
    def term():
        g = random_graph_with_boundary(rng, in_labels, out_labels, max_vertices)
        decor = []
        for k in range(g.r):
            ins, outs = g.neighbourhood(k + 1)
            decor.append(("e%d" % rng.randrange(n_symbols),
                          tuple(sorted(ins)), tuple(sorted(outs))))
        return (random_fraction(rng) or 1, g, tuple(decor))
    terms = [term() for _ in range(rng.randint(1, max_terms))]
    return wprop.FreeElement(in_labels, out_labels, terms)


def random_fraction(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_tensor(rng: random.Random, d: int, in_labels: Sequence,
                  out_labels: Sequence) -> Tensor:
    axes = [(IN, l) for l in in_labels] + [(OUT, l) for l in out_labels]
    size = d ** len(axes)
    data = [random_fraction(rng) for _ in range(size)]
    return Tensor(d, axes, data)


def endo_sampler(d: int, max_in: int = 2, max_out: int = 2):
    """A sampler of random End elements for the axiom suite."""
    def sample(rng: random.Random) -> Tensor:
        n = rng.randint(0, max_in)
        m = rng.randint(0, max_out)
        return random_tensor(rng, d, _labels("x", n), _labels("y", m))
    return sample


def random_free_term(rng: random.Random, sig: wprop.Signature,
                     max_gens: int = 2, max_contractions: int = 1) -> wprop.FreeElement:
    """A single random product-and-contract word in the free prop."""
    syms = sorted(sig.arities)
    fresh = itertools.count()
    elem = wprop.unit_empty()
    for _ in range(rng.randint(1, max_gens)):
        sym = rng.choice(syms)
        n, m = sig.arity(sym)
        ins = ["g%d" % next(fresh) for _ in range(n)]
        outs = ["g%d" % next(fresh) for _ in range(m)]
        elem = wprop.horizontal(elem, wprop.eta(sig, sym, ins, outs))
    if rng.random() < 0.3:
        elem = wprop.horizontal(elem, wprop.loop_element())
    for _ in range(rng.randint(0, max_contractions)):
        ins, outs = elem.boundary()
        if not ins or not outs:
            break
        i = rng.choice(sorted(ins))
        j = rng.choice(sorted(outs))
        elem = wprop.contract(elem, i, j)
    return elem


def free_sampler(sig: wprop.Signature, max_gens: int = 2,
                 max_contractions: int = 1, max_terms: int = 2):
    """A sampler of random free-prop elements (short linear combinations)."""
    def sample(rng: random.Random) -> wprop.FreeElement:
        first = random_free_term(rng, sig, max_gens, max_contractions)
        elem = first.scale(random_fraction(rng) or 1)
        for _ in range(rng.randint(0, max_terms - 1)):
            other = random_free_term(rng, sig, max_gens, max_contractions)
            ins1, outs1 = first.boundary()
            ins2, outs2 = other.boundary()
            if len(ins1) != len(ins2) or len(outs1) != len(outs2):
                continue
            f = dict(zip(sorted(ins2), sorted(ins1)))
            g = dict(zip(sorted(outs2), sorted(outs1)))
            elem = elem + wprop.relabel(other, f, g).scale(random_fraction(rng) or 1)
        return elem
    return sample
