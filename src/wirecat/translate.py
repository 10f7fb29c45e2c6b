"""Translation between wiring diagrams and labelled oriented graphs.

``graph_to_wd`` reads each vertex of a graph as an input box of a wiring
diagram, with the graph boundary becoming the output box (in/out flipped);
internal edges, boundary legs and free edges become matched strand pairs and
free loops become circles.  ``wd_to_graph`` is the inverse: input boxes become
vertices, strands crossing between boxes become edges, strands that stay on
the output box become free edges, and circles become free loops.

The two maps are mutually inverse: exactly on wiring diagrams, and up to flag
renaming (strict isomorphism) on graphs.
"""
from __future__ import annotations

from .errors import InvalidDiagram
from .graphs import DirectedGraph
from .wiring import IN, OUT, Interface, WiringDiagram, label_key


def graph_to_wd(g: DirectedGraph) -> WiringDiagram:
    """Wiring diagram of a graph: vertices become input boxes."""
    ins_g, outs_g = g.boundary()
    # The flip is intentional: graph inputs become outgoing labels of box 0.
    output = Interface(ins_g, outs_g)
    inputs = [Interface(outs, ins)
              for ins, outs in map(g.neighbourhood, range(1, g.r + 1))]

    def at_vertex(f):
        return (g._vertex_of[f] + 1, OUT if g.delta[f] == -1 else IN, g.lam[f])

    def at_box0(f):  # where a boundary leg ends: box 0 sees it reversed
        return (0, IN if g.delta[f] == -1 else OUT, g.beta[f])

    # The matching runs from out- to in-endpoints: the strand of an outgoing
    # (delta=-1) flag starts at the flag's own end.
    matching = {at_vertex(f): at_vertex(m) for f, m in g.iota.items()
                if m != f and g.delta[f] == -1}
    for f in g.beta:
        near = at_vertex(f) if f in g._vertex_of else at_box0(g.pi[f])
        src, dst = (near, at_box0(f)) if g.delta[f] == -1 else (at_box0(f), near)
        matching[src] = dst
    return WiringDiagram(output, inputs, matching, g.loop_count)


def wd_to_graph(d: WiringDiagram) -> DirectedGraph:
    """Graph of a wiring diagram: input boxes become vertices.

    The flags are the diagram's endpoints, numbered from 0 in this order:
    boxes 1..r in turn, each with its out-labels and then its in-labels, then
    the out-labels and then the in-labels of box 0 whose strand stays on box 0
    (the free-edge flags).  Labels run in ``wiring.label_key`` order.
    """
    if not isinstance(d, WiringDiagram):
        raise InvalidDiagram("not a wiring diagram: %r" % (d,))
    mate = {**d.matching, **{dst: src for src, dst in d.matching.items()}}

    def ends(box, itf):
        return [(box, pol, a)
                for pol, labels in ((OUT, itf.out_labels), (IN, itf.in_labels))
                for a in sorted(labels, key=label_key)]

    flags = [e for box, itf in enumerate(d.inputs, 1) for e in ends(box, itf)]
    flags += [e for e in ends(0, d.output) if mate[e][0] == 0]
    number = {e: n for n, e in enumerate(flags)}

    vertices = [[] for _ in d.inputs]
    exceptional, iota, pi, delta, lam, beta = [], {}, {}, {}, {}, {}
    for n, (box, pol, a) in enumerate(flags):
        m = mate[(box, pol, a)]
        # An in-endpoint is an incoming flag; box 0 is seen from outside.
        delta[n] = 1 if (pol == IN) == (box > 0) else -1
        if not box:
            exceptional.append(n)
            pi[n], beta[n] = number[m], a
            continue
        vertices[box - 1].append(n)
        lam[n] = a
        if m[0]:
            iota[n] = number[m]
        else:
            beta[n] = m[2]
    return DirectedGraph._trusted(vertices, exceptional, iota, pi, delta,
                                  lam, beta, d.circles)
