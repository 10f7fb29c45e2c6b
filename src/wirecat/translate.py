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
from .wiring import IN, OUT, Interface, WiringDiagram


def graph_to_wd(g: DirectedGraph) -> WiringDiagram:
    """Wiring diagram of a graph: vertices become input boxes."""
    ins_g, outs_g = g.boundary()
    # The flip is intentional: graph inputs become outgoing labels of box 0.
    output = Interface(ins_g, outs_g)
    inputs = []
    for v in range(1, g.r + 1):
        ins_v, outs_v = g.neighbourhood(v)
        inputs.append(Interface(outs_v, ins_v))

    # beta^{-1} on the boundary, split by sign.
    binv = {(g.delta[f], g.beta[f]): f for f in g.boundary_flags()}
    vertex_of = g._vertex_of

    matching = {}

    def out_endpoints():
        # Box 0 out-labels are in(G): boundary flags with delta=+1.
        for a in sorted(ins_g):
            yield (0, OUT, a)
        for i, itf in enumerate(inputs, start=1):
            for a in sorted(itf.out_labels):
                yield (i, OUT, a)

    for (box, _, a) in out_endpoints():
        if box >= 1:
            # The unique outgoing (delta=-1) flag of v_box labelled a.
            f = next(x for x in g.vertices[box - 1]
                     if g.delta[x] == -1 and g.lam[x] == a)
            m = g.iota.get(f, f)
            if m != f:
                j = vertex_of[m] + 1
                matching[(box, OUT, a)] = (j, IN, g.lam[m])
            else:
                # Boundary leg: lands on box 0.  An outgoing leg carries a
                # label of out(G) = in-labels of box 0.
                matching[(box, OUT, a)] = (0, IN, g.beta[f])
        else:
            # Box 0 out-label a is a graph input: the delta=+1 boundary flag.
            f = binv[(1, a)]
            if f in vertex_of:
                j = vertex_of[f] + 1
                matching[(0, OUT, a)] = (j, IN, g.lam[f])
            else:
                m = g.pi[f]
                matching[(0, OUT, a)] = (0, IN, g.beta[m])

    return WiringDiagram(output, inputs, matching, g.loop_count)


def wd_to_graph(d: WiringDiagram) -> DirectedGraph:
    """Graph of a wiring diagram: input boxes become vertices."""
    if not isinstance(d, WiringDiagram):
        raise InvalidDiagram("not a wiring diagram: %r" % (d,))
    p = dict(d.matching)
    pinv = {v: k for k, v in p.items()}

    def match_of(box, pol, a):
        """Where the strand at (box,pol,a) leads, regardless of polarity."""
        if pol == OUT:
            return p[(box, OUT, a)]
        return pinv[(box, IN, a)]

    names = []
    vertices = []
    for i in range(1, d.r + 1):
        cell = []
        itf = d.inputs[i - 1]
        for pol, labels in ((OUT, itf.out_labels), (IN, itf.in_labels)):
            for a in sorted(labels):
                cell.append((a, i, pol))
        names.extend(cell)
        vertices.append(cell)
    exceptional = []
    for pol, labels in ((OUT, d.output.out_labels), (IN, d.output.in_labels)):
        for a in sorted(labels):
            dest = match_of(0, pol, a)
            if dest[0] == 0:
                exceptional.append((a, 0, pol))

    iota, pi, delta, lam, beta = {}, {}, {}, {}, {}
    for (a, i, pol) in names:
        dest_box, _, dest_label = match_of(i, pol, a)
        if dest_box != 0:
            opp = IN if pol == OUT else OUT
            iota[(a, i, pol)] = (dest_label, dest_box, opp)
        else:
            beta[(a, i, pol)] = dest_label
        lam[(a, i, pol)] = a
        delta[(a, i, pol)] = 1 if pol == IN else -1
    for (a, _, pol) in exceptional:
        dest_box, _, dest_label = match_of(0, pol, a)
        opp = IN if pol == OUT else OUT
        pi[(a, 0, pol)] = (dest_label, 0, opp)
        beta[(a, 0, pol)] = a
        delta[(a, 0, pol)] = -1 if pol == IN else 1

    # Re-index structured flag names to opaque integers.
    order = {f: n for n, f in enumerate(names + exceptional)}
    remap = lambda m: {order[k]: m[k] for k in m}
    remap_pairs = lambda m: {order[k]: order[v] for k, v in m.items()}
    return DirectedGraph(
        [[order[f] for f in cell] for cell in vertices],
        [order[f] for f in exceptional],
        remap_pairs(iota), remap_pairs(pi),
        remap(delta), remap(lam), remap(beta),
        d.circles,
    )
