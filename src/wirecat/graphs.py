"""Labelled oriented graphs with an exceptional cell, and graph substitution.

A graph is a finite flag set partitioned into an ordered list of vertices plus
an exceptional cell.  The involution ``iota`` pairs flags into edges; flags it
fixes form the boundary.  Exceptional flags are the ends of free-floating
edges and are paired by the fixed-point-free involution ``pi``.  Free loops
carry no labels or signs, so they are stored as a bare count.  ``delta`` gives
each flag a direction (+1 incoming, -1 outgoing), ``lam`` labels vertex flags
and ``beta`` labels boundary flags.

Strict isomorphism renames flags only; loose isomorphism may additionally
permute the vertex order.  Substitution replaces a vertex by a graph with
matching boundary and resolves the glued strands with
``wiring.resolve_strands``.
"""
from __future__ import annotations

import itertools
import json
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BoundaryMismatch,
    InvalidGraph,
    UnknownVertex,
)
from .wiring import _LABEL, all_fit, label_key, misfit, repeats, resolve_strands


class DirectedGraph:
    """An immutable labelled oriented graph.

    ``vertices`` is an ordered tuple of disjoint flag sets; ``exceptional``
    holds the free-edge flags (all fixed by ``iota``, paired by ``pi``).
    Free loops appear only in ``loop_count``.

    ``validate`` ties each map to the flags it covers, and readers rely on
    it: ``delta``'s domain is every flag, ``lam``'s the vertex flags,
    ``beta``'s the boundary (the ``iota``-fixed flags) and ``pi``'s the
    exceptional cell.

    ``DirectedGraph(...)`` copies the maps it is given and validates.
    Surgery on valid graphs (``reorder``, ``substitute``, ``wd_to_graph``,
    the free prop's union, gluing and relabelling), ``free_edge``,
    ``corolla`` and ``free_loop`` build through ``_trusted``, which keeps the
    maps it is given: no code writes into a graph's maps.
    """

    __slots__ = ("vertices", "exceptional", "iota", "pi", "delta", "lam",
                 "beta", "loop_count", "_vertex_of")

    def __init__(self, vertices: Iterable[Iterable], exceptional: Iterable = (),
                 iota: Mapping = (), pi: Mapping = (), delta: Mapping = (),
                 lam: Mapping = (), beta: Mapping = (), loop_count: int = 0):
        self._fill(vertices, exceptional, *map(dict, (iota, pi, delta, lam, beta)),
                   loop_count)
        violations = self.validate()
        if violations:
            raise InvalidGraph(violations)

    @classmethod
    def _trusted(cls, *parts) -> "DirectedGraph":
        """``DirectedGraph(*parts)`` without ``validate``, for valid parts.  It
        takes ownership of the five maps: callers pass fresh dicts, or those
        of a graph they leave unchanged."""
        g = cls.__new__(cls)
        g._fill(*parts)
        return g

    def _fill(self, vertices, exceptional, iota, pi, delta, lam, beta, loop_count):
        self.vertices = tuple(frozenset(v) for v in vertices)
        self.exceptional = frozenset(exceptional)
        self.iota, self.pi, self.delta, self.lam, self.beta = iota, pi, delta, lam, beta
        self.loop_count = loop_count
        self._vertex_of = {f: idx for idx, v in enumerate(self.vertices) for f in v}

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Return a list of violated-invariant descriptions (empty if valid)."""
        bad = []
        cells = list(self.vertices) + [self.exceptional]
        seen = set()
        for cell in cells:
            inter = seen & cell
            if inter:
                bad.append("PartitionOverlap: flags %r in two cells" % sorted(inter, key=repr))
            seen |= cell
        vertex_flags = set().union(*self.vertices) if self.vertices else set()
        all_flags = vertex_flags | self.exceptional

        for f in all_flags:
            if self.iota.get(f, f) == f:
                continue
            g = self.iota[f]
            if g not in all_flags or self.iota.get(g, g) != f:
                bad.append("ExceptionalLeak: iota not an involution at %r" % (f,))
            elif f in self.exceptional or g in self.exceptional:
                # Paired exceptional flags would be a free loop; loops live in
                # loop_count, and the exceptional cell must be iota-fixed.
                bad.append("ExceptionalLeak: iota moves exceptional flag %r" % (f,))
        if not all_flags.issuperset(self.iota):
            bad.append("ExceptionalLeak: iota pairs flags that are in no cell")

        if set(self.pi) != self.exceptional:
            bad.append("PiDomain: pi domain is not the exceptional cell")
        for f, g in self.pi.items():
            if f == g:
                bad.append("PiFixedPoint: pi fixes %r" % (f,))
            elif self.pi.get(g) != f:
                bad.append("PiFixedPoint: pi not an involution at %r" % (f,))

        for f in all_flags:
            if self.delta.get(f) not in (-1, 1):
                bad.append("DeltaMismatch: no direction on flag %r" % (f,))
        if not all_flags.issuperset(self.delta):
            bad.append("DeltaMismatch: delta directs flags that are in no cell")
        for f in all_flags:
            g = self.iota.get(f, f)
            if g != f and self.delta.get(f) == self.delta.get(g):
                bad.append("DeltaMismatch: delta equal across edge (%r,%r)" % (f, g))
        for f, g in self.pi.items():
            if self.delta.get(f) == self.delta.get(g):
                bad.append("DeltaMismatch: delta equal across free edge (%r,%r)" % (f, g))

        if set(self.lam) != vertex_flags:
            bad.append("LabelCollision: lambda domain is not the vertex flags")
        for idx, v in enumerate(self.vertices):
            for sign in (-1, 1):
                labels = [self.lam.get(f) for f in v if self.delta.get(f) == sign]
                if len(labels) != len(set(labels)):
                    bad.append("LabelCollision: lambda not injective on vertex %d sign %+d"
                               % (idx + 1, sign))

        boundary_flags = {f for f in all_flags if self.iota.get(f, f) == f}
        if set(self.beta) != boundary_flags:
            bad.append("LabelCollision: beta domain is not the boundary")
        for sign in (-1, 1):
            labels = [self.beta.get(f) for f in boundary_flags if self.delta.get(f) == sign]
            if len(labels) != len(set(labels)):
                bad.append("LabelCollision: beta not injective on sign %+d" % sign)

        if self.loop_count < 0 or self.loop_count != int(self.loop_count):
            bad.append("LoopCount: %r is not a nonnegative integer count of free loops"
                       % (self.loop_count,))
        return bad

    # -- structure -----------------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.vertices)

    def vertex(self, v: int) -> frozenset:
        if not 1 <= v <= self.r:
            raise UnknownVertex("vertex %d of %d" % (v, self.r))
        return self.vertices[v - 1]

    def neighbourhood(self, v: int) -> Tuple[frozenset, frozenset]:
        """(in_labels, out_labels) of vertex ``v`` (1-based)."""
        flags = self.vertex(v)
        ins = frozenset(self.lam[f] for f in flags if self.delta[f] == 1)
        outs = frozenset(self.lam[f] for f in flags if self.delta[f] == -1)
        return ins, outs

    def boundary(self) -> Tuple[frozenset, frozenset]:
        """(in_labels, out_labels) of the whole graph."""
        ins = frozenset(b for f, b in self.beta.items() if self.delta[f] == 1)
        outs = frozenset(b for f, b in self.beta.items() if self.delta[f] == -1)
        return ins, outs

    def __eq__(self, other):
        return (isinstance(other, DirectedGraph)
                and canonical_form(self) == canonical_form(other))

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return "DirectedGraph(r=%d, loops=%d)" % (self.r, self.loop_count)


# -- canonical forms ---------------------------------------------------------

def canonical_form(g: DirectedGraph):
    """``g`` without flag names; equal iff the graphs are strictly isomorphic.
    Each vertex lists its flags by direction and label, each with its boundary
    label, or with its mate's label and the (0-based) index of its vertex."""
    def record(f):
        mate = g.iota.get(f, f)
        if mate == f:
            return (g.delta[f], g.lam[f], "b", g.beta[f])
        return (g.delta[f], g.lam[f], "e", g.lam[mate], g._vertex_of[mate])
    verts = tuple(tuple(map(record, sorted(v, key=lambda f: (
        g.delta[f], repr(g.lam[f]))))) for v in g.vertices)
    free_edges = sorted(((g.beta[f], g.beta[m]) for f, m in g.pi.items()
                         if g.delta[f] == 1), key=repr)
    return (verts, tuple(free_edges), g.loop_count)


def _dense(values):
    """Each value's rank among the distinct ``values``."""
    rank = {x: i for i, x in enumerate(sorted(set(values)))}
    return [rank[x] for x in values]


def _labelling(records, colours: Sequence[int]) -> List[int]:
    """A canonical vertex order (0-based) of ``g``, given as its vertex records
    ``canonical_form(g)[0]``, with initial vertex colours ``colours``, by
    individualisation and refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): refinement splits colour classes by the colours at
    the far ends of each vertex's edges until nothing splits, and the search
    individualises in turn each vertex of the tied cell with the smallest
    colour.  The least leaf by (cell structures on its path, certificate)
    wins.  Tied leaves reveal automorphisms; those that fix the path to a node
    prune its children.
    """
    vertices = range(len(records))
    local = _dense([repr((colours[v], [r[:4] for r in records[v]])) for v in vertices])
    mates = [[r[4] for r in records[v] if r[2] == "e"] for v in vertices]
    best, autos = [], []

    def refine(col):
        while True:
            new = _dense([(col[v], tuple(col[w] for w in mates[v])) for v in vertices])
            if len(set(new)) == len(set(col)):
                return new
            col = new

    def search(col, trace, path):
        """Explore the node ``path``; return the depth to carry on at."""
        if best and trace > best[0][0][:len(trace)]:
            return len(path)
        cells = [list(cell) for _, cell in itertools.groupby(
            sorted(vertices, key=col.__getitem__), col.__getitem__)]
        tied = [cell for cell in cells if len(cell) > 1]
        if not tied:  # col[v] is the position of v
            order = [cell[0] for cell in cells]
            key = (trace, [(local[v], [col[w] for w in mates[v]]) for v in order])
            if not best or key < best[0]:
                best[:] = key, order, path
            if key != best[0] or order == best[1]:
                return len(path)
            # An automorphism: it fixes the node where this path leaves the
            # best one, and maps the explored child there to this path's.
            autos.append([w for _, w in sorted(zip(best[1], order))])
            return next(k for k, (v, w) in enumerate(zip(path, best[2])) if v != w)
        children, seen = [], set()
        for v in tied[0]:
            if v not in seen:  # one child per orbit of the known automorphisms
                seen |= _orbit([v], autos, path)
                child = refine([2 * c + (u != v) for u, c in enumerate(col)])
                children.append((tuple(sorted(child)), v, child))
        done, seen = [], set()
        for cells, v, child in sorted(children):
            if v not in seen:
                back = search(child, trace + (cells,), path + [v])
                if back < len(path):
                    return back
                done.append(v)
                seen = _orbit(done, autos, path)
        return len(path)

    col = refine(local)
    search(col, (tuple(sorted(col)),), [])
    return best[1]


def _orbit(points, autos, fixed):
    """The orbit of ``points`` under the automorphisms that fix ``fixed``."""
    gens = [a for a in autos if all(a[p] == p for p in fixed)]
    seen, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        new = {a[x] for a in gens} - seen
        seen |= new
        todo += new
    return seen


def is_isomorphic_strict(g: DirectedGraph, h: DirectedGraph) -> bool:
    return canonical_form(g) == canonical_form(h)


def reorder(g: DirectedGraph, order: Sequence[int]) -> DirectedGraph:
    """Permute the vertex order; ``order[k]`` is the 1-based old index of the
    new vertex ``k+1``."""
    if sorted(order) != list(range(1, g.r + 1)):
        raise UnknownVertex("not a permutation of 1..%d: %r" % (g.r, order))
    vertices = tuple(g.vertices[i - 1] for i in order)
    return DirectedGraph._trusted(vertices, g.exceptional, g.iota, g.pi, g.delta,
                                  g.lam, g.beta, g.loop_count)


def loose_canonical_form(g: DirectedGraph, decorations: Optional[Sequence] = None,
                         with_order: bool = False):
    """A canonical key invariant under vertex reordering.

    ``decorations`` optionally attaches one comparable value per vertex that
    must travel with it.  ``with_order`` also returns the order of the
    vertices in the key, as ``reorder`` takes it."""
    decorations = [None] * g.r if decorations is None else list(decorations)
    records, free_edges, loops = canonical_form(g)
    order = _labelling(records, _dense([repr(d) for d in decorations]))
    # The strict key of ``g`` reordered: each mate's vertex is its position.
    position = {v: k for k, v in enumerate(order)}
    verts = tuple(tuple(r if r[2] == "b" else r[:4] + (position[r[4]],)
                        for r in records[v]) for v in order)
    key = ((verts, free_edges, loops), tuple(decorations[v] for v in order))
    return (key, tuple(v + 1 for v in order)) if with_order else key


def is_isomorphic_loose(g: DirectedGraph, h: DirectedGraph) -> Optional[Tuple[int, ...]]:
    """An order ``o`` with ``reorder(g, o)`` strictly isomorphic to ``h``, or None."""
    (key_g, order_g), (key_h, order_h) = (loose_canonical_form(x, with_order=True)
                                          for x in (g, h))
    if key_g != key_h:
        return None
    return tuple(v for _, v in sorted(zip(order_h, order_g)))


# -- corollas and substitution ----------------------------------------------

def corolla(in_labels: Iterable[str], out_labels: Iterable[str]) -> DirectedGraph:
    """A one-vertex graph with only boundary legs, each labelled as its flag."""
    delta, lam = {}, {}
    for sign, labels in ((1, in_labels), (-1, out_labels)):
        for a in sorted(labels, key=label_key):
            n = len(lam)
            delta[n], lam[n] = sign, a
    # Every leg is a boundary leg labelled as its flag: one dict is both maps.
    g = DirectedGraph._trusted([list(lam)], (), {}, {}, delta, lam, lam, 0)
    if len(set(zip(delta.values(), lam.values()))) < len(lam):  # a label repeats
        raise InvalidGraph(g.validate())
    return g


def free_edge(in_label: str, out_label: str) -> DirectedGraph:
    """The free-floating edge with boundary ({in_label}, {out_label})."""
    return DirectedGraph._trusted([], [0, 1], {}, {0: 1, 1: 0},
                                  {0: 1, 1: -1}, {}, {0: in_label, 1: out_label}, 0)


def free_loop(count: int = 1) -> DirectedGraph:
    """``count`` free loops and nothing else."""
    g = DirectedGraph._trusted([], (), {}, {}, {}, {}, {}, count)
    if count < 0 or count != int(count):
        raise InvalidGraph(g.validate())
    return g


def substitute(g: DirectedGraph, v: int, h: DirectedGraph) -> DirectedGraph:
    """Replace vertex ``v`` of ``g`` by the graph ``h``.

    Requires ``boundary(h) == neighbourhood(g, v)``.  Each boundary flag of
    ``h`` is glued to the flag of ``v`` with the same label and direction;
    strands are resolved end-to-end, and strands that close up become free
    loops.
    """
    g.vertex(v)  # raises UnknownVertex
    if h.boundary() != g.neighbourhood(v):
        raise BoundaryMismatch(
            "boundary %r of inner graph != neighbourhood %r of vertex %d"
            % (h.boundary(), g.neighbourhood(v), v))

    removed = g.vertices[v - 1]
    # Glue: flag f of the removed vertex meets the boundary flag of h carrying
    # the same label with the same direction.
    h_leg = {(h.delta[f], b): f for f, b in h.beta.items()}
    glue = {("G", f): ("H", h_leg[(g.delta[f], g.lam[f])]) for f in removed}
    glue.update({b: a for a, b in glue.items()})

    # Structural links: iota pairs and pi pairs on both sides.
    link = {}
    for side, gr in (("G", g), ("H", h)):
        for f, m in gr.iota.items():
            if m != f:
                link[(side, f)] = (side, m)
        for f, m in gr.pi.items():
            link[(side, f)] = (side, m)

    # New flag ids for kept vertex flags.
    fresh = itertools.count()
    new_id = {}
    vertices = []
    order = ([("G", i) for i in range(v - 1)] + [("H", i) for i in range(h.r)]
             + [("G", i) for i in range(v, g.r)])
    delta, lam, beta, iota, pi = {}, {}, {}, {}, {}
    for side, i in order:
        gr = g if side == "G" else h
        cell = []
        for f in sorted(gr.vertices[i], key=repr):
            nf = next(fresh)
            new_id[(side, f)] = nf
            delta[nf] = gr.delta[f]
            lam[nf] = gr.lam[f]
            cell.append(nf)
        vertices.append(cell)

    # Strands end at kept vertex flags (of g or h) or at boundary ends of g:
    # its free-edge flags and the iota-fixed legs of the removed vertex.
    # Exceptional flags of h and internal flags of the removed vertex are
    # passed through.  Free edges of the result take fresh ids in walk order.
    ends = list(new_id) + [("G", f) for f in sorted(g.exceptional, key=repr)]
    ends += [("G", f) for f in sorted(removed, key=repr) if f in g.beta]
    strands, closed = resolve_strands(link, glue, ends)
    exceptional = []
    for a, b in strands:
        if a == b:  # a kept boundary leg of g
            beta[new_id[a]] = g.beta[a[1]]
        elif a in new_id and b in new_id:
            iota[new_id[a]], iota[new_id[b]] = new_id[b], new_id[a]
        elif a in new_id or b in new_id:
            flag, leg = (a, b) if a in new_id else (b, a)
            beta[new_id[flag]] = g.beta[leg[1]]
        else:  # two boundary ends: a free edge of the result
            ids = next(fresh), next(fresh)
            for nf, (_, f) in zip(ids, (a, b)):
                delta[nf] = g.delta[f]
                beta[nf] = g.beta[f]
            pi[ids[0]], pi[ids[1]] = ids[1], ids[0]
            exceptional += ids

    return DirectedGraph._trusted(vertices, exceptional, iota, pi, delta, lam, beta,
                                  g.loop_count + h.loop_count + closed)


def substitute_all(g: DirectedGraph, inner: Mapping[int, DirectedGraph]) -> DirectedGraph:
    """Substitute several vertices at once (equivalently: one by one)."""
    out = g
    for v in sorted(inner, reverse=True):
        out = substitute(out, v, inner[v])
    return out


# -- serialization -----------------------------------------------------------

def _flag_sort_key(f):
    # Integers numerically first, everything else after by repr, so that a
    # graph whose flags are already 0..n-1 keeps its indexing (idempotent
    # serialization).
    return (0, f, "") if isinstance(f, int) else (1, 0, repr(f))


def to_obj(g: DirectedGraph):
    flags = sorted(g.delta, key=_flag_sort_key)
    idx = {f: i for i, f in enumerate(flags)}
    return {
        "vertices": [sorted(idx[f] for f in v) for v in g.vertices],
        "exceptional": sorted(idx[f] for f in g.exceptional),
        "iota": sorted([idx[a], idx[b]] for a, b in g.iota.items() if a != b and repr(a) < repr(b)),
        "pi": sorted([idx[a], idx[b]] for a, b in g.pi.items() if repr(a) < repr(b)),
        "delta": [[idx[f], g.delta[f]] for f in flags],
        "lambda": sorted([idx[f], g.lam[f]] for f in g.lam),
        "beta": sorted([idx[f], g.beta[f]] for f in g.beta),
        "loops": g.loop_count,
    }


_PAIRS = [[None, None]]
_LABELS = [[None, _LABEL]]
_GRAPH = {"vertices": [[None]], "exceptional": [None], "iota": _PAIRS,
          "pi": _PAIRS, "delta": [[None, (int,)]], "lambda": _LABELS, "beta": _LABELS,
          "loops": (int,), "loop_flags": (int,)}


def from_obj(obj) -> DirectedGraph:
    if not all_fit([obj], _GRAPH):
        raise InvalidGraph(["NotAGraph: %.80r does not fit {vertices, exceptional, iota, pi, "
                            "delta, lambda, beta, loops}" % (misfit(obj, _GRAPH),)])
    cells = [*obj.get("vertices", []), obj.get("exceptional", [])]
    keys = ("delta", "lambda", "beta")
    delta, lam, beta = maps = [dict(obj.get(key, [])) for key in keys]
    # The cells of a valid graph list each flag of ``delta`` once, so only
    # where a count fails can a repeated entry merge into a valid graph.
    if (sum(map(len, cells)) != len(delta)
            or any(len(m) < len(obj.get(key, [])) for key, m in zip(keys, maps))):
        bad = repeats([("vertex %d" % k, v) for k, v in enumerate(cells[:-1], 1)]
                      + [("exceptional", cells[-1])]
                      + [(key, [f for f, _ in obj.get(key, [])]) for key in keys])
        if bad:
            raise InvalidGraph(bad)
    iota, pi = {}, {}
    for pairing, key in ((iota, "iota"), (pi, "pi")):
        for a, b in obj.get(key, []):
            pairing[a], pairing[b] = b, a
    loop_flags = obj.get("loop_flags", 0)
    if loop_flags % 2 or loop_flags < 0:
        raise InvalidGraph(["OddLoopFlags: %d is not an even nonnegative number of "
                            "loop flags" % loop_flags])
    return DirectedGraph(cells[:-1], cells[-1], iota, pi, delta, lam, beta,
                         obj.get("loops", 0) + loop_flags // 2)


def to_json(g: DirectedGraph) -> str:
    return json.dumps(to_obj(g), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> DirectedGraph:
    return from_obj(json.loads(text))


def _quoted(label) -> str:
    """``label`` as the inside of a DOT string: ``\\`` and ``"`` escaped."""
    return str(label).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: DirectedGraph) -> str:
    """GraphViz rendering: arrows run from outgoing (-1) to incoming (+1)."""
    lines = ["digraph G {"]
    for i in range(1, g.r + 1):
        lines.append('  v%d [label="v%d"];' % (i, i))
    n = 0
    for f in sorted(g.iota, key=repr):
        m = g.iota[f]
        if m == f or repr(f) > repr(m):
            continue
        src, dst = (f, m) if g.delta[f] == -1 else (m, f)
        lines.append('  v%d -> v%d [taillabel="%s", headlabel="%s"];'
                     % (g._vertex_of[src] + 1, g._vertex_of[dst] + 1,
                        _quoted(g.lam[src]), _quoted(g.lam[dst])))
    for f in sorted(g.beta.keys() - g.exceptional, key=repr):
        n += 1
        lines.append('  b%d [shape=none, label="%s"];' % (n, _quoted(g.beta[f])))
        v = g._vertex_of[f] + 1
        if g.delta[f] == 1:
            lines.append("  b%d -> v%d;" % (n, v))
        else:
            lines.append("  v%d -> b%d;" % (v, n))
    for f in sorted(g.pi, key=repr):
        if repr(f) > repr(g.pi[f]):
            continue
        m = g.pi[f]
        src, dst = (f, m) if g.delta[f] == -1 else (m, f)
        n += 1
        lines.append('  e%da [shape=none, label="%s"];' % (n, _quoted(g.beta[src])))
        lines.append('  e%db [shape=none, label="%s"];' % (n, _quoted(g.beta[dst])))
        lines.append("  e%da -> e%db;" % (n, n))
    for j in range(g.loop_count):
        lines.append('  loop%d [shape=point, label=""];' % (j + 1))
        lines.append("  loop%d -> loop%d;" % (j + 1, j + 1))
    lines.append("}")
    return "\n".join(lines)
