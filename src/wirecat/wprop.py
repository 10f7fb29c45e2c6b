"""The free wheeled prop on a signature, and the wheeled-prop axiom suite.

Elements of the free wheeled prop are exact-rational linear combinations of
generator-decorated graphs, with the vertex order quotiented away: term keys
are loose canonical forms in which each vertex's decoration travels with it.
The biased operations — horizontal composition (disjoint union), contraction
(boundary gluing), units and relabelling — act by direct graph surgery, and
``flatten`` is the multilinear substitution expansion.

``WheeledProp`` is the abstract capability set shared by the free prop and
the tensor implementation in ``endo``; ``axiom_suite`` exercises the eight
defining laws against any implementation, and ``wd_action`` applies a wiring
diagram by translating it to a graph and calling the implementation's
``evaluate``.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from . import endo, graphs
from .errors import (
    ArityMismatch,
    BoundaryMismatch,
    InvalidGraph,
    LabelClash,
    NotABijection,
    UnknownLabel,
    WirecatError,
)
from .graphs import (
    DirectedGraph,
    corolla,
    free_edge,
    free_loop,
    loose_canonical_form,
    substitute_all,
)
from .translate import wd_to_graph
from .wiring import IN, OUT, WiringDiagram, all_fit, resolve_strands

#: A vertex decoration: (generator symbol, in-labels in slot order, out-labels
#: in slot order).  The label tuples fix how the vertex's flags fill the
#: generator's abstract slots.
Decoration = Tuple[str, Tuple, Tuple]


class Signature:
    """A finite set of generator symbols with (in, out) arities."""

    def __init__(self, arities: Mapping[str, Tuple[int, int]]):
        self.arities = dict(arities)

    def arity(self, sym: str) -> Tuple[int, int]:
        if sym not in self.arities:
            raise ArityMismatch("unknown generator %r" % sym)
        return self.arities[sym]

    def __repr__(self):
        return "Signature(%r)" % (self.arities,)


class FreeElement:
    """An exact-rational combination of decorated graphs with one boundary.

    ``terms`` maps a loose canonical key to ``(coefficient, graph, decor)``;
    zero coefficients are dropped.
    """

    __slots__ = ("in_labels", "out_labels", "terms")

    def __init__(self, in_labels: Iterable, out_labels: Iterable, terms=()):
        self.in_labels = frozenset(in_labels)
        self.out_labels = frozenset(out_labels)
        self.terms: Dict = {}
        items = terms.values() if isinstance(terms, dict) else terms
        for coeff, graph, decor in items:
            self._accumulate(Fraction(coeff), graph, tuple(decor))

    def _accumulate(self, coeff, graph, decor):
        if graph.boundary() != (self.in_labels, self.out_labels):
            raise BoundaryMismatch(
                "term boundary %r != element boundary %r"
                % (graph.boundary(), (self.in_labels, self.out_labels)))
        if len(decor) != graph.r:
            raise ArityMismatch("%d decorations for %d vertices" % (len(decor), graph.r))
        key = loose_canonical_form(graph, list(decor))
        if key in self.terms:
            c = self.terms[key][0] + coeff
            if c == 0:
                del self.terms[key]
            else:
                self.terms[key] = (c, self.terms[key][1], self.terms[key][2])
        elif coeff != 0:
            self.terms[key] = (coeff, graph, decor)

    # -- linear structure --

    def boundary(self):
        return (self.in_labels, self.out_labels)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if other.boundary() != self.boundary():
            raise BoundaryMismatch("adding elements with different boundaries")
        return FreeElement(self.in_labels, self.out_labels,
                           list(self.terms.values()) + list(other.terms.values()))

    def scale(self, c) -> "FreeElement":
        c = Fraction(c)
        return FreeElement(self.in_labels, self.out_labels,
                           [(c * k, g, dec) for k, g, dec in self.terms.values()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, FreeElement)
                and self.boundary() == other.boundary()
                and set(self.terms) == set(other.terms)
                and all(self.terms[k][0] == other.terms[k][0] for k in self.terms))

    def __hash__(self):
        return hash((self.in_labels, self.out_labels,
                     tuple(sorted(((repr(k), c) for k, (c, _, _) in self.terms.items())))))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return "FreeElement(in=%r, out=%r, %d terms)" % (
            sorted(self.in_labels, key=repr), sorted(self.out_labels, key=repr),
            len(self.terms))


def eta(sig: Signature, sym: str, in_seq: Sequence, out_seq: Sequence) -> FreeElement:
    """The generator ``sym`` placed on a corolla, slots filled in order."""
    n, m = sig.arity(sym)
    in_seq, out_seq = tuple(in_seq), tuple(out_seq)
    if len(in_seq) != n or len(set(in_seq)) != n:
        raise ArityMismatch("in-labels %r for arity %d" % (in_seq, n))
    if len(out_seq) != m or len(set(out_seq)) != m:
        raise ArityMismatch("out-labels %r for arity %d" % (out_seq, m))
    g = corolla(in_seq, out_seq)
    return FreeElement(in_seq, out_seq, [(1, g, ((sym, in_seq, out_seq),))])


def unit(label) -> FreeElement:
    """The identity strand on one label: a free edge in and out at ``label``."""
    return FreeElement([label], [label], [(1, free_edge(label, label), ())])


def unit_empty() -> FreeElement:
    return FreeElement((), (), [(1, free_loop(0), ())])


def loop_element() -> FreeElement:
    return FreeElement((), (), [(1, free_loop(1), ())])


# -- graph surgery -----------------------------------------------------------

def _disjoint_union(g: DirectedGraph, h: DirectedGraph) -> DirectedGraph:
    fresh = itertools.count()
    ids = {}
    for side, gr in (("G", g), ("H", h)):
        flags = (set().union(*gr.vertices) if gr.vertices else set()) | gr.exceptional
        for f in sorted(flags, key=repr):
            ids[(side, f)] = next(fresh)
    def mv(side, m):
        return {ids[(side, k)]: v for k, v in m.items()}
    def mvp(side, m):
        return {ids[(side, k)]: ids[(side, v)] for k, v in m.items()}
    return DirectedGraph(
        [[ids[("G", f)] for f in v] for v in g.vertices]
        + [[ids[("H", f)] for f in v] for v in h.vertices],
        [ids[("G", f)] for f in g.exceptional] + [ids[("H", f)] for f in h.exceptional],
        {**mvp("G", g.iota), **mvp("H", h.iota)},
        {**mvp("G", g.pi), **mvp("H", h.pi)},
        {**mv("G", g.delta), **mv("H", h.delta)},
        {**mv("G", g.lam), **mv("H", h.lam)},
        {**mv("G", g.beta), **mv("H", h.beta)},
        g.loop_count + h.loop_count,
    )


def _glue_boundary(g: DirectedGraph, i, j) -> DirectedGraph:
    """Glue the incoming boundary leg ``i`` to the outgoing leg ``j``."""
    legs = g.boundary_flags()
    f_in = f_out = None
    for f in legs:
        if g.delta[f] == 1 and g.beta[f] == i:
            f_in = f
        if g.delta[f] == -1 and g.beta[f] == j:
            f_out = f
    if f_in is None or f_out is None:
        raise UnknownLabel("no boundary pair (%r in, %r out)" % (i, j))

    # Strands run between boundary flags other than the glued free-edge flags,
    # which are passed through.  Surviving flags keep their ids.
    glue = {f_in: f_out, f_out: f_in}
    ends = [f for f in legs if f not in glue or f in g._vertex_of]
    strands, closed = resolve_strands(g.pi, glue, ends)
    iota, pi, beta = dict(g.iota), {}, {}
    for a, b in strands:
        if a == b:
            beta[a] = g.beta[a]
        elif a in g._vertex_of and b in g._vertex_of:
            iota[a], iota[b] = b, a
        elif a in g._vertex_of or b in g._vertex_of:
            flag, leg = (a, b) if a in g._vertex_of else (b, a)
            beta[flag] = g.beta[leg]
        else:
            pi[a], pi[b] = b, a
            beta[a], beta[b] = g.beta[a], g.beta[b]
    delta = {f: d for f, d in g.delta.items() if f in g._vertex_of or f in pi}
    return DirectedGraph(g.vertices, set(pi), iota, pi, delta, g.lam, beta,
                         g.loop_count + closed)


# -- biased operations -------------------------------------------------------

def horizontal(a: FreeElement, b: FreeElement) -> FreeElement:
    """Disjoint-union product; boundary label sets must be disjoint."""
    if (a.in_labels & b.in_labels) or (a.out_labels & b.out_labels):
        raise LabelClash("boundaries overlap: %r / %r"
                         % (a.boundary(), b.boundary()))
    out = []
    for ca, ga, da in a.terms.values():
        for cb, gb, db in b.terms.values():
            out.append((ca * cb, _disjoint_union(ga, gb), tuple(da) + tuple(db)))
    return FreeElement(a.in_labels | b.in_labels, a.out_labels | b.out_labels, out)


def contract(a: FreeElement, i, j) -> FreeElement:
    """Glue in-label ``i`` to out-label ``j`` in every term."""
    if i not in a.in_labels:
        raise UnknownLabel("%r not an in-label of %r" % (i, a))
    if j not in a.out_labels:
        raise UnknownLabel("%r not an out-label of %r" % (j, a))
    out = [(c, _glue_boundary(g, i, j), dec) for c, g, dec in a.terms.values()]
    return FreeElement(a.in_labels - {i}, a.out_labels - {j}, out)


def _bijections(ins, outs, f: Mapping, g: Mapping):
    """``f`` and ``g`` as dicts, checked to be bijections on ``ins``, ``outs``."""
    f, g = dict(f), dict(g)
    if set(f) != ins or len(set(f.values())) != len(f):
        raise NotABijection("in-relabel %r on %r" % (f, sorted(ins, key=repr)))
    if set(g) != outs or len(set(g.values())) != len(g):
        raise NotABijection("out-relabel %r on %r" % (g, sorted(outs, key=repr)))
    return f, g


def relabel(a: FreeElement, f: Mapping, g: Mapping) -> FreeElement:
    """Rename boundary labels by bijections ``f`` on inputs, ``g`` on outputs."""
    f, g = _bijections(a.in_labels, a.out_labels, f, g)
    out = []
    for c, gr, dec in a.terms.values():
        beta = {}
        for fl in gr.boundary_flags():
            if gr.delta[fl] == 1:
                beta[fl] = f[gr.beta[fl]]
            else:
                beta[fl] = g[gr.beta[fl]]
        out.append((c, DirectedGraph(gr.vertices, gr.exceptional, gr.iota,
                                     gr.pi, gr.delta, gr.lam, beta,
                                     gr.loop_count), dec))
    return FreeElement(set(f.values()), set(g.values()), out)


def dioperadic(a: FreeElement, i, b: FreeElement, l) -> FreeElement:
    """Join ``b``'s out-label ``l`` into ``a``'s in-label ``i``."""
    return contract(horizontal(a, b), i, l)


def flatten(outer: DirectedGraph, inner: Sequence[FreeElement]) -> FreeElement:
    """Multilinear substitution of elements into the vertices of a graph.

    ``inner[k]`` must have boundary equal to the neighbourhood of vertex k+1.
    """
    if len(inner) != outer.r:
        raise ArityMismatch("%d elements for %d vertices" % (len(inner), outer.r))
    for k, e in enumerate(inner):
        if e.boundary() != outer.neighbourhood(k + 1):
            raise BoundaryMismatch(
                "element %d boundary %r != neighbourhood %r"
                % (k + 1, e.boundary(), outer.neighbourhood(k + 1)))
    ins, outs = outer.boundary()
    choices = [list(e.terms.values()) for e in inner]
    out_terms = []
    for combo in itertools.product(*choices):
        coeff = Fraction(1)
        for c, _, _ in combo:
            coeff *= c
        glued = substitute_all(outer, {k + 1: g for k, (_, g, _) in enumerate(combo)})
        decor = tuple(itertools.chain.from_iterable(dec for _, _, dec in combo))
        out_terms.append((coeff, glued, decor))
    return FreeElement(ins, outs, out_terms)


# -- the abstract interface --------------------------------------------------

class WheeledProp:
    """Capability set shared by wheeled-prop implementations."""

    name = "abstract"

    def boundary(self, x):  # -> (in_labels, out_labels)
        raise NotImplementedError

    def horizontal(self, a, b):
        raise NotImplementedError

    def contract(self, a, i, j):
        raise NotImplementedError

    def unit(self, label):
        raise NotImplementedError

    def unit_empty(self):
        raise NotImplementedError

    def relabel(self, a, f, g):
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return a == b

    def evaluate(self, g: DirectedGraph, args: Sequence):
        """Evaluate ``g`` with ``args[k]`` placed on vertex k+1."""
        raise NotImplementedError

    def dioperadic(self, a, i, b, l):
        return self.contract(self.horizontal(a, b), i, l)


class FreeWheeledProp(WheeledProp):
    name = "free"

    def __init__(self, signature: Signature):
        self.signature = signature

    def boundary(self, x):
        return x.boundary()

    def horizontal(self, a, b):
        return horizontal(a, b)

    def contract(self, a, i, j):
        return contract(a, i, j)

    def unit(self, label):
        return unit(label)

    def unit_empty(self):
        return unit_empty()

    def relabel(self, a, f, g):
        return relabel(a, f, g)

    def evaluate(self, g, args):
        return flatten(g, args)


class EndoWheeledProp(WheeledProp):
    """End of the standard d-dimensional rational space."""

    name = "endo"

    def __init__(self, d: int, cap_power: int = endo.DEFAULT_CAP_POWER):
        self.d = d
        self.cap_power = cap_power

    def boundary(self, x: endo.Tensor):
        return (frozenset(l for p, l in x.axes if p == IN),
                frozenset(l for p, l in x.axes if p == OUT))

    def horizontal(self, a, b):
        return endo.tensor_product(a, b, cap_power=self.cap_power)

    def contract(self, a, i, j):
        return endo.trace_contract(a, i, j)

    def unit(self, label):
        return endo.identity_tensor(label, self.d)

    def unit_empty(self):
        return endo.scalar_tensor(self.d)

    def relabel(self, a, f, g):
        f, g = _bijections(*self.boundary(a), f, g)
        ren = {(IN, k): (IN, v) for k, v in f.items()}
        ren.update({(OUT, k): (OUT, v) for k, v in g.items()})
        return a.rename_axes(ren)

    def evaluate(self, g, args):
        return endo.evaluate_graph(g, args, self.d, self.cap_power)


# -- the axiom suite ---------------------------------------------------------

def _fresh_labels(n, taken, prefix="z"):
    out = []
    k = 0
    taken = set(taken)
    while len(out) < n:
        cand = "%s%d" % (prefix, k)
        k += 1
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
    return out


def _rename_away(w: WheeledProp, x, taken):
    """Relabel ``x``'s boundary onto fresh labels not in ``taken``."""
    ins, outs = w.boundary(x)
    fresh = _fresh_labels(len(ins) + len(outs), taken)
    f = dict(zip(sorted(ins, key=repr), fresh[:len(ins)]))
    g = dict(zip(sorted(outs, key=repr), fresh[len(ins):]))
    return w.relabel(x, f, g), f, g


def _random_bijection(rng, labels):
    labels = sorted(labels, key=repr)
    images = labels[:]
    rng.shuffle(images)
    return dict(zip(labels, images))


def axiom_suite(w: WheeledProp, sampler, trials: int = 50, rng=None) -> dict:
    """Check the eight wheeled-prop laws on random elements.

    ``sampler(rng)`` must return a random carrier element.  The report maps
    axiom names to {"ok": bool, "trials": n, "witness": description or None}.
    """
    rng = rng or random.Random(0)
    report = {}

    def run(name, check):
        ok, witness, n = True, None, 0
        for t in range(trials):
            n += 1
            try:
                res = check(rng)
            except WirecatError as exc:
                res = "%s: %s: %s" % (name, type(exc).__name__, exc)
            if res is not None:
                ok, witness = False, res
                break
        report[name] = {"ok": ok, "trials": n, "witness": witness}

    def sample_disjoint(rng, count):
        xs = []
        taken = set()
        for _ in range(count):
            x = sampler(rng)
            x, _, _ = _rename_away(w, x, taken)
            ins, outs = w.boundary(x)
            taken |= set(ins) | set(outs)
            xs.append(x)
        return xs

    def h1(rng):
        a, b, c = sample_disjoint(rng, 3)
        lhs = w.horizontal(w.horizontal(a, b), c)
        rhs = w.horizontal(a, w.horizontal(b, c))
        if not w.equal(lhs, rhs):
            return "H1: (a*b)*c != a*(b*c) for %r %r %r" % (a, b, c)

    def h2(rng):
        a, b = sample_disjoint(rng, 2)
        ia, oa = w.boundary(a)
        ib, ob = w.boundary(b)
        fa, ga = _random_bijection(rng, ia), _random_bijection(rng, oa)
        fb, gb = _random_bijection(rng, ib), _random_bijection(rng, ob)
        lhs = w.relabel(w.horizontal(a, b), {**fa, **fb}, {**ga, **gb})
        rhs = w.horizontal(w.relabel(a, fa, ga), w.relabel(b, fb, gb))
        if not w.equal(lhs, rhs):
            return "H2: relabelling does not distribute over *"

    def h3(rng):
        a, b = sample_disjoint(rng, 2)
        if not w.equal(w.horizontal(a, b), w.horizontal(b, a)):
            return "H3: a*b != b*a for %r %r" % (a, b)

    def h4(rng):
        a = sampler(rng)
        if not w.equal(w.horizontal(a, w.unit_empty()), a):
            return "H4: a*1 != a for %r" % (a,)
        if not w.equal(w.horizontal(w.unit_empty(), a), a):
            return "H4: 1*a != a for %r" % (a,)

    def pick_pair(rng, x):
        ins, outs = w.boundary(x)
        if not ins or not outs:
            return None
        i = rng.choice(sorted(ins, key=repr))
        j = rng.choice(sorted(outs, key=repr))
        return i, j

    def c1(rng):
        a = sampler(rng)
        pair = pick_pair(rng, a)
        if pair is None:
            return None
        i, j = pair
        ins, outs = w.boundary(a)
        f = _random_bijection(rng, ins)
        g = _random_bijection(rng, outs)
        lhs = w.contract(w.relabel(a, f, g), f[i], g[j])
        f2 = {k: v for k, v in f.items() if k != i}
        g2 = {k: v for k, v in g.items() if k != j}
        rhs = w.relabel(w.contract(a, i, j), f2, g2)
        if not w.equal(lhs, rhs):
            return "C1: contraction not bi-equivariant at (%r,%r)" % (i, j)

    def c2(rng):
        a = sampler(rng)
        ins, outs = w.boundary(a)
        if len(ins) < 2 or len(outs) < 2:
            return None
        i, k = rng.sample(sorted(ins, key=repr), 2)
        j, l = rng.sample(sorted(outs, key=repr), 2)
        lhs = w.contract(w.contract(a, i, j), k, l)
        rhs = w.contract(w.contract(a, k, l), i, j)
        if not w.equal(lhs, rhs):
            return "C2: contractions at (%r,%r),(%r,%r) do not commute" % (i, j, k, l)

    def hc1(rng):
        a, b = sample_disjoint(rng, 2)
        pair = pick_pair(rng, a)
        if pair is None:
            return None
        i, j = pair
        lhs = w.contract(w.horizontal(a, b), i, j)
        rhs = w.horizontal(w.contract(a, i, j), b)
        if not w.equal(lhs, rhs):
            return "HC1: contraction of the a-factor does not commute with *"

    def hc2(rng):
        a = sampler(rng)
        ins, outs = w.boundary(a)
        taken = set(ins) | set(outs)
        t = _fresh_labels(1, taken)[0]
        if ins:
            i = rng.choice(sorted(ins, key=repr))
            u = w.unit(t)
            # Feed the unit's output into a's input i, then restore the name.
            got = w.contract(w.horizontal(u, a), i, t)
            f = {k: k for k in ins - {i}}
            f[t] = i
            got = w.relabel(got, f, {k: k for k in outs})
            if not w.equal(got, a):
                return "HC2: unit not neutral for dioperadic glue at input %r" % (i,)
        if outs:
            j = rng.choice(sorted(outs, key=repr))
            u = w.unit(t)
            got = w.contract(w.horizontal(a, u), t, j)
            g = {k: k for k in outs - {j}}
            g[t] = j
            got = w.relabel(got, {k: k for k in ins}, g)
            if not w.equal(got, a):
                return "HC2: unit not neutral for dioperadic glue at output %r" % (j,)

    for name, check in (("H1", h1), ("H2", h2), ("H3", h3), ("H4", h4),
                        ("C1", c1), ("C2", c2), ("HC1", hc1), ("HC2", hc2)):
        run(name, check)
    report["ok"] = all(report[k]["ok"] for k in
                       ("H1", "H2", "H3", "H4", "C1", "C2", "HC1", "HC2"))
    return report


# -- wiring-diagram action ---------------------------------------------------

def wd_action(w: WheeledProp, d: WiringDiagram, args: Sequence) -> object:
    """Apply a wiring diagram to carrier elements: translate it to a graph and
    evaluate that graph in ``w``.

    ``args[k]`` must have boundary ``(inputs[k].in_labels,
    inputs[k].out_labels)``; the result has boundary ``(output.out_labels,
    output.in_labels)``.
    """
    return w.evaluate(wd_to_graph(d), args)


# -- serialization -----------------------------------------------------------

def signature_to_obj(sig: Signature):
    return {sym: list(nm) for sym, nm in sorted(sig.arities.items())}


def signature_from_obj(obj) -> Signature:
    return Signature({sym: (int(n), int(m)) for sym, (n, m) in obj.items()})


def to_obj(a: FreeElement):
    terms = []
    for key in sorted(a.terms, key=repr):
        coeff, graph, decor = a.terms[key]
        terms.append({
            "coeff": str(coeff),
            "graph": graphs.to_obj(graph),
            "decor": [[sym, list(ins), list(outs)] for sym, ins, outs in decor],
        })
    return {"in": sorted(a.in_labels, key=repr),
            "out": sorted(a.out_labels, key=repr),
            "terms": terms}


_ELEMENT = {"in": [None], "out": [None], "terms": [{"decor": [[None, [None], [None]]]}]}


def from_obj(obj) -> FreeElement:
    if not all_fit([obj], _ELEMENT):
        raise InvalidGraph(["NotAnElement: %.80r is no {in, out, terms}" % (obj,)])
    terms = []
    for t in obj.get("terms", []):
        decor = tuple((sym, tuple(ins), tuple(outs))
                      for sym, ins, outs in t.get("decor", []))
        terms.append((Fraction(t.get("coeff", 1)),
                      graphs.from_obj(t.get("graph")), decor))
    return FreeElement(obj.get("in", ()), obj.get("out", ()), terms)


def to_json(a: FreeElement) -> str:
    return json.dumps(to_obj(a), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> FreeElement:
    return from_obj(json.loads(text))
