"""The free wheeled prop on a signature, and the wheeled-prop axiom suite.

Elements of the free wheeled prop are exact-rational linear combinations of
generator-decorated graphs, with the vertex order quotiented away: term keys
are loose canonical forms in which each vertex's decoration travels with it.
Terms are keyed only to merge or compare them (see ``FreeElement``).
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
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from . import endo, graphs
from .errors import (
    ArityMismatch,
    BoundaryMismatch,
    BoundExceeded,
    InvalidGraph,
    InvalidTensor,
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
from .wiring import (_LABEL, IN, OUT, WiringDiagram, all_fit, label_key, misfit, repeats,
                     resolve_strands)

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
    zero coefficients are dropped, and terms with one key merge into the first
    term that reached it.  ``terms`` is built on its first read (``==`` and
    ``hash`` read it); until then the element holds its checked, nonzero terms
    as given.  Operations read ``_items()``, always exactly ``terms.values()``:
    one nonzero term is its own collapse and needs no key; more are collapsed.
    Coefficients are exact: a float or a boolean raises ``InvalidTensor``.

    ``FreeElement(...)`` checks each term's coefficient, boundary and number
    of decorations.  The operations build their results through
    ``_trusted``, as their terms hold all three by construction.
    """

    __slots__ = ("in_labels", "out_labels", "_raw", "_terms")

    def __init__(self, in_labels: Iterable, out_labels: Iterable, terms=()):
        self.in_labels = frozenset(in_labels)
        self.out_labels = frozenset(out_labels)
        self._raw, self._terms = [], None
        for coeff, graph, decor in terms:
            endo.check_exact(coeff)
            coeff, decor = Fraction(coeff), tuple(decor)
            if graph.boundary() != (self.in_labels, self.out_labels):
                raise BoundaryMismatch(
                    "term boundary %r != element boundary %r"
                    % (graph.boundary(), (self.in_labels, self.out_labels)))
            if len(decor) != graph.r:
                raise ArityMismatch("%d decorations for %d vertices" % (len(decor), graph.r))
            if coeff != 0:
                self._raw.append((coeff, graph, decor))

    @classmethod
    def _trusted(cls, in_labels, out_labels, terms) -> "FreeElement":
        """``FreeElement(in_labels, out_labels, terms)`` without the per-term
        checks, for terms with ``Fraction`` coefficients, graphs of this
        boundary and one decoration per vertex, in a tuple."""
        a = cls.__new__(cls)
        a.in_labels, a.out_labels = frozenset(in_labels), frozenset(out_labels)
        a._raw, a._terms = [t for t in terms if t[0]], None
        return a

    @property
    def terms(self) -> Dict:
        if self._terms is None:
            self._terms = {}
            for coeff, graph, decor in self._raw:
                key = loose_canonical_form(graph, list(decor))
                c, g, d = self._terms.get(key, (0, graph, decor))
                if c + coeff == 0:  # coeff != 0, so key was there
                    del self._terms[key]
                else:
                    self._terms[key] = (c + coeff, g, d)
        return self._terms

    def _items(self):
        return self._raw if len(self._raw) <= 1 else self.terms.values()

    # -- linear structure --

    def boundary(self):
        return (self.in_labels, self.out_labels)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if other.boundary() != self.boundary():
            raise BoundaryMismatch("adding elements with different boundaries")
        return FreeElement._trusted(self.in_labels, self.out_labels,
                                    [*self._items(), *other._items()])

    def scale(self, c) -> "FreeElement":
        endo.check_exact(c)
        c = Fraction(c)
        return FreeElement._trusted(self.in_labels, self.out_labels,
                                    [(c * k, g, dec) for k, g, dec in self._items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, FreeElement)
                and self.boundary() == other.boundary()
                and {k: t[0] for k, t in self.terms.items()}
                == {k: t[0] for k, t in other.terms.items()})

    def __hash__(self):
        return hash((self.in_labels, self.out_labels,
                     frozenset((k, c) for k, (c, _, _) in self.terms.items())))

    def is_zero(self) -> bool:
        return not self._items()

    def __repr__(self):
        return "FreeElement(in=%r, out=%r, %d terms)" % (
            sorted(self.in_labels, key=label_key), sorted(self.out_labels, key=label_key),
            len(self._items()))


def eta(sig: Signature, sym: str, in_seq: Sequence, out_seq: Sequence) -> FreeElement:
    """The generator ``sym`` placed on a corolla, slots filled in order."""
    n, m = sig.arity(sym)
    in_seq, out_seq = tuple(in_seq), tuple(out_seq)
    if len(in_seq) != n or len(set(in_seq)) != n:
        raise ArityMismatch("in-labels %r for arity %d" % (in_seq, n))
    if len(out_seq) != m or len(set(out_seq)) != m:
        raise ArityMismatch("out-labels %r for arity %d" % (out_seq, m))
    g = corolla(in_seq, out_seq)
    return FreeElement._trusted(in_seq, out_seq, [(Fraction(1), g, ((sym, in_seq, out_seq),))])


def unit(label) -> FreeElement:
    """The identity strand on one label: a free edge in and out at ``label``."""
    return FreeElement._trusted([label], [label], [(Fraction(1), free_edge(label, label), ())])


def unit_empty() -> FreeElement:
    return FreeElement._trusted((), (), [(Fraction(1), free_loop(0), ())])


def loop_element() -> FreeElement:
    return FreeElement._trusted((), (), [(Fraction(1), free_loop(1), ())])


# -- graph surgery -----------------------------------------------------------

def _disjoint_union(g: DirectedGraph, h: DirectedGraph) -> DirectedGraph:
    fresh = itertools.count()
    ids = {}
    for side, gr in (("G", g), ("H", h)):
        for f in sorted(gr.delta, key=repr):
            ids[(side, f)] = next(fresh)
    def mv(side, m):
        return {ids[(side, k)]: v for k, v in m.items()}
    def mvp(side, m):
        return {ids[(side, k)]: ids[(side, v)] for k, v in m.items()}
    return DirectedGraph._trusted(
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
    """Glue the incoming boundary leg ``i`` to the outgoing leg ``j``, both of
    which ``contract`` has checked to exist."""
    leg_of = {(g.delta[f], b): f for f, b in g.beta.items()}
    f_in, f_out = leg_of[(1, i)], leg_of[(-1, j)]

    # Strands run between boundary flags other than the glued free-edge flags,
    # which are passed through.  Surviving flags keep their ids.
    glue = {f_in: f_out, f_out: f_in}
    ends = [f for f in g.beta if f not in glue or f in g._vertex_of]
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
    return DirectedGraph._trusted(g.vertices, set(pi), iota, pi, delta, g.lam, beta,
                                  g.loop_count + closed)


# -- biased operations -------------------------------------------------------

def horizontal(a: FreeElement, b: FreeElement) -> FreeElement:
    """Disjoint-union product; boundary label sets must be disjoint."""
    if (a.in_labels & b.in_labels) or (a.out_labels & b.out_labels):
        raise LabelClash("boundaries overlap: %r / %r"
                         % (a.boundary(), b.boundary()))
    out = []
    for ca, ga, da in a._items():
        for cb, gb, db in b._items():
            out.append((ca * cb, _disjoint_union(ga, gb), da + db))
    return FreeElement._trusted(a.in_labels | b.in_labels, a.out_labels | b.out_labels, out)


def contract(a: FreeElement, i, j) -> FreeElement:
    """Glue in-label ``i`` to out-label ``j`` in every term."""
    if i not in a.in_labels:
        raise UnknownLabel("%r not an in-label of %r" % (i, a))
    if j not in a.out_labels:
        raise UnknownLabel("%r not an out-label of %r" % (j, a))
    out = [(c, _glue_boundary(g, i, j), dec) for c, g, dec in a._items()]
    return FreeElement._trusted(a.in_labels - {i}, a.out_labels - {j}, out)


def _bijections(ins, outs, f: Mapping, g: Mapping):
    """``f`` and ``g`` as dicts, checked to be bijections on ``ins``, ``outs``."""
    f, g = dict(f), dict(g)
    for side, m, labels in (("in", f, ins), ("out", g, outs)):
        if set(m) != labels or len(set(m.values())) != len(m):
            raise NotABijection("%s-relabel %r on %r" % (side, m, sorted(labels, key=label_key)))
    return f, g


def relabel(a: FreeElement, f: Mapping, g: Mapping) -> FreeElement:
    """Rename boundary labels by bijections ``f`` on inputs, ``g`` on outputs."""
    f, g = _bijections(a.in_labels, a.out_labels, f, g)
    out = []
    for c, gr, dec in a._items():
        beta = {fl: (f if gr.delta[fl] == 1 else g)[b] for fl, b in gr.beta.items()}
        out.append((c, DirectedGraph._trusted(gr.vertices, gr.exceptional, gr.iota,
                                              gr.pi, gr.delta, gr.lam, beta,
                                              gr.loop_count), dec))
    return FreeElement._trusted(f.values(), g.values(), out)


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
    choices = [list(e._items()) for e in inner]
    out_terms = []
    for combo in itertools.product(*choices):
        coeff = math.prod((c for c, _, _ in combo), start=Fraction(1))
        glued = substitute_all(outer, {k + 1: g for k, (_, g, _) in enumerate(combo)})
        decor = tuple(itertools.chain.from_iterable(dec for _, _, dec in combo))
        out_terms.append((coeff, glued, decor))
    return FreeElement._trusted(ins, outs, out_terms)


# -- the abstract interface --------------------------------------------------

class WheeledProp:
    """Capability set shared by wheeled-prop implementations: ``boundary(x)``
    as ``(in_labels, out_labels)``, ``horizontal(a, b)``, ``contract(a, i, j)``,
    ``relabel(a, f, g)``, ``unit(label)``, ``unit_empty()`` and
    ``evaluate(g, args)``, which places ``args[k]`` on vertex k+1 of ``g``."""

    def dioperadic(self, a, i, b, l):
        return self.contract(self.horizontal(a, b), i, l)


class FreeWheeledProp(WheeledProp):
    """The free wheeled prop on ``signature``: its operations are this
    module's functions."""

    boundary = staticmethod(FreeElement.boundary)
    horizontal = staticmethod(horizontal)
    contract = staticmethod(contract)
    relabel = staticmethod(relabel)
    unit = staticmethod(unit)
    unit_empty = staticmethod(unit_empty)
    evaluate = staticmethod(flatten)

    def __init__(self, signature: Signature):
        self.signature = signature


class EndoWheeledProp(WheeledProp):
    """End of the standard d-dimensional rational space."""

    def __init__(self, d: int, cap_power: int = endo.DEFAULT_CAP_POWER):
        endo.check_dim(d)
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
    f = dict(zip(sorted(ins, key=label_key), fresh[:len(ins)]))
    g = dict(zip(sorted(outs, key=label_key), fresh[len(ins):]))
    return w.relabel(x, f, g), f, g


def _random_bijection(rng, labels):
    labels = sorted(labels, key=label_key)
    images = labels[:]
    rng.shuffle(images)
    return dict(zip(labels, images))


def axiom_suite(w: WheeledProp, sampler, trials: int = 50, rng=None) -> dict:
    """Check the eight wheeled-prop laws on random elements.

    ``sampler(rng)`` must return a random carrier element.  The report maps
    axiom names to {"ok": bool, "trials": n, "witness": description or None}.
    """
    if trials < 1:
        raise BoundExceeded("trials=%d: a suite of no trials checks nothing" % trials)
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
        if lhs != rhs:
            return "H1: (a*b)*c != a*(b*c) for %r %r %r" % (a, b, c)

    def h2(rng):
        a, b = sample_disjoint(rng, 2)
        ia, oa = w.boundary(a)
        ib, ob = w.boundary(b)
        fa, ga = _random_bijection(rng, ia), _random_bijection(rng, oa)
        fb, gb = _random_bijection(rng, ib), _random_bijection(rng, ob)
        lhs = w.relabel(w.horizontal(a, b), {**fa, **fb}, {**ga, **gb})
        rhs = w.horizontal(w.relabel(a, fa, ga), w.relabel(b, fb, gb))
        if lhs != rhs:
            return "H2: relabelling does not distribute over *"

    def h3(rng):
        a, b = sample_disjoint(rng, 2)
        if w.horizontal(a, b) != w.horizontal(b, a):
            return "H3: a*b != b*a for %r %r" % (a, b)

    def h4(rng):
        a = sampler(rng)
        if w.horizontal(a, w.unit_empty()) != a:
            return "H4: a*1 != a for %r" % (a,)
        if w.horizontal(w.unit_empty(), a) != a:
            return "H4: 1*a != a for %r" % (a,)

    def pick_pair(rng, x):
        ins, outs = w.boundary(x)
        if not ins or not outs:
            return None
        return rng.choice(sorted(ins, key=label_key)), rng.choice(sorted(outs, key=label_key))

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
        if lhs != rhs:
            return "C1: contraction not bi-equivariant at (%r,%r)" % (i, j)

    def c2(rng):
        a = sampler(rng)
        ins, outs = w.boundary(a)
        if len(ins) < 2 or len(outs) < 2:
            return None
        i, k = rng.sample(sorted(ins, key=label_key), 2)
        j, l = rng.sample(sorted(outs, key=label_key), 2)
        lhs = w.contract(w.contract(a, i, j), k, l)
        rhs = w.contract(w.contract(a, k, l), i, j)
        if lhs != rhs:
            return "C2: contractions at (%r,%r),(%r,%r) do not commute" % (i, j, k, l)

    def hc1(rng):
        a, b = sample_disjoint(rng, 2)
        pair = pick_pair(rng, a)
        if pair is None:
            return None
        i, j = pair
        lhs = w.contract(w.horizontal(a, b), i, j)
        rhs = w.horizontal(w.contract(a, i, j), b)
        if lhs != rhs:
            return "HC1: contraction of the a-factor does not commute with *"

    def hc2(rng):
        a = sampler(rng)
        ins, outs = w.boundary(a)
        taken = set(ins) | set(outs)
        t = _fresh_labels(1, taken)[0]
        if ins:
            i = rng.choice(sorted(ins, key=label_key))
            u = w.unit(t)
            # Feed the unit's output into a's input i, then restore the name.
            got = w.contract(w.horizontal(u, a), i, t)
            f = {k: k for k in ins - {i}}
            f[t] = i
            got = w.relabel(got, f, {k: k for k in outs})
            if got != a:
                return "HC2: unit not neutral for dioperadic glue at input %r" % (i,)
        if outs:
            j = rng.choice(sorted(outs, key=label_key))
            u = w.unit(t)
            got = w.contract(w.horizontal(a, u), t, j)
            g = {k: k for k in outs - {j}}
            g[t] = j
            got = w.relabel(got, {k: k for k in ins}, g)
            if got != a:
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

def to_obj(a: FreeElement):
    """The element as JSON; terms in the order of their own serialised form,
    so the printed order does not depend on the form of the term keys."""
    terms = [{"coeff": str(coeff),
              "graph": graphs.to_obj(graph),
              "decor": [[sym, list(ins), list(outs)] for sym, ins, outs in decor]}
             for coeff, graph, decor in a._items()]
    terms.sort(key=lambda t: json.dumps(t, sort_keys=True))
    return {"in": sorted(a.in_labels, key=label_key),
            "out": sorted(a.out_labels, key=label_key), "terms": terms}


_DECOR = [[(str,), [_LABEL], [_LABEL]]]
_ELEMENT = {"in": [_LABEL], "out": [_LABEL], "terms": [
    {"coeff": None, "graph": {}, "decor": _DECOR}]}


def decorated_from_obj(obj) -> Tuple[DirectedGraph, Tuple[Decoration, ...]]:
    """The ``graph`` of ``obj`` and its ``decor`` rows, one per vertex in order,
    each row's slots exactly its vertex's in-legs and out-legs."""
    g = graphs.from_obj(obj.get("graph"))
    decor = tuple((sym, tuple(ins), tuple(outs)) for sym, ins, outs in obj.get("decor", []))
    legs = [(len(i), i, len(o), o) for i, o in map(g.neighbourhood, range(1, g.r + 1))]
    if [(len(i), set(i), len(o), set(o)) for _, i, o in decor] != legs:
        raise ArityMismatch("decor rows %.80r do not fill their vertices' legs" % (decor,))
    return g, decor


def from_obj(obj) -> FreeElement:
    if not all_fit([obj], _ELEMENT):
        raise InvalidGraph(["NotAnElement: %.80r does not fit {in, out, terms: [{coeff, graph, "
                            "decor: [[symbol, in-labels, out-labels]]}]}"
                            % (misfit(obj, _ELEMENT),)])
    bad = repeats([(key + "-labels", obj.get(key, [])) for key in ("in", "out")])
    if bad:
        raise InvalidGraph(bad)
    terms = []
    for t in obj.get("terms", []):
        try:
            coeff = endo.rational(t.get("coeff", 1))
        except InvalidTensor as exc:
            raise InvalidGraph(["NotAnElement: coeff %s" % exc]) from None
        terms.append((coeff, *decorated_from_obj(t)))
    return FreeElement(obj.get("in", ()), obj.get("out", ()), terms)


def to_json(a: FreeElement) -> str:
    return json.dumps(to_obj(a), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> FreeElement:
    return from_obj(json.loads(text))
