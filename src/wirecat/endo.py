"""The endomorphism wheeled prop of the standard d-dimensional space.

Elements are dense tensors of exact rationals, held as Python ``int``
numerators over one common denominator.  Every axis is keyed by a
(polarity, label) pair: ``in``-axes are dual copies, ``out``-axes direct
copies.  Horizontal composition is the outer product, contraction is the
trace pairing an in-axis against an out-axis, and a free loop contributes a
scalar factor d (the trace of the identity).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import (
    ArityMismatch,
    DimMismatch,
    InvalidTensor,
    LabelClash,
    SizeCapExceeded,
    UnknownAxis,
)
from .graphs import DirectedGraph
from .wiring import _LABEL, IN, OUT, all_fit, misfit

DEFAULT_CAP_POWER = 12


_fractions = np.frompyfunc(Fraction, 2, 1)


def check_dim(dim):
    """Raise ``DimMismatch`` unless ``dim`` is a positive integer."""
    if not isinstance(dim, int) or dim < 1:
        raise DimMismatch("dimension %r is not a positive integer" % (dim,))


def _lowest(num, den):
    """``(num, den)`` for the entries ``num / den``, in lowest terms, as an
    array (numpy gives an ``int`` for an outer product or trace of scalars)."""
    num = np.asarray(num, dtype=object)
    common = math.gcd(den, *num.flat)
    if common == 1:
        return num, den
    return np.asarray(num // common, dtype=object), den // common


class Tensor:
    """A dense exact-rational tensor with named, canonically ordered axes.

    Entry k is ``num[k] / den``: ``num`` is a read-only object array of Python
    ``int``s and ``den`` one positive ``int``, in lowest terms (their gcd is 1,
    and a zero tensor has ``den`` 1).  ``axes`` names the axes of ``num`` in
    order, sorted by ``repr``, so equal tensors have equal representations.

    ``Tensor(...)`` and ``_exact`` check the dim, distinct axes and entry
    count.  ``_trusted`` trusts its caller and only sorts: ``tensor_product``
    and ``trace_contract`` have checked dims, clashes, the cap and the axes
    they drop, and bring their results to lowest terms; ``rename_axes`` keeps
    its entries and checks only that no two axes merge.
    """

    __slots__ = ("dim", "axes", "num", "den")

    def __init__(self, dim: int, axes, data):
        entries = [x if type(x) in (int, Fraction) else rational(x)
                   for x in np.asarray(data, dtype=object).flat]
        den = math.lcm(*[x.denominator for x in entries])
        self._set(dim, axes, [x.numerator * (den // x.denominator)
                              for x in entries], den)

    @classmethod
    def _exact(cls, dim: int, axes, num, den: int) -> "Tensor":
        """``Tensor(...)`` from ``int`` numerators over a positive ``den``."""
        t = cls.__new__(cls)
        t._set(dim, axes, num, den)
        return t

    @classmethod
    def _trusted(cls, dim: int, axes, num, den: int) -> "Tensor":
        """A result whose caller vouches for every check of ``_set``."""
        t = cls.__new__(cls)
        t._place(dim, axes, num, den)
        return t

    def _set(self, dim, axes, num, den):
        check_dim(dim)
        axes = [tuple(a) for a in axes]
        if len(set(axes)) != len(axes):
            raise LabelClash("duplicate axis keys in %r" % (axes,))
        arr = np.asarray(num, dtype=object)
        if arr.size != dim ** len(axes):
            raise ArityMismatch("%d entries for %d axes of dim %d" % (arr.size, len(axes), dim))
        arr, den = _lowest(arr, den)
        self._place(dim, axes, arr.reshape((dim,) * len(axes)), den)

    def _place(self, dim, axes, num, den):
        keys = [repr(a) for a in axes]
        order = sorted(range(len(axes)), key=keys.__getitem__)
        if order != list(range(len(axes))):
            axes, num = [axes[k] for k in order], num.transpose(order)
        self.dim, self.axes, self.num, self.den = dim, tuple(axes), num, den
        num.flags.writeable = False

    @property
    def data(self):
        """The entries, as a read-only array of ``Fraction``s."""
        out = np.asarray(_fractions(self.num, self.den), dtype=object)
        out.flags.writeable = False
        return out

    # -- helpers --

    def axis_pos(self, key):
        try:
            return self.axes.index(tuple(key))
        except ValueError:
            raise UnknownAxis("no axis %r among %r" % (key, self.axes))

    def scalar_value(self) -> Fraction:
        if self.axes:
            raise UnknownAxis("tensor with axes %r is not a scalar" % (self.axes,))
        return self.data.reshape(-1)[0]

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.dim == other.dim
                and self.axes == other.axes and self.den == other.den
                and bool(np.all(self.num == other.num)))

    def __hash__(self):
        return hash((self.dim, self.axes, self.den, tuple(self.num.flat)))

    def __repr__(self):
        return "Tensor(dim=%d, axes=%r)" % (self.dim, list(self.axes))

    def scale(self, c) -> "Tensor":
        c = rational(c)
        return Tensor._exact(self.dim, self.axes, self.num * c.numerator,
                             self.den * c.denominator)

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim or self.axes != other.axes:
            raise DimMismatch("adding tensors with different axes")
        den = math.lcm(self.den, other.den)
        return Tensor._exact(self.dim, self.axes, self.num * (den // self.den)
                             + other.num * (den // other.den), den)

    def rename_axes(self, mapping) -> "Tensor":
        """Rename axis keys by a partial map (pol, label) -> (pol, label)."""
        mapping = {tuple(k): tuple(v) for k, v in dict(mapping).items()}
        new_axes = [mapping.get(a, a) for a in self.axes]
        if len(set(new_axes)) != len(new_axes):
            raise LabelClash("duplicate axis keys in %r" % (new_axes,))
        return Tensor._trusted(self.dim, new_axes, self.num, self.den)


def scalar_tensor(d: int, value=1) -> Tensor:
    value = rational(value)
    return Tensor._exact(d, [], [value.numerator], value.denominator)


def identity_tensor(label: str, d: int) -> Tensor:
    return Tensor._exact(d, [(IN, label), (OUT, label)], np.eye(d, dtype=object), 1)


def tensor_product(s: Tensor, t: Tensor, cap_power: int = DEFAULT_CAP_POWER) -> Tensor:
    if s.dim != t.dim:
        raise DimMismatch("dims %d and %d" % (s.dim, t.dim))
    clash = set(s.axes) & set(t.axes)
    if clash:
        raise LabelClash("shared axes %r" % sorted(clash, key=repr))
    if len(s.axes) + len(t.axes) > cap_power:
        raise SizeCapExceeded("%d axes exceeds cap of %d"
                              % (len(s.axes) + len(t.axes), cap_power))
    num, den = _lowest(np.multiply.outer(s.num, t.num), s.den * t.den)
    return Tensor._trusted(s.dim, s.axes + t.axes, num, den)


def trace_contract(t: Tensor, i: str, j: str) -> Tensor:
    """Contract the in-axis labelled ``i`` against the out-axis labelled ``j``."""
    a1 = t.axis_pos((IN, i))
    a2 = t.axis_pos((OUT, j))
    num, den = _lowest(t.num.diagonal(axis1=a1, axis2=a2).sum(axis=-1), t.den)
    axes = [a for k, a in enumerate(t.axes) if k not in (a1, a2)]
    return Tensor._trusted(t.dim, axes, num, den)


# -- graph evaluation --------------------------------------------------------

def evaluate_graph(g: DirectedGraph, vertex_tensors, d: int,
                   cap_power: int = DEFAULT_CAP_POWER) -> Tensor:
    """Evaluate a graph whose vertices carry tensors.

    ``vertex_tensors[k]`` must have axes ('in', l) for l in in(v_{k+1}) and
    ('out', l) for l in out(v_{k+1}).  Internal edges are contracted, free
    edges contribute identity tensors, free loops a factor d each, and the
    result's axes carry the graph's boundary labels.

    In graph order, each vertex traces out its edges to itself and is then
    contracted (``np.tensordot``) into the running product over its edges to
    earlier vertices; free edges come last.  The contraction runs on the
    numerators; the vertex denominators are multiplied once, at the end.
    ``cap_power`` caps each intermediate.
    """
    if len(vertex_tensors) != g.r:
        raise ArityMismatch("%d tensors for %d vertices" % (len(vertex_tensors), g.r))
    pol = {1: IN, -1: OUT}
    pieces, den = [], 1  # pieces: (numerators, the flags naming their axes)
    for k, t in enumerate(vertex_tensors):
        if t.dim != d:
            raise DimMismatch("vertex %d has dim %d, expected %d" % (k + 1, t.dim, d))
        flag_of = {(pol[g.delta[f]], g.lam[f]): f for f in g.vertices[k]}
        if set(t.axes) != set(flag_of):
            raise ArityMismatch("vertex %d axes %r != %r" % (k + 1, t.axes, set(flag_of)))
        pieces.append((t.num, [flag_of[a] for a in t.axes]))
        den *= t.den
    pieces += [(np.eye(d, dtype=object), [f, m])
               for f, m in g.pi.items() if g.delta[f] == 1]

    # The free loops' factor seeds the running product.
    num, flags = np.full((), d ** g.loop_count, dtype=object), []
    for v, vflags in pieces:
        for f in [f for f in vflags if g.delta[f] == 1]:
            m = g.iota.get(f, f)
            if m != f and m in vflags:
                v = np.trace(v, axis1=vflags.index(f), axis2=vflags.index(m))
                vflags = [x for x in vflags if x not in (f, m)]
        shared = [f for f in vflags if g.iota.get(f, f) in flags]
        mates = [g.iota[f] for f in shared]
        axes = len(flags) + len(vflags) - 2 * len(shared)
        if axes > cap_power:
            raise SizeCapExceeded("%d axes exceeds cap of %d" % (axes, cap_power))
        num = np.tensordot(num, v, axes=([flags.index(m) for m in mates],
                                         [vflags.index(f) for f in shared]))
        flags = ([f for f in flags if f not in mates]
                 + [f for f in vflags if f not in shared])
    return Tensor._exact(d, [(pol[g.delta[f]], g.beta[f]) for f in flags], num, den)


def evaluate_decorated(g: DirectedGraph, decor, bind, d: int) -> Tensor:
    """Evaluate a generator-decorated graph.

    ``decor[k] = (symbol, in_slots, out_slots)`` gives each vertex's generator
    and the labels filling its slots in order; ``bind[symbol]`` is a raw
    nested array whose axes run over the in-slots then the out-slots.
    """
    tensors = [Tensor(d, [(IN, l) for l in ins] + [(OUT, l) for l in outs], bind[sym])
               for sym, ins, outs in decor]
    return evaluate_graph(g, tensors, d)


# -- serialization -----------------------------------------------------------

def to_obj(t: Tensor):
    return {
        "dim": t.dim,
        "axes": [list(a) for a in t.axes],
        "data": [str(x) for x in t.data.reshape(-1)],
    }


_TENSOR = {"dim": (int,), "axes": [[{IN, OUT}, _LABEL]], "data": [None]}


def from_obj(obj) -> Tensor:
    if not (all_fit([obj], _TENSOR) and {"dim", "axes", "data"} <= set(obj)):
        raise InvalidTensor("%.80r does not fit {dim, axes: [[in|out, label]], data}"
                            % (misfit(obj, _TENSOR),))
    return Tensor(obj["dim"], obj["axes"], obj["data"])


def check_exact(x):
    """Refuse a float, as 0.1 is not 1/10, or a boolean: ``InvalidTensor``."""
    if isinstance(x, (bool, float)):
        raise InvalidTensor("%r is inexact: give an integer or a string like '1/10'" % (x,))


def rational(x) -> Fraction:
    """An integer, ``Fraction`` or rational string as a ``Fraction``."""
    check_exact(x)
    try:
        q = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidTensor("%r is not a rational: %s" % (x, exc))
    # A numpy integer keeps its fixed width inside a Fraction, and would wrap.
    return Fraction(int(q.numerator), int(q.denominator))


def to_json(t: Tensor) -> str:
    return json.dumps(to_obj(t), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Tensor:
    return from_obj(json.loads(text))
