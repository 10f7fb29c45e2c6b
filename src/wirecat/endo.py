"""The endomorphism wheeled prop of the standard d-dimensional space.

Elements are dense tensors of exact rationals.  Every axis is keyed by a
(polarity, label) pair: ``in``-axes are dual copies, ``out``-axes direct
copies.  Horizontal composition is the outer product, contraction is the
trace pairing an in-axis against an out-axis, and a free loop contributes a
scalar factor d (the trace of the identity).
"""
from __future__ import annotations

import json
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
from .wiring import IN, OUT, all_fit

DEFAULT_CAP_POWER = 12


_to_fractions = np.frompyfunc(Fraction, 1, 1)


class Tensor:
    """A dense exact-rational tensor with named, canonically ordered axes.

    ``axes`` names the axes of ``data`` in order; on construction the axes
    are sorted and the data transposed to match, so equal tensors have equal
    representations.
    """

    __slots__ = ("dim", "axes", "data")

    def __init__(self, dim: int, axes, data):
        self._set(dim, axes, _to_fractions(np.asarray(data, dtype=object)))

    @classmethod
    def _exact(cls, dim: int, axes, data) -> "Tensor":
        """``Tensor(...)`` without coercion, for data already all ``Fraction``s."""
        t = cls.__new__(cls)
        t._set(dim, axes, data)
        return t

    def _set(self, dim, axes, data):
        if not isinstance(dim, int) or dim < 1:
            raise DimMismatch("dimension %r is not a positive integer" % (dim,))
        axes = [tuple(a) for a in axes]
        if len(set(axes)) != len(axes):
            raise LabelClash("duplicate axis keys in %r" % (axes,))
        arr = np.asarray(data, dtype=object)
        if arr.size != dim ** len(axes):
            raise ArityMismatch("%d entries for %d axes of dim %d" % (arr.size, len(axes), dim))
        order = sorted(range(len(axes)), key=lambda k: repr(axes[k]))
        self.dim, self.axes = dim, tuple(axes[k] for k in order)
        self.data = arr.reshape((dim,) * len(axes)).transpose(order)
        self.data.flags.writeable = False

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
                and self.axes == other.axes
                and bool(np.all(self.data == other.data)))

    def __hash__(self):
        return hash((self.dim, self.axes, tuple(self.data.reshape(-1))))

    def __repr__(self):
        return "Tensor(dim=%d, axes=%r)" % (self.dim, list(self.axes))

    def scale(self, c) -> "Tensor":
        return Tensor._exact(self.dim, self.axes, self.data * Fraction(c))

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim or self.axes != other.axes:
            raise DimMismatch("adding tensors with different axes")
        return Tensor._exact(self.dim, self.axes, self.data + other.data)

    def rename_axes(self, mapping) -> "Tensor":
        """Rename axis keys by a partial map (pol, label) -> (pol, label)."""
        mapping = {tuple(k): tuple(v) for k, v in dict(mapping).items()}
        new_axes = [mapping.get(a, a) for a in self.axes]
        return Tensor._exact(self.dim, new_axes, self.data)


def scalar_tensor(d: int, value=1) -> Tensor:
    return Tensor(d, [], [Fraction(value)])


def identity_tensor(label: str, d: int) -> Tensor:
    return Tensor(d, [(IN, label), (OUT, label)],
                  [[int(p == q) for q in range(d)] for p in range(d)])


def tensor_product(s: Tensor, t: Tensor, cap_power: int = DEFAULT_CAP_POWER) -> Tensor:
    if s.dim != t.dim:
        raise DimMismatch("dims %d and %d" % (s.dim, t.dim))
    clash = set(s.axes) & set(t.axes)
    if clash:
        raise LabelClash("shared axes %r" % sorted(clash))
    if len(s.axes) + len(t.axes) > cap_power:
        raise SizeCapExceeded("%d axes exceeds cap of %d"
                              % (len(s.axes) + len(t.axes), cap_power))
    data = np.multiply.outer(s.data, t.data)
    return Tensor._exact(s.dim, list(s.axes) + list(t.axes), data)


def trace_contract(t: Tensor, i: str, j: str) -> Tensor:
    """Contract the in-axis labelled ``i`` against the out-axis labelled ``j``."""
    a1 = t.axis_pos((IN, i))
    a2 = t.axis_pos((OUT, j))
    data = t.data.diagonal(axis1=a1, axis2=a2).sum(axis=-1)
    axes = [a for k, a in enumerate(t.axes) if k not in (a1, a2)]
    return Tensor._exact(t.dim, axes, data)


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
    earlier vertices; free edges come last.  ``cap_power`` caps each intermediate.
    """
    if len(vertex_tensors) != g.r:
        raise ArityMismatch("%d tensors for %d vertices" % (len(vertex_tensors), g.r))
    pol = {1: IN, -1: OUT}
    pieces = []  # (data, the flags naming its axes)
    for k, t in enumerate(vertex_tensors):
        if t.dim != d:
            raise DimMismatch("vertex %d has dim %d, expected %d" % (k + 1, t.dim, d))
        flag_of = {(pol[g.delta[f]], g.lam[f]): f for f in g.vertices[k]}
        if set(t.axes) != set(flag_of):
            raise ArityMismatch("vertex %d axes %r != %r" % (k + 1, t.axes, set(flag_of)))
        pieces.append((t.data, [flag_of[a] for a in t.axes]))
    pieces += [(identity_tensor("?", d).data, [f, m])
               for f, m in g.pi.items() if g.delta[f] == 1]

    # The free loops' factor seeds the running product.
    data, flags = np.full((), Fraction(d) ** g.loop_count, dtype=object), []
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
        data = np.tensordot(data, v, axes=([flags.index(m) for m in mates],
                                           [vflags.index(f) for f in shared]))
        flags = ([f for f in flags if f not in mates]
                 + [f for f in vflags if f not in shared])
    return Tensor._exact(d, [(pol[g.delta[f]], g.beta[f]) for f in flags], data)


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


_TENSOR = {"axes": [[{IN, OUT}, (str, int)]], "data": [None]}


def from_obj(obj) -> Tensor:
    if not (all_fit([obj], _TENSOR) and {"dim", "axes", "data"} <= set(obj)):
        raise InvalidTensor("%.80r is no {dim, axes: [[in|out, label]], data}" % (obj,))
    return Tensor(obj["dim"], [tuple(a) for a in obj["axes"]],
                  [rational(x) for x in obj["data"]])


def rational(x) -> Fraction:
    """An integer or rational string from JSON; never a float, as 0.1 is not 1/10."""
    if isinstance(x, (bool, float)):
        raise InvalidTensor("%r is inexact: give an integer or a string like '1/10'" % (x,))
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidTensor("%r is not a rational: %s" % (x, exc))


def to_json(t: Tensor) -> str:
    return json.dumps(to_obj(t), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Tensor:
    return from_obj(json.loads(text))
