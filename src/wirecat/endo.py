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
from .wiring import IN, OUT

DEFAULT_CAP_POWER = 12


def _as_fraction_array(data, shape):
    arr = np.empty(shape, dtype=object)
    flat = arr.reshape(-1)
    src = np.asarray(data, dtype=object).reshape(-1)
    if src.size != flat.size:
        raise ArityMismatch("data of size %d for shape %r" % (src.size, shape))
    for k in range(flat.size):
        flat[k] = Fraction(src[k])
    return arr


class Tensor:
    """A dense exact-rational tensor with named, canonically ordered axes.

    ``axes`` names the axes of ``data`` in order; on construction the axes
    are sorted and the data transposed to match, so equal tensors have equal
    representations.
    """

    __slots__ = ("dim", "axes", "data")

    def __init__(self, dim: int, axes, data):
        if not isinstance(dim, int) or dim < 1:
            raise DimMismatch("dimension %r is not a positive integer" % (dim,))
        axes = [tuple(a) for a in axes]
        if len(set(axes)) != len(axes):
            raise LabelClash("duplicate axis keys in %r" % (axes,))
        self.dim = dim
        arr = _as_fraction_array(data, (dim,) * len(axes))
        order = sorted(range(len(axes)), key=lambda k: repr(axes[k]))
        self.axes = tuple(axes[k] for k in order)
        self.data = arr.transpose(order) if axes else arr
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
        return Tensor(self.dim, self.axes, self.data * Fraction(c))

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim or self.axes != other.axes:
            raise DimMismatch("adding tensors with different axes")
        return Tensor(self.dim, self.axes, self.data + other.data)

    def rename_axes(self, mapping) -> "Tensor":
        """Rename axis keys by a partial map (pol, label) -> (pol, label)."""
        mapping = {tuple(k): tuple(v) for k, v in dict(mapping).items()}
        new_axes = [mapping.get(a, a) for a in self.axes]
        return Tensor(self.dim, new_axes, self.data)


def scalar_tensor(d: int, value=1) -> Tensor:
    return Tensor(d, [], [Fraction(value)])


def identity_tensor(label: str, d: int) -> Tensor:
    data = np.empty((d, d), dtype=object)
    for p in range(d):
        for q in range(d):
            data[p, q] = Fraction(1 if p == q else 0)
    return Tensor(d, [(IN, label), (OUT, label)], data)


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
    return Tensor(s.dim, list(s.axes) + list(t.axes), data)


def trace_contract(t: Tensor, i: str, j: str) -> Tensor:
    """Contract the in-axis labelled ``i`` against the out-axis labelled ``j``."""
    a1 = t.axis_pos((IN, i))
    a2 = t.axis_pos((OUT, j))
    data = t.data.diagonal(axis1=a1, axis2=a2).sum(axis=-1)
    axes = [a for k, a in enumerate(t.axes) if k not in (a1, a2)]
    return Tensor(t.dim, axes, data)


# -- graph evaluation --------------------------------------------------------

def evaluate_graph(g: DirectedGraph, vertex_tensors, d: int,
                   cap_power: int = DEFAULT_CAP_POWER) -> Tensor:
    """Evaluate a graph whose vertices carry tensors.

    ``vertex_tensors[k]`` must have axes ('in', l) for l in in(v_{k+1}) and
    ('out', l) for l in out(v_{k+1}).  Internal edges are contracted, free
    edges contribute identity tensors, free loops a factor d each, and the
    result's axes carry the graph's boundary labels.
    """
    if len(vertex_tensors) != g.r:
        raise ArityMismatch("%d tensors for %d vertices" % (len(vertex_tensors), g.r))
    edges = []
    for f in sorted(g.iota, key=repr):
        m = g.iota[f]
        if m == f or repr(f) > repr(m):
            continue
        src, dst = (f, m) if g.delta[f] == -1 else (m, f)
        edges.append((max(g._vertex_of[src], g._vertex_of[dst]),
                      (g._vertex_of[dst], g.lam[dst]),
                      (g._vertex_of[src], g.lam[src])))

    big = scalar_tensor(d)
    for f in sorted(g.pi, key=repr):
        m = g.pi[f]
        if repr(f) > repr(m):
            continue
        fin, fout = (f, m) if g.delta[f] == 1 else (m, f)
        edge = identity_tensor("?", d).rename_axes({
            (IN, "?"): (IN, ("b", g.beta[fin])),
            (OUT, "?"): (OUT, ("b", g.beta[fout])),
        })
        big = tensor_product(big, edge, cap_power=cap_power)

    # Multiply vertices in one at a time, contracting each internal edge as
    # soon as both of its ends are present, to keep intermediates small.
    for k, t in enumerate(vertex_tensors):
        if t.dim != d:
            raise DimMismatch("vertex %d has dim %d, expected %d" % (k + 1, t.dim, d))
        ins, outs = g.neighbourhood(k + 1)
        want = {(IN, l) for l in ins} | {(OUT, l) for l in outs}
        if set(t.axes) != want:
            raise ArityMismatch("vertex %d axes %r != %r" % (k + 1, t.axes, want))
        tagged = t.rename_axes({a: (a[0], (k, a[1])) for a in t.axes})
        big = tensor_product(big, tagged, cap_power=cap_power)
        for last, i_key, j_key in edges:
            if last == k:
                big = trace_contract(big, i_key, j_key)

    # Boundary axes get the graph's beta labels.
    ren = {}
    for f in g.boundary_flags():
        pol = IN if g.delta[f] == 1 else OUT
        tag = (g._vertex_of[f], g.lam[f]) if f in g._vertex_of else ("b", g.beta[f])
        ren[(pol, tag)] = (pol, g.beta[f])
    big = big.rename_axes(ren)
    if g.loop_count:
        big = big.scale(Fraction(d) ** g.loop_count)
    return big


def evaluate_decorated(g: DirectedGraph, decor, bind, d: int) -> Tensor:
    """Evaluate a generator-decorated graph.

    ``decor[k] = (symbol, in_slots, out_slots)`` gives each vertex's generator
    and the labels filling its slots in order; ``bind[symbol]`` is a raw
    nested array whose axes run over the in-slots then the out-slots.
    """
    tensors = []
    for sym, in_slots, out_slots in decor:
        raw = bind[sym]
        axes = [(IN, l) for l in in_slots] + [(OUT, l) for l in out_slots]
        tensors.append(Tensor(d, axes, raw))
    return evaluate_graph(g, tensors, d)


# -- serialization -----------------------------------------------------------

def to_obj(t: Tensor):
    return {
        "dim": t.dim,
        "axes": [list(a) for a in t.axes],
        "data": [str(x) for x in t.data.reshape(-1)],
    }


def _is_axis(a) -> bool:
    return (isinstance(a, list) and len(a) == 2 and a[0] in (IN, OUT)
            and isinstance(a[1], (str, int)) and not isinstance(a[1], bool))


def from_obj(obj) -> Tensor:
    if not isinstance(obj, dict) or not {"dim", "axes", "data"} <= set(obj):
        raise InvalidTensor("a tensor is an object with dim, axes and data")
    if not isinstance(obj["axes"], list) or not all(map(_is_axis, obj["axes"])):
        raise InvalidTensor("axes %r are not [in|out, label] pairs with a "
                            "string or integer label" % (obj["axes"],))
    if not isinstance(obj["data"], list):
        raise InvalidTensor("data %r is not a list" % (obj["data"],))
    try:
        data = [Fraction(x) for x in obj["data"]]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidTensor("data entry is not a rational: %s" % exc)
    return Tensor(obj["dim"], [tuple(a) for a in obj["axes"]], data)


def to_json(t: Tensor) -> str:
    return json.dumps(to_obj(t), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Tensor:
    return from_obj(json.loads(text))
