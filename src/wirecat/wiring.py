"""Oriented wiring diagrams in matching form.

A wiring diagram is a boundary interface (box 0), an ordered list of input
interfaces (boxes 1..r), a perfect matching between all out-endpoints and all
in-endpoints, and a count of closed circles.  Endpoints are
``(box, polarity, label)`` triples, which keeps non-disjoint label sets safe.

Composition glues one diagram into an input box of another and follows the
resulting strands with ``resolve_strands``, the strand walk that graph
substitution and free-prop contraction share; strands that close up
contribute to the circle count.
"""
from __future__ import annotations

import itertools
import json
from typing import Dict, Iterable, Mapping, Tuple

from .errors import (
    EndpointSetMismatch,
    IndexOutOfRange,
    InterfaceMismatch,
    InvalidDiagram,
    NegativeCircles,
    NonBijectiveMatching,
    NotABijection,
)

OUT = "out"
IN = "in"

#: An endpoint is (box, polarity, label).
Endpoint = Tuple[int, str, str]


def label_key(a):
    """Sort key for labels, total on JSON scalars: numbers, then strings,
    then ``None``.  Labels of one type keep their plain ``sorted`` order."""
    return (a is None, isinstance(a, str), a)


class Interface:
    """A pair of duplicate-free label sets: outgoing and incoming."""

    __slots__ = ("out_labels", "in_labels")

    def __init__(self, out_labels: Iterable[str] = (), in_labels: Iterable[str] = ()):
        self.out_labels = frozenset(out_labels)
        self.in_labels = frozenset(in_labels)

    def flip(self) -> "Interface":
        return Interface(self.in_labels, self.out_labels)

    def key(self):
        return (tuple(sorted(self.out_labels, key=repr)),
                tuple(sorted(self.in_labels, key=repr)))

    def __eq__(self, other):
        return isinstance(other, Interface) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Interface(out=%r, in=%r)" % tuple(map(list, self.key()))


class WiringDiagram:
    """An immutable wiring diagram; equality is structural.

    ``matching`` maps every out-endpoint to an in-endpoint, bijectively.
    """

    __slots__ = ("output", "inputs", "matching", "circles", "_key")

    def __init__(self, output: Interface, inputs: Iterable[Interface],
                 matching: Mapping[Endpoint, Endpoint], circles: int = 0):
        self.output = output
        self.inputs = tuple(inputs)
        self.matching: Dict[Endpoint, Endpoint] = dict(matching)
        self.circles = circles
        self._validate()
        self._key = (
            self.output.key(),
            tuple(i.key() for i in self.inputs),
            tuple(sorted(self.matching.items(), key=repr)),
            self.circles,
        )

    # -- construction checks --

    def _validate(self):
        if self.circles < 0 or self.circles != int(self.circles):
            raise NegativeCircles("circles = %r is not a nonnegative integer" % (self.circles,))
        expected_out = set(self.out_endpoints())
        expected_in = set(self.in_endpoints())
        for src, dst in self.matching.items():
            if src not in expected_out:
                raise EndpointSetMismatch("unknown out-endpoint %r" % (src,))
            if dst not in expected_in:
                raise EndpointSetMismatch("unknown in-endpoint %r" % (dst,))
        if len(self.matching) != len(expected_out):
            missing = sorted(expected_out - set(self.matching), key=repr)
            raise NonBijectiveMatching("unmatched out-endpoints %r" % (missing,))
        values = set(self.matching.values())
        if len(values) != len(self.matching) or values != expected_in:
            raise NonBijectiveMatching("in-endpoints not hit exactly once")

    # -- structure --

    @property
    def r(self) -> int:
        return len(self.inputs)

    def interface(self, box: int) -> Interface:
        return self.output if box == 0 else self.inputs[box - 1]

    def out_endpoints(self):
        for box in range(self.r + 1):
            for a in self.interface(box).out_labels:
                yield (box, OUT, a)

    def in_endpoints(self):
        for box in range(self.r + 1):
            for a in self.interface(box).in_labels:
                yield (box, IN, a)

    def __eq__(self, other):
        return isinstance(other, WiringDiagram) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "WiringDiagram(r=%d, circles=%d)" % (self.r, self.circles)

    # -- operad structure --

    def compose(self, i: int, other: "WiringDiagram") -> "WiringDiagram":
        """Glue ``other`` into input box ``i`` (1-based) of this diagram.

        The inner interface must equal the flipped boundary of ``other``:
        outgoing labels of box ``i`` meet incoming labels of the boundary of
        ``other`` and vice versa.
        """
        if not 1 <= i <= self.r:
            raise IndexOutOfRange("box %d of %d" % (i, self.r))
        inner = self.inputs[i - 1]
        if (inner.out_labels != other.output.in_labels
                or inner.in_labels != other.output.out_labels):
            raise InterfaceMismatch(
                "box %d is %r; boundary of inner diagram flips to %r"
                % (i, inner, other.output.flip()))

        # Tagged endpoints: ('L', e) lives in self, ('R', e) in other.
        glue = {}
        for a in inner.out_labels:
            glue[("L", (i, OUT, a))] = ("R", (0, IN, a))
        for a in inner.in_labels:
            glue[("L", (i, IN, a))] = ("R", (0, OUT, a))
        glue.update({b: a for a, b in glue.items()})

        link = {}
        for side, d in (("L", self), ("R", other)):
            for e, f in d.matching.items():
                link[(side, e)], link[(side, f)] = (side, f), (side, e)

        s = other.r

        def renumber(tagged: Tuple[str, Endpoint]) -> Endpoint:
            side, (box, pol, label) = tagged
            if side == "L":
                new = box if box < i else box + s - 1
            else:
                new = i - 1 + box
            return (new, pol, label)

        strands, closed = resolve_strands(
            link, glue, [e for e in link if e not in glue])
        new_matching: Dict[Endpoint, Endpoint] = {}
        for a, b in strands:  # each joins an out- and an in-endpoint
            src, dst = (a, b) if a[1][1] == OUT else (b, a)
            new_matching[renumber(src)] = renumber(dst)

        new_inputs = self.inputs[:i - 1] + other.inputs + self.inputs[i:]
        return WiringDiagram(self.output, new_inputs, new_matching,
                             self.circles + other.circles + closed)


def resolve_strands(link: Mapping, glue: Mapping, ends: Iterable):
    """Follow the strands that two pairings of nodes make.

    ``link`` and ``glue`` each map a node to its partner, in both directions.
    A strand starts at a node of ``ends``, hops along the map that holds it,
    then alternates between the two maps, and stops at the first node the
    next map does not hold.  The hops alternate explicitly: a free edge glued
    to itself has ``link`` and ``glue`` agree on both of its nodes.  Every
    node of ``link`` that no such strand reaches must lie on a closed strand.

    Returns ``(strands, closed)``: ``strands`` holds one ``(first, last)``
    pair per strand, in the order of ``first`` in ``ends``, where an end on
    neither map is the strand ``(e, e)``; ``closed`` counts the strands that
    close up without reaching an end.
    """
    walked = set()
    strands = []
    for start in ends:
        if start in walked:
            continue
        hop, nxt = (link, glue) if start in link else (glue, link)
        cur = start
        walked.add(cur)
        while cur in hop:
            cur = hop[cur]
            walked.add(cur)
            hop, nxt = nxt, hop
        strands.append((start, cur))
    closed = 0
    for node in link:
        if node in walked:
            continue
        closed += 1
        cur = node
        while cur not in walked:
            mate = link[cur]
            walked.update((cur, mate))
            cur = glue[mate]
    return strands, closed


def identity_diagram(s: Iterable[str], t: Iterable[str]) -> WiringDiagram:
    """The left identity with boundary (S, T) and one input box (T, S).

    The right identity is ``identity_diagram(t, s)``.
    """
    s, t = frozenset(s), frozenset(t)
    matching = {(0, OUT, a): (1, IN, a) for a in s}
    matching.update({(1, OUT, b): (0, IN, b) for b in t})
    return WiringDiagram(Interface(s, t), [Interface(t, s)], matching, 0)


def permutation_diagram(sigma: Mapping[str, str], tau: Mapping[str, str]) -> WiringDiagram:
    """The one-box diagram whose left composition permutes boundary labels.

    ``sigma`` is a bijection of the outgoing boundary set S (read as: inner
    label s wires to boundary label sigma(s)); ``tau`` likewise on the
    incoming boundary set T.
    """
    s = frozenset(sigma)
    t = frozenset(tau)
    if frozenset(sigma.values()) != s or frozenset(tau.values()) != t:
        raise NotABijection("sigma=%r tau=%r" % (sigma, tau))
    matching = {(0, OUT, sigma[a]): (1, IN, a) for a in s}
    matching.update({(1, OUT, b): (0, IN, tau[b]) for b in t})
    return WiringDiagram(Interface(s, t), [Interface(t, s)], matching, 0)


def renumber_inputs(d: WiringDiagram, sigma: Mapping[int, int]) -> WiringDiagram:
    """Re-number input boxes; ``sigma`` maps old index to new index (1-based)."""
    if sorted(sigma) != list(range(1, d.r + 1)) or sorted(sigma.values()) != list(range(1, d.r + 1)):
        raise NotABijection("not a permutation of 1..%d: %r" % (d.r, sigma))
    new_inputs = [None] * d.r
    for old, new in sigma.items():
        new_inputs[new - 1] = d.inputs[old - 1]

    def move(e: Endpoint) -> Endpoint:
        box, pol, label = e
        return (sigma.get(box, box) if box else 0, pol, label)

    matching = {move(src): move(dst) for src, dst in d.matching.items()}
    return WiringDiagram(d.output, new_inputs, matching, d.circles)


# -- serialization -----------------------------------------------------------

def _interface_to_obj(i: Interface):
    return {"out": sorted(i.out_labels, key=label_key),
            "in": sorted(i.in_labels, key=label_key)}


def all_fit(xs, shape) -> bool:
    """Whether every JSON value in ``xs`` has ``shape``: ``None`` (a scalar),
    a tuple of exact types (``True`` is no ``int``), a set of values, ``[s]``
    (a list of ``s``), ``[s1, ..., sk]``, k > 1 (a list of k items) or a dict
    (an object whose keys, where present, fit).  Checking a level at a time
    over all of ``xs`` costs a few set operations in C, not a call per item.
    """
    if not xs:
        return True
    if shape is None:
        return {list, dict}.isdisjoint(map(type, xs))
    if isinstance(shape, tuple):
        return set(shape).issuperset(map(type, xs))
    if isinstance(shape, set):
        return all_fit(xs, None) and shape.issuperset(xs)
    if isinstance(shape, list):
        if not ({list}.issuperset(map(type, xs))
                and (len(shape) == 1 or {len(shape)}.issuperset(map(len, xs)))):
            return False
        if shape.count(shape[0]) == len(shape):
            items = itertools.chain.from_iterable(xs)
            return all_fit(items if shape[0] is None else list(items), shape[0])
        return all(all_fit([x[i] for x in xs], s) for i, s in enumerate(shape))
    return {dict}.issuperset(map(type, xs)) and all(
        all_fit([x[k] for x in xs if k in x], s) for k, s in shape.items())


_INTERFACE = {"out": [None], "in": [None]}
_DIAGRAM = {"output": _INTERFACE, "inputs": [_INTERFACE],
            "matching": [[[None, None, None], [None, None, None]]], "circles": (int,)}


def _interface_from_obj(obj) -> Interface:
    return Interface(obj.get("out", ()), obj.get("in", ()))


def to_obj(d: WiringDiagram):
    boxes = [_interface_to_obj(i) for i in (d.output,) + d.inputs]
    return {
        "output": boxes[0],
        "inputs": boxes[1:],
        # Sorted by out-endpoint: by box, then by label.
        "matching": [[[k, OUT, a], list(d.matching[(k, OUT, a)])]
                     for k, box in enumerate(boxes) for a in box["out"]],
        "circles": d.circles,
    }


def from_obj(obj) -> WiringDiagram:
    if not (all_fit([obj], _DIAGRAM) and "output" in obj):
        raise InvalidDiagram("%.80r is no {output, inputs, matching, circles}" % (obj,))
    return WiringDiagram(
        _interface_from_obj(obj["output"]),
        [_interface_from_obj(i) for i in obj.get("inputs", [])],
        {tuple(src): tuple(dst) for src, dst in obj.get("matching", [])},
        obj.get("circles", 0),
    )


def to_json(d: WiringDiagram) -> str:
    return json.dumps(to_obj(d), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> WiringDiagram:
    return from_obj(json.loads(text))
