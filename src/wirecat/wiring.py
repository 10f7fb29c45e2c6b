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

import collections
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
    """A pair of duplicate-free label sets: outgoing and incoming.  Interfaces
    compare and hash by value."""

    __slots__ = ("out_labels", "in_labels")

    def __init__(self, out_labels: Iterable[str] = (), in_labels: Iterable[str] = ()):
        self.out_labels = frozenset(out_labels)
        self.in_labels = frozenset(in_labels)

    def flip(self) -> "Interface":
        return Interface(self.in_labels, self.out_labels)

    def __eq__(self, other):
        return (isinstance(other, Interface) and self.out_labels == other.out_labels
                and self.in_labels == other.in_labels)

    def __hash__(self):
        return hash((self.out_labels, self.in_labels))

    def __repr__(self):
        return "Interface(out=%(out)r, in=%(in)r)" % _interface_to_obj(self)


class WiringDiagram:
    """An immutable wiring diagram; it compares and hashes by value.

    ``matching`` maps every out-endpoint to an in-endpoint, bijectively.
    """

    __slots__ = ("output", "inputs", "matching", "circles")

    def __init__(self, output: Interface, inputs: Iterable[Interface],
                 matching: Mapping[Endpoint, Endpoint], circles: int = 0):
        self.output = output
        self.inputs = tuple(inputs)
        self.matching: Dict[Endpoint, Endpoint] = dict(matching)
        self.circles = circles
        self._validate()

    # -- construction checks --

    def _validate(self):
        if self.circles < 0 or self.circles != int(self.circles):
            raise NegativeCircles("circles = %r is not a nonnegative integer" % (self.circles,))
        boxes = (self.output,) + self.inputs
        expected_out = {(k, OUT, a) for k, box in enumerate(boxes) for a in box.out_labels}
        expected_in = {(k, IN, a) for k, box in enumerate(boxes) for a in box.in_labels}
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
            hits = collections.Counter(self.matching.values())
            twice = sorted((e for e, n in hits.items() if n > 1), key=repr)
            never = sorted(expected_in - values, key=repr)
            raise NonBijectiveMatching("in-endpoints hit more than once %r, never hit %r"
                                       % (twice, never))

    # -- structure --

    @property
    def r(self) -> int:
        return len(self.inputs)

    def __eq__(self, other):
        return (isinstance(other, WiringDiagram) and self.output == other.output
                and self.inputs == other.inputs and self.matching == other.matching
                and self.circles == other.circles)

    def __hash__(self):
        return hash((self.output, self.inputs, frozenset(self.matching.items()),
                     self.circles))

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
    return permutation_diagram({a: a for a in s}, {b: b for b in t})


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
    (an object with no other keys, each present key fitting; ``{}``: any).
    Checking a level at a time over all of ``xs`` costs a few set operations
    in C, not a call per item.
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
    return {dict}.issuperset(map(type, xs)) and (
        not shape or set(shape).issuperset(itertools.chain.from_iterable(xs))) and all(
        all_fit([x[k] for x in xs if k in x], s) for k, s in shape.items())


def misfit(obj, shape):
    """The part of ``obj`` to name when it does not fit ``shape``.  The walk
    goes down through the first list item or object key that fails
    ``all_fit``: it returns a failing row of fixed length (a pair, an
    endpoint, a decoration row) or an object key that ``shape`` does not
    have, and otherwise the list or object that holds the failing value."""
    while True:
        if isinstance(shape, dict) and isinstance(obj, dict):
            unknown = [k for k in obj if k not in shape]
            if unknown:
                return {unknown[0]: obj[unknown[0]]}
            parts = [(obj[k], shape[k]) for k in obj]
        elif isinstance(shape, list) and len(shape) == 1 and isinstance(obj, list):
            parts = [(x, shape[0]) for x in obj]
        else:
            return obj
        x, s = next(((x, s) for x, s in parts if not all_fit([x], s)), (None, None))
        if not isinstance(x, (list, dict)) or not isinstance(x, type(s)):
            return obj
        if isinstance(s, list) and len(s) > 1:
            return x
        obj, shape = x, s


def repeats(lists) -> list:
    """One ``RepeatedEntry`` message per ``(name, items)`` of ``lists`` whose
    ``items`` hold an item twice (``1``, ``1.0`` and ``True`` are one item),
    naming the first repeat; a list with none costs one ``len(set(...))``."""
    out = []
    for name, items in lists:
        if len(set(items)) < len(items):
            x = next(x for k, x in enumerate(items) if x in items[:k])
            out.append("RepeatedEntry: %r twice in %s" % (x, name))
    return out


_LABEL = (int, str, type(None))
_INTERFACE = {"out": [_LABEL], "in": [_LABEL]}
_ENDPOINT = [(int,), None, _LABEL]
_DIAGRAM = {"output": _INTERFACE, "inputs": [_INTERFACE],
            "matching": [[_ENDPOINT, _ENDPOINT]], "circles": (int,)}


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
        raise InvalidDiagram("%.80r does not fit {output, inputs, matching, circles}"
                             % (misfit(obj, _DIAGRAM),))
    boxes, pairs = [obj["output"], *obj.get("inputs", [])], obj.get("matching", [])
    matching = {tuple(src): tuple(dst) for src, dst in pairs}
    # The boxes of a valid diagram list each endpoint of ``matching`` once, so
    # only where a count fails can a repeated entry merge into a valid diagram.
    if (sum(len(b.get(OUT, ())) + len(b.get(IN, ())) for b in boxes) != 2 * len(matching)
            or len(matching) < len(pairs)):
        bad = repeats([("box %d %s-labels" % (k, pol), b.get(pol, []))
                       for k, b in enumerate(boxes) for pol in (OUT, IN)]
                      + [("matching", [tuple(src) for src, _ in pairs])])
        if bad:
            raise InvalidDiagram("; ".join(bad))
    return WiringDiagram(_interface_from_obj(boxes[0]), map(_interface_from_obj, boxes[1:]),
                         matching, obj.get("circles", 0))


def to_json(d: WiringDiagram) -> str:
    return json.dumps(to_obj(d), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> WiringDiagram:
    return from_obj(json.loads(text))
