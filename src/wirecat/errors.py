"""Exception hierarchy.

Every domain error names the invariant it violates, so CLI output and test
logs can be traced back to a specific validation clause.
"""


class WirecatError(Exception):
    """Base class for all domain errors raised by this package."""


# -- wiring diagrams ---------------------------------------------------------

class NonBijectiveMatching(WirecatError):
    """The matching is not a total bijection between out- and in-endpoints."""


class EndpointSetMismatch(WirecatError):
    """The matching mentions endpoints outside the declared interfaces."""


class NegativeCircles(WirecatError):
    """A diagram was given a circle count that is not a nonnegative integer."""


class IndexOutOfRange(WirecatError):
    """A box index does not name an input box of the diagram."""


class InterfaceMismatch(WirecatError):
    """Composition attempted where the boundary label sets do not match."""


# -- graphs ------------------------------------------------------------------

class InvalidGraph(WirecatError):
    """A directed graph violates one or more structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InvalidDiagram(WirecatError):
    """A wiring diagram handed to the translator failed validation."""


class UnknownVertex(WirecatError):
    """A vertex index does not name a vertex of the graph."""


class BoundaryMismatch(WirecatError):
    """A graph being substituted does not have the required boundary."""


# -- free wheeled prop -------------------------------------------------------

class ArityMismatch(WirecatError):
    """Label counts do not match a generator's declared arity."""


class LabelClash(WirecatError):
    """An operation requires disjoint label sets but they intersect."""


class UnknownLabel(WirecatError):
    """A label is not part of the element's boundary."""


class NotABijection(WirecatError):
    """A relabelling map is not a bijection on the required set."""


# -- tensors -----------------------------------------------------------------

class InvalidTensor(WirecatError):
    """A tensor's JSON form is not an object with dim, [polarity, label] axes
    and a list of rational entries, or a tensor entry or scale factor is no
    exact rational (a float or a boolean, say)."""


class UnknownAxis(WirecatError):
    """A (polarity, label) pair does not name an axis of the tensor."""


class DimMismatch(WirecatError):
    """A base dimension is not a positive integer, or tensors of different
    base dimension were combined."""


class SizeCapExceeded(WirecatError):
    """A tensor operation would exceed the configured entry cap."""


# -- free Lie / trace spaces -------------------------------------------------

class NotMultilinear(WirecatError):
    """A bracket word does not use each letter exactly once."""


class BoundExceeded(WirecatError):
    """A size or count (a letter count n, a number of trials) is outside the
    range its computation allows."""
