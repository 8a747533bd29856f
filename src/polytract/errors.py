"""Exception types shared by every module in the package.

All errors raised on purpose derive from VerifierError so callers (and the
CLI) can tell a deliberate rejection apart from a plain bug.
"""


class VerifierError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInstance(VerifierError):
    """A byte string violates the encoding it claims to follow."""


class MalformedGraph(MalformedInstance):
    """A numbered-graph text block failed to parse or validate."""


class MalformedCircuit(MalformedInstance):
    """A circuit text block failed to parse or validate."""


class CyclicCircuit(MalformedCircuit):
    """The circuit's wiring contains a cycle."""


class DanglingRef(MalformedCircuit):
    """A gate or output references a node id that does not exist."""


class ArityError(MalformedCircuit):
    """A node carries the wrong number of arguments for its kind."""


class SameNode(VerifierError):
    """A visit-order query named the same node twice."""


class UnknownNode(VerifierError):
    """A visit-order query named a node outside the graph."""


class NonMemberSample(VerifierError):
    """A sample that was required to be a member of the language is not."""


class MislabeledSample(VerifierError):
    """The reference oracle contradicts a sample's positive/negative label."""


class GeneratorExhausted(VerifierError):
    """An instance generator produced nothing for a requested size."""


class FactorizationMismatch(VerifierError):
    """A middle factorization of a composition fails to restore a probe."""


class CapExceeded(VerifierError):
    """An exhaustive enumeration was asked to go beyond its size cap."""


class InsufficientData(VerifierError):
    """Too few measurements (or ladder rungs) to fit or decide anything."""


class UnknownProblem(VerifierError):
    """A name does not resolve to any registered problem or catalog entry."""


class ConfigError(VerifierError):
    """A configuration file or value could not be understood."""
