"""Exception types shared across the library.

DiagramError covers everything a caller can provoke with bad input (CLI exit
code 1). DslSyntaxError carries a source position and UsageError reports a
command line that does not parse (both exit code 2).
GadgetSelfTestFailed and CertificateError signal internal consistency
failures (exit code 3): a shipped gadget configuration that no longer passes
its homology self-test, or a computed result that fails its exact check.
"""

from __future__ import annotations


class DiagramError(Exception):
    """Base class for domain-level errors."""


class NoJointPartner(DiagramError):
    """No round 2-surgery spec is joint with the given round 1-surgery spec."""


class UnknownComponent(DiagramError):
    """A referenced component label does not exist."""


class InvalidParameter(DiagramError):
    """A numeric argument is outside its allowed range."""


class NotPm1Diagram(DiagramError):
    """The contact surgery diagram has a coefficient outside {+1, -1}."""


class UnsupportedComposition(DiagramError):
    """The round surgery diagram is invalid, has an infinite round 2-coefficient,
    or breaks the nice joint-pair rule that to-pm1 and fillable need."""


class NotNice(UnsupportedComposition):
    """A joint pair fails a niceness condition."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"round1[{index}]: {reason}")
        self.index = index
        self.reason = reason


class DomainError(DiagramError):
    """The argument is outside the mathematical domain of the operation."""


class NotNormalized(DiagramError):
    """Boundary slopes were not normalized (front torus slope must be -1)."""


class MarkMismatch(DiagramError):
    """The two annuli to be glued have different numbers of marked points."""


class EmptyDividingSet(DiagramError):
    """A convex torus with an empty dividing set is not allowed here."""


class InvalidArcConfig(DiagramError):
    """The arc system violates matching, disjointness or winding consistency."""


class LimitExceeded(DiagramError):
    """The requested work is larger than the bound the caller set for it."""


class FrontError(DiagramError):
    """Base class for front-word errors."""


class FrontSyntaxError(FrontError):
    """A token of the front word is malformed."""


class PositionError(FrontError):
    """An event addresses a strand position that does not exist."""


class OpenDiagram(FrontError):
    """The front word ends with strands left open."""


class SemanticError(DiagramError):
    """A diagram file violates a semantic rule (unknown label, invariant failure)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


class DslSyntaxError(Exception):
    """A diagram file could not be tokenized/parsed; carries a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UsageError(Exception):
    """The command line does not parse: an unknown or missing argument or a
    malformed option value (exit code 2)."""


class GadgetSelfTestFailed(Exception):
    """A cosmetic-surgery gadget failed its homology self-test (misconfiguration)."""


class CertificateError(Exception):
    """A computed result failed its exact check (internal fault).

    Raised when a Smith normal form certificate, a slope normalization, a
    continued fraction expansion or a glued dividing set does not verify,
    and when a construction breaks an invariant it guarantees: a constructed
    joint-pair diagram that does not read back as its input plus gadgets, an odd
    mixed-crossing sign sum in classical_invariants, or a stabilize that
    finds no right cusp or no zigzag with the requested rotation shift.
    A Smith certificate is the log of the row and column operations that
    took M to D; it fails when a logged operation is not an integer matrix
    of determinant +-1 or when replaying the log on M does not give D, so a
    certificate that passes proves U*M*V = D with U, V unimodular.
    """
