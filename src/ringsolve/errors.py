"""Exception types shared across the package, and the quoting of user text
in their messages."""


def quote(text: str) -> str:
    """repr(text), or past 40 characters the repr of its first 20 and the
    length: a message that echoes user text stays short."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def shown(text: str) -> str:
    """text as it is up to 40 characters, else ``quote(text)``: for numbers
    and paths, which read best unquoted."""
    return text if len(text) <= 40 else quote(text)


class RingsolveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(RingsolveError):
    """A constructor or operation argument violates its contract."""


class NotARing(RingsolveError):
    """Explicit tables fail a ring axiom; the message names the axiom."""

    def __init__(self, axiom: str, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"not a ring: {axiom} fails" + (f" ({detail})" if detail else ""))


class PreconditionViolation(RingsolveError):
    """An operation was called on input outside its stated domain."""


class Unsupported(RingsolveError):
    """The input is well-formed but the operation does not apply to it."""


class UnsupportedRing(Unsupported):
    """The ring lacks the structure required by the operation."""


class CapacityError(RingsolveError):
    """An exhaustive search space exceeds the hard size cap."""


class InvalidCertificate(RingsolveError):
    """A certificate does not match the shape expected for the system."""


class InternalError(RingsolveError):
    """A theory-guaranteed invariant failed; indicates a bug, surfaced loudly."""


class SpecParseError(RingsolveError):
    """A ring spec, system file, or certificate file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
