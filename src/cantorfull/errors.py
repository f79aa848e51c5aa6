"""Exception hierarchy with stable error codes (used verbatim by the CLI)."""


class CantorfullError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class EmptySubshift(CantorfullError):
    code = "empty-subshift"


class NonPrimitiveSubstitution(CantorfullError):
    code = "non-primitive-substitution"


class BadContinuedFraction(CantorfullError):
    code = "bad-continued-fraction"


class DepthCapExceeded(CantorfullError):
    code = "depth-cap-exceeded"


class NotMinimal(CantorfullError):
    code = "not-minimal"


class NotAperiodic(CantorfullError):
    code = "not-aperiodic"


class CapExceeded(CantorfullError):
    code = "cap-exceeded"

    def __init__(self, message, cap=None):
        super().__init__(message if cap is None else f"{message} (cap={cap})")
        self.cap = cap


class MemoryCapExceeded(CapExceeded):
    code = "memory-cap-exceeded"


class PartialTable(CantorfullError):
    code = "partial-table"

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"table missing {len(self.missing)} allowed word(s), "
                         f"first: {self.missing[0] if self.missing else '?'}")


class NotInjective(CantorfullError):
    code = "not-injective"

    def __init__(self, word, count):
        self.word = word
        self.count = count
        super().__init__(f"{count} preimages over window {word}")


class NotSurjective(CantorfullError):
    code = "not-surjective"

    def __init__(self, word):
        self.word = word
        super().__init__(f"no preimage over window {word}")


class NotBijective(CantorfullError):
    code = "not-bijective"


class EngineMismatch(CantorfullError):
    code = "engine-mismatch"


class NotGood(CantorfullError):
    code = "not-good"

    def __init__(self, pair, word):
        self.pair = pair
        self.word = word
        super().__init__(f"translates {pair} overlap at {word}")


class OverlapError(CantorfullError):
    code = "overlap"


class NotOmniscient(CantorfullError):
    code = "not-omniscient"


class FixedPointFound(CantorfullError):
    code = "fixed-point-found"

    def __init__(self, power, word):
        self.power = power
        self.word = word
        super().__init__(f"f^{power} has a fixed point through {word}")


class SurplusViolated(CantorfullError):
    code = "surplus-violated"

    def __init__(self, tower):
        self.tower = tower
        super().__init__(f"tower {tower} has fewer A-levels than B-levels")


class PreconditionViolated(CantorfullError):
    code = "precondition-violated"

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"translates {pair} are not disjoint")


class OdometerLike(CantorfullError):
    code = "odometer-like"


class SearchExhausted(CantorfullError):
    code = "search-exhausted"


class WindowTooSmall(CantorfullError):
    code = "window-too-small"


class StabilizerViolated(CantorfullError):
    code = "stabilizer-violated"

    def __init__(self, position, image):
        self.position = position
        self.image = image
        super().__init__(f"orbit position {position} crosses to {image}")


class RangeUnavailable(CantorfullError):
    code = "range-unavailable"


class ParseError(CantorfullError):
    code = "syntax-error"

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {column}: {message}{hint}")


class SemanticError(CantorfullError):
    code = "semantic-error"
