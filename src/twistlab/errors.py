"""Exception hierarchy shared by all twistlab modules."""


class TwistlabError(Exception):
    """Base class for all errors raised by twistlab."""


class MalformedInput(TwistlabError):
    """Input text or configuration that cannot be parsed at all."""


class MalformedWord(MalformedInput):
    pass


class MalformedConfig(MalformedInput):
    pass


class UnknownCurve(TwistlabError):
    """A word or query references a curve the configuration does not know."""


class MissingDistance(TwistlabError):
    """A required curve-graph distance is not stored in the configuration."""


class MissingProjection(TwistlabError):
    """A required annular projection distance is not stored."""


class WrongShape(TwistlabError):
    """The word does not have the syllable/block shape a checker needs."""


class WrongAlphabet(TwistlabError):
    """A representation word uses letters outside the two-generator alphabet."""


class ConditionUnmet(TwistlabError):
    """A hypothesis of the requested certificate fails on the given data."""


class NotHyperbolic(TwistlabError):
    """The represented word is not hyperbolic, so it has no stretch factor."""


class DegenerateMatrix(MalformedInput):
    """An intersection matrix is empty, ragged, negative, or has an all-zero row
    or column."""


class BadParameter(TwistlabError):
    """A numeric parameter is outside its allowed range."""


class ZeroTotal(TwistlabError):
    """Collecting exponents per curve produced a zero total power."""


class CoreDisjoint(TwistlabError):
    """An annular projection was requested for a curve missing the core."""


class BudgetExhausted(TwistlabError):
    """A bounded search ended without certifying an answer."""
