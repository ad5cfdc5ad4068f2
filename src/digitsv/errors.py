"""Exception types shared across the toolkit."""


class DigitsvError(Exception):
    """Base class for all toolkit errors."""


# --- audio / features ---------------------------------------------------

class BadSampleRate(DigitsvError):
    pass


class ClipTooShort(DigitsvError):
    pass


class UnsupportedAudio(DigitsvError):
    pass


class TooFewFrames(DigitsvError):
    pass


class WrongKind(DigitsvError):
    pass


# --- mixture models ------------------------------------------------------

class TooFewSamples(DigitsvError):
    pass


class DegenerateData(DigitsvError):
    pass


class DimMismatch(DigitsvError):
    pass


class ShapeMismatch(DigitsvError):
    pass


# --- HMM / alignment ------------------------------------------------------

class UnknownToken(DigitsvError):
    pass


class TooShort(DigitsvError):
    pass


class MissingDigitCoverage(DigitsvError):
    pass


class UnalignableUtterance(DigitsvError):
    def __init__(self, utterance_id, message=""):
        self.utterance_id = utterance_id
        super().__init__(message or f"utterance {utterance_id!r} cannot be aligned")


class SourceMismatch(DigitsvError):
    pass


# --- neural aligner -------------------------------------------------------

class MissingClass(DigitsvError):
    pass


class NonFiniteLoss(DigitsvError):
    """Training diverged.  ``checkpoint`` holds the last finite-loss model."""

    def __init__(self, message, checkpoint=None):
        self.checkpoint = checkpoint
        super().__init__(message)


# --- phonetic GMM statistics ----------------------------------------------

class StarvedState(DigitsvError):
    def __init__(self, state, message=""):
        self.state = state
        super().__init__(message or f"state {state} received too few frames")


class EmptyStateWarning(UserWarning):
    """A state accumulated ~zero occupancy and was left unchanged."""


# --- speaker modeling -------------------------------------------------------

class NoRetainedFrames(DigitsvError):
    pass


class EmptyEnrollment(DigitsvError):
    pass


# --- i-vector backend --------------------------------------------------------

class RankTooLarge(DigitsvError):
    pass


class InconsistentBackground(DigitsvError):
    pass


class ZeroVector(DigitsvError):
    pass


class InsufficientSpeakers(DigitsvError):
    pass


class BadLdaDim(DigitsvError):
    pass


# --- evaluation ------------------------------------------------------------

class UnknownCondition(DigitsvError):
    pass


class OneClassOnly(DigitsvError):
    pass


class EmptyCondition(DigitsvError):
    pass


class TrialParseError(DigitsvError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# --- synthetic corpus -------------------------------------------------------

class ConfigInvalid(DigitsvError):
    pass


# --- file formats -------------------------------------------------------------

class FormatError(DigitsvError):
    pass


class BadMagic(FormatError):
    pass


class UnsupportedVersion(FormatError):
    pass


class Truncated(FormatError):
    def __init__(self, offset, message=""):
        self.offset = offset
        super().__init__(message or f"file truncated at byte {offset}")


class CorruptData(FormatError):
    def __init__(self, offset, message=""):
        self.offset = offset
        super().__init__(message or f"corrupt data at byte {offset}")


class RowNotNormalized(FormatError):
    pass


class WrongStateCount(FormatError):
    pass


# --- CLI -----------------------------------------------------------------------

class UsageError(DigitsvError):
    pass
