"""Exception types shared across the toolkit.

A failure raises ``DigitsvError`` with a one-line message, or ``FormatError``
when a reader rejects a file.  A subclass exists only where a caller acts on
it by type or reads a field it carries.
"""


class DigitsvError(Exception):
    """Base class for all toolkit errors."""


class UsageError(DigitsvError):
    """A command line the CLI cannot parse."""


class DegenerateData(DigitsvError):
    """Training frames too few or too alike to estimate a mixture."""


class UnalignableUtterance(DigitsvError):
    def __init__(self, utterance_id, message=""):
        self.utterance_id = utterance_id
        super().__init__(message or f"utterance {utterance_id!r} cannot be aligned")


class NonFiniteLoss(DigitsvError):
    """Training diverged.  ``checkpoint`` holds the last finite-loss model."""

    def __init__(self, message, checkpoint=None):
        self.checkpoint = checkpoint
        super().__init__(message)


class StarvedState(DigitsvError):
    def __init__(self, state, message=""):
        self.state = state
        super().__init__(message or f"state {state} received too few frames")


class EmptyStateWarning(UserWarning):
    """A state accumulated ~zero occupancy and was left unchanged."""


class TrialParseError(DigitsvError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# --- file formats -------------------------------------------------------------

class FormatError(DigitsvError):
    """A file a reader rejects."""


class Truncated(FormatError):
    def __init__(self, offset, message=""):
        self.offset = offset
        super().__init__(message or f"file truncated at byte {offset}")


class CorruptData(FormatError):
    def __init__(self, offset, message=""):
        self.offset = offset
        super().__init__(message or f"corrupt data at byte {offset}")
