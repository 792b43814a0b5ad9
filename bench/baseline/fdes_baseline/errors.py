"""Exception type shared by every module, carrying a stable error code."""

from __future__ import annotations


class FdesError(Exception):
    """Domain, validation, or input error.

    ``code`` is a stable machine-readable identifier such as
    ``P2_VIOLATION`` or ``UNKNOWN_EVENT``; the message is for humans.
    ``location`` is a ``source:line`` hint attached by the FDL parser.
    """

    def __init__(self, code: str, message: str, location: str | None = None):
        self.code = code
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ConditionViolated(FdesError):
    """A synthesis precondition failed; carries the failing check report."""

    def __init__(self, message: str, report):
        super().__init__("CONDITION_VIOLATED", message)
        self.report = report
