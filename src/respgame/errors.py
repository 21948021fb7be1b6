"""Shared error types used across the package, and the input readers
that report a file they cannot read, or JSON they cannot decode, as an
InputError."""

import json


class InputError(ValueError):
    """A model, objective, run or flag combination is structurally invalid."""


class RefusalError(RuntimeError):
    """The analysis refuses to run (cap exceeded, timeout, ...).

    Carries enough context for the CLI to print actionable guidance and
    exit with status 1 rather than crash.
    """

    def __init__(self, message, guidance=None):
        super().__init__(message)
        self.guidance = guidance


class PlayerCapExceeded(RefusalError):
    pass


class BlockCapExceeded(RefusalError):
    pass


class StateCapExceeded(RefusalError):
    pass


class AnalysisTimeout(RefusalError):
    pass


def no_deadline() -> None:
    """The budget of an analysis without a time limit: calling it never
    raises.  Every `deadline` parameter defaults to it."""


def read_text(path, size: int = -1) -> str:
    """The UTF-8 text of the file at `path`, or its first `size` characters."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(size)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def decode_json(text: str):
    """The JSON value of `text`; a syntax error, or nesting deeper than the
    decoder's recursion allows, is an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"syntax error at line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError("syntax error: arrays or objects nested too "
                         "deeply") from None
