"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from :class:`KgeError`, so callers
(notably the CLI) can map toolkit failures to a single exit code.
"""


class KgeError(Exception):
    """Base class for all toolkit errors."""


class MalformedLineError(KgeError):
    """A data file line does not match the expected grammar."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyDatasetError(KgeError):
    """An operation that needs at least one triple got none."""


class UnknownTermError(KgeError):
    """A term is absent from the vocabulary (dataset/vocabulary mismatch)."""

    def __init__(self, terms):
        terms = [terms] if isinstance(terms, str) else sorted(terms)
        super().__init__("unknown term(s): " + ", ".join(terms))
        self.terms = terms


class InvalidConfigError(KgeError):
    """A configuration value violates its invariant."""


class InvalidSpecError(KgeError):
    """A dataset-generation spec violates its invariant."""


class NonFiniteUpdateError(KgeError):
    """A parameter update or the loss produced NaN or Inf; training must abort."""

    def __init__(self, epoch: int | None = None, batch: int | None = None, quantity: str = "parameter update"):
        ctx = ""
        if epoch is not None:
            ctx = f" at epoch {epoch}" + (f", batch {batch}" if batch is not None else "")
        super().__init__(f"non-finite {quantity}{ctx}")
        self.epoch = epoch
        self.batch = batch


class IndexOverflowError(KgeError):
    """Triple ids cannot be packed into the index's int64 keys."""


class TrueAnswerNotCandidateError(KgeError):
    """The true answer of a ranking query is outside the candidate set."""


class FormatError(KgeError):
    """A model archive or vocabulary dump is corrupt or unsupported."""


class DimensionMismatchError(FormatError):
    """Archive payload size disagrees with its header/vocabulary."""
