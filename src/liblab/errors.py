"""Shared exception types."""


class LiblabError(Exception):
    """Base class for all package-specific errors."""


class NonXPolynomial(LiblabError):
    """Raised when a derivation is applied to a polynomial containing V letters."""


class SizeLimit(LiblabError):
    """Raised when a combinatorial enumeration would exceed its hard cap."""


class DegreeOverflow(LiblabError):
    """Raised when a word is too long for the partition-sum evaluators."""


class UnsupportedWord(LiblabError):
    """Raised when a word cannot be evaluated: a V-word that does not reduce
    to free increments, or a generator outside the initial law."""


class UnsupportedState(LiblabError):
    """Raised when an operation needs oracle moments a state cannot provide."""


class DomainError(LiblabError):
    """Raised for arguments outside a function's mathematical domain."""


class GridMiss(LiblabError):
    """Raised when a word time is not on the simulated trajectory grid."""


class IncompatibleN(LiblabError):
    """Raised when atomic weights cannot be realized exactly at dimension N."""


class ConfigError(LiblabError):
    """Raised for invalid experiment configuration."""


class ShardError(LiblabError):
    """Raised when a work item of ``rmt.map_shards`` fails; names the item.

    ``traceback`` is the text of the failing call's traceback, if any.
    """

    def __init__(self, message, traceback=None):
        super().__init__(message)
        self.traceback = traceback
