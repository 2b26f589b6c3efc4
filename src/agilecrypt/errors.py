"""Exception hierarchy shared by all agilecrypt modules."""

from __future__ import annotations


class AgilecryptError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(AgilecryptError):
    """A caller-supplied argument violates an operation's precondition."""


class EntropyError(AgilecryptError):
    """The system entropy source failed; never silently degraded."""


class BadMac(AgilecryptError):
    """MAC verification failed on a sealed record."""


class BadPadding(AgilecryptError):
    """CBC padding check failed on a sealed record."""


class MalformedEncoding(AgilecryptError):
    """A canonical byte encoding could not be parsed.

    ``offset`` is the byte position at which parsing failed, when known,
    counted from the start of the decoder's input; a text field reports
    where it ends.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset

    def shifted(self, by: int) -> MalformedEncoding:
        """The same failure in an input whose byte ``by`` starts the one that failed."""
        return MalformedEncoding(self.message, None if self.offset is None else by + self.offset)


class KeyExhausted(AgilecryptError):
    """A stateful signature key has no unused leaves left."""


class InvalidCiphertext(AgilecryptError):
    """A KEM ciphertext is structurally invalid for the given key."""


class BadSignature(AgilecryptError):
    """An envelope's embedded signature failed verification."""


class AlgorithmMismatch(AgilecryptError):
    """Key material does not match the algorithm named by the artifact using it."""


class ConnectionClosed(AgilecryptError):
    """The byte stream ended while more data was required."""


class KeystoreError(AgilecryptError):
    """Base class for keystore failures."""


class BadPassword(KeystoreError):
    """Store authentication failed; the password is wrong or the file was tampered."""


class MalformedStore(KeystoreError):
    """The store file does not follow the documented format."""


class KeystoreIoError(KeystoreError):
    """Filesystem failure while reading or writing a store."""


class StoreExists(KeystoreIoError):
    """keystore_create found a non-empty store already at its path."""


class StoreLocked(KeystoreError):
    """Another writer holds the store's advisory lock."""


class DuplicateAlias(KeystoreError):
    """put_entry was called with an alias that already exists."""


class UnknownAlias(KeystoreError):
    """No entry with the requested alias exists."""
