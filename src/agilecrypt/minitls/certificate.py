"""Custom canonical certificates carrying a KEM public key.

Not X.509: a certificate is five length-prefixed fields (the signed
portion) followed by the issuer's hash-based signature over exactly those
bytes.  The signature is kept as the bytes hbs_sign returned and is
written as they are; parse_certificate refuses one whose length is not
the signature size of the certificate's signature algorithm.  The KEM
public key is embedded whole, which is what makes the Certificate
handshake message the megabyte-scale payload for large parameter sets.

A certificate's bytes are built once per object and kept:
``Certificate.encoding`` on first use, and ``Certificate.records``, the
Certificate handshake message framed as the plaintext records a server
sends before ChangeCipherSpec, on first send.  Both are built from the
field parts of ``_signed_parts``; ``records`` joins the whole message
from them once, frames it, and keeps no encoding.  So a server sends
the same records on every connection without encoding or framing them
again, at the cost of one more copy of the certificate (about 1.3 MB at
HIGH), not two, and framing them peaks at about twice the wire in new
allocations.  The kept bytes are not fields: they take no part in
``==`` or ``hash``, and ``dataclasses.replace`` makes a new object that
encodes afresh.

A certificate is verified once per process: verify_certificate remembers
each certificate that passed, with its parsed KEM key, for the last
CERTIFICATE_MEMO (8) of them, keyed on (issuer root, issuer signature).
A later call still checks the root against its trusted set first, and is
served from the memo only when the certificate it gets equals the
remembered one in every field; anything else is checked in full.  A
refused certificate is never remembered, so it is checked again on
every call.  An entry holds the certificate and the parsed key, which
share the key bytes: about 1.3 MB at HIGH, and as much again for the
certificate's encoding once a received message has been compared with
it.

A client asks the memo before it parses a received Certificate message:
remembered_certificate compares the message body, still in the record
payloads it arrived in, with ``vec24(vec24(encoding))`` of each
remembered certificate, part by part with ``bytes.startswith`` (a
memcmp), and returns the certificate whose bytes it holds exactly.
Neither the message nor the key is copied then; verify_certificate
still checks the root of what it returns and serves its key from the
memo.  On a miss the client joins, parses and verifies the message as
it would without the memo.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

from ..cbkem import KemKeyPair, KemPublicKey, kem_keygen
from ..codec import Reader, decode_text, encode_text, uint, vec8, vec16, vec32
from ..easyapi import (
    SecurityLevel,
    TemplateKind,
    TemplateRegistry,
    family_params,
    frame_blob,
    kem_public_key,
    parse_blob,
    template_resolve,
)
from ..errors import AlgorithmMismatch, MalformedEncoding, ParameterError
from ..hbs import HbsKeyPair, hbs_keygen, hbs_sign, hbs_verify
from ..keystore import write_whole
from ..primitives import Rng
from .record import ClearRecords, frame_clear
from .wire import ContentType, HandshakeType, certificate_chain_header, encode_handshake_message


@dataclass(frozen=True)
class Certificate:
    subject: str
    kem_algorithm_id: str
    kem_public_key: bytes
    hbs_algorithm_id: str
    issuer_root: bytes
    issuer_signature: bytes

    @functools.cached_property
    def encoding(self) -> bytes:
        """The signed portion followed by the length-prefixed signature."""
        # Joined from the signed portion, not from its parts: a client
        # builds this on its first memo hit, and with the one-join form
        # each later connection of a tls-high-like client loop took about
        # 36 minor page faults on its echo buffers (glibc heap layout),
        # and the benchmark's ops_per_s read 1% lower.
        return b"".join([_signed_portion(self), vec32(self.issuer_signature)])

    @functools.cached_property
    def records(self) -> ClearRecords:
        """The Certificate handshake message of a chain of this one
        certificate, joined once from the encoding's parts and framed as
        plaintext handshake records."""
        parts = [*_signed_parts(self), vec32(self.issuer_signature)]
        chain_header = certificate_chain_header(sum(map(len, parts)))
        message = encode_handshake_message(HandshakeType.CERTIFICATE, chain_header, *parts)
        return frame_clear(ContentType.HANDSHAKE, message)


def _signed_parts(cert: Certificate) -> list[bytes]:
    """Every field but the signature, length-prefixed in field order: the
    parts of the bytes the issuer signs.  ``_signed_portion`` and
    ``Certificate.records`` each join them once, so each copies the
    megabyte-scale key once."""
    return [
        vec16(encode_text(cert.subject, "utf-8")),
        vec8(encode_text(cert.kem_algorithm_id, "ascii")),
        uint(len(cert.kem_public_key), 4),
        cert.kem_public_key,
        vec8(encode_text(cert.hbs_algorithm_id, "ascii")),
        vec8(cert.issuer_root),
    ]


def _signed_portion(cert: Certificate) -> bytes:
    """The bytes the issuer signs."""
    return b"".join(_signed_parts(cert))


def issue_certificate(
    issuer: HbsKeyPair, subject: str, kem_algorithm_id: str, kem_public_key: bytes, rng: Rng
) -> Certificate:
    """Sign a certificate with the issuer's hash-based key.  Stateful
    issuer keys consume one leaf per issued certificate."""
    unsigned = Certificate(
        subject, kem_algorithm_id, kem_public_key, issuer.params.algorithm_id, issuer.root, None
    )
    signature = hbs_sign(issuer, _signed_portion(unsigned), rng)
    return dataclasses.replace(unsigned, issuer_signature=signature)


def parse_certificate(data: bytes) -> Certificate:
    """The certificate ``data`` encodes; ``data`` may be a view, of which
    each field is copied once."""
    r = Reader(data)
    subject = decode_text(r.vec16(), "utf-8", r.offset)
    kem_algorithm_id = decode_text(r.vec8(), "ascii", r.offset)
    kem_public_key = bytes(r.vec32())
    hbs_algorithm_id = decode_text(r.vec8(), "ascii", r.offset)
    issuer_root = bytes(r.vec8())
    signature = bytes(r.vec32())
    r.expect_end()
    try:
        sig_params = family_params(TemplateKind.SIGNATURE, hbs_algorithm_id)
    except AlgorithmMismatch as exc:
        raise MalformedEncoding(f"certificate signature algorithm: {exc}") from exc
    expected = sig_params.signature_size
    if len(signature) != expected:
        raise MalformedEncoding(
            f"signature length {len(signature)}, expected {expected}",
            offset=len(data) - len(signature) + min(len(signature), expected),
        )
    return Certificate(
        subject, kem_algorithm_id, kem_public_key, hbs_algorithm_id, issuer_root, signature
    )


# (issuer root, issuer signature) -> (certificate, its parsed KEM key) for
# the last CERTIFICATE_MEMO certificates verify_certificate accepted,
# oldest first.  The pair shares the key bytes: about 10 MB for eight at HIGH.
CERTIFICATE_MEMO = 8
_verified: dict[tuple[bytes, bytes], tuple[Certificate, KemPublicKey]] = {}
_verified_lock = threading.Lock()


def verify_certificate(
    cert: Certificate, trusted_roots: tuple[bytes, ...]
) -> KemPublicKey | None:
    """Check that the issuer signature is valid under a trusted root and
    that the embedded KEM key parses for its declared algorithm.  Returns
    that parsed key, so a caller can encapsulate to it without parsing
    the (megabyte-scale) key again, or None when any check fails.  A
    certificate equal to one that passed before is not checked again
    (see the module docstring)."""
    if cert.issuer_root not in trusted_roots:
        return None
    memo_key = (cert.issuer_root, cert.issuer_signature)
    with _verified_lock:
        hit = _verified.get(memo_key)
    if hit is not None and hit[0] == cert:
        return hit[1]
    try:
        sig_params = family_params(TemplateKind.SIGNATURE, cert.hbs_algorithm_id)
        kem_pk = kem_public_key(cert.kem_algorithm_id, cert.kem_public_key)
    except (AlgorithmMismatch, MalformedEncoding):
        return None
    if not hbs_verify(cert.issuer_root, sig_params, _signed_portion(cert), cert.issuer_signature):
        return None
    with _verified_lock:
        _verified[memo_key] = (cert, kem_pk)
        if len(_verified) > CERTIFICATE_MEMO:
            del _verified[next(iter(_verified))]
    return kem_pk


def remembered_certificate(body: Sequence[bytes]) -> Certificate | None:
    """The remembered certificate whose Certificate message body, a chain
    of that one certificate, is ``body`` joined, or None; ``body`` is the
    message body as the parts it arrived in, which are compared in place
    and never joined (see the module docstring)."""
    with _verified_lock:
        remembered = [cert for cert, _ in _verified.values()]
    size = sum(map(len, body))
    for cert in reversed(remembered):
        encoding = cert.encoding
        if size == 6 + len(encoding) and _is_chain_of(body, encoding):
            return cert
    return None


def _is_chain_of(body: Sequence[bytes], encoding: bytes) -> bool:
    """Whether the parts of ``body``, of 6 + len(encoding) bytes in all,
    are vec24(vec24(encoding)): its 6 chain-length bytes, then each part
    equal to its slice of ``encoding``."""
    lengths = certificate_chain_header(len(encoding))
    offset = -len(lengths)  # where the next part starts in ``encoding``
    for part in body:
        if offset < 0:
            head = part[:-offset]
            if not lengths.startswith(head, len(lengths) + offset):
                return False
            part, offset = part[len(head) :], offset + len(head)
        if part and not encoding.startswith(part, offset):
            return False
        offset += len(part)
    return True


# The files of one TLS server directory: write_server_material writes them,
# load_server_material and tls-connect read them.
CA_ROOT_FILE = "ca.root"
SERVER_CERT_FILE = "server.cert"
SERVER_SEED_FILE = "server.seed"


def issue_server_material(
    registry: TemplateRegistry, level: SecurityLevel, subject: str, rng: Rng
) -> tuple[HbsKeyPair, KemKeyPair, Certificate]:
    """CA key, server KEM key, and a certificate binding them, all drawn
    from the registry's templates at the given level."""
    sig_ap = template_resolve(registry, TemplateKind.SIGNATURE, level)
    enc_ap = template_resolve(registry, TemplateKind.ENCRYPTION, level)
    issuer = hbs_keygen(sig_ap.params, rng)
    kem_kp = kem_keygen(enc_ap.params, rng)
    cert = issue_certificate(issuer, subject, enc_ap.algorithm_id, kem_kp.pk.encoding, rng)
    return issuer, kem_kp, cert


def write_server_material(
    directory: str, registry: TemplateRegistry, level: SecurityLevel, subject: str, rng: Rng
) -> None:
    """Issue server material and land it in ``directory``, made if missing,
    through keystore.write_whole: the CA root and the certificate (0666),
    then the KEM seed blob, private to its owner (0600), less the umask."""
    os.makedirs(directory, exist_ok=True)
    issuer, kem_kp, cert = issue_server_material(registry, level, subject, rng)
    seed_blob = frame_blob(cert.kem_algorithm_id, registry.version, kem_kp.seed)
    write_whole(os.path.join(directory, CA_ROOT_FILE), (issuer.root,), 0o666)
    write_whole(os.path.join(directory, SERVER_CERT_FILE), (cert.encoding,), 0o666)
    write_whole(os.path.join(directory, SERVER_SEED_FILE), (seed_blob,), 0o600)


def load_server_material(directory: str) -> tuple[Certificate, KemKeyPair]:
    """The certificate in SERVER_CERT_FILE of ``directory`` and the KEM key
    pair for its public key, from the seed blob in SERVER_SEED_FILE.  An id
    fault (a seed blob for another algorithm, or no KEM id) raises
    AlgorithmMismatch, a seed or key of the wrong length MalformedEncoding;
    then, so a damaged seed reports its fault, an open seed file ParameterError."""
    seed_path = os.path.join(directory, SERVER_SEED_FILE)
    with open(seed_path, "rb") as fh:
        seed_blob = fh.read()
        seed_mode = os.fstat(fh.fileno()).st_mode & 0o777
    with open(os.path.join(directory, SERVER_CERT_FILE), "rb") as fh:
        cert = parse_certificate(fh.read())
    kem_id, _, seed = parse_blob(seed_blob)
    if kem_id != cert.kem_algorithm_id:
        raise AlgorithmMismatch(
            f"server seed holds a {kem_id} key, the certificate a "
            f"{cert.kem_algorithm_id} key"
        )
    params = family_params(TemplateKind.ENCRYPTION, kem_id)
    if len(seed) != 32:
        raise MalformedEncoding(f"server seed holds {len(seed)} bytes, not 32")
    kem_kp = KemKeyPair.load(params, seed, cert.kem_public_key)
    if seed_mode & 0o077:
        raise ParameterError(
            f"server seed {seed_path} has mode {seed_mode:04o}, not private to its owner: "
            f"chmod 600 {seed_path}"
        )
    return cert, kem_kp
