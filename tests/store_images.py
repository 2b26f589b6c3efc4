"""Keystore files built by hand, as an older writer or a forger would
write them: no writer in agilecrypt produces a version 1 image, or a
table sealed under a sequence its header does not hold."""

from __future__ import annotations

import pathlib

from agilecrypt import keystore
from agilecrypt.codec import uint
from agilecrypt.primitives import seal_record

# The LOW store of test_byte_pinning's keystore case as its version 1 writer
# left it: password "pin", one iteration, entries "enc-pinned" and
# "sig-pinned-é" (next_leaf 3, reserved_until 7).
V1_IMAGE = pathlib.Path(__file__).resolve().parent / "data" / "keystore-v1.agks"
V1_IMAGE_SHA256 = "2a03dbb077a851ef026d3ae17e18a68e1c372c73038bf9110c68a0c2c4eb1a11"


def store_image(
    password: str,
    salt: bytes,
    iterations: int,
    table: bytes,
    version: int = keystore.FORMAT_VERSION,
    generation: int = 1,
    sequence: int | None = None,
) -> bytes:
    """A store file holding the encoded entry ``table``.  Version 1 has no
    generation and seals with sequence 0; version 2 seals with its
    generation, unless ``sequence`` names another."""
    header = keystore.MAGIC + uint(version, 2) + salt + uint(iterations, 4)
    if version != 1:
        header += uint(generation, 8)
    if sequence is None:
        sequence = 0 if version == 1 else generation
    keys, _ = keystore._derive_keys(password, salt, iterations, version)
    return header + seal_record(keys, sequence, header, table)
