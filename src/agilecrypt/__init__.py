"""agilecrypt: crypto-agility library with desk-scale post-quantum-style
primitives and a TLS-1.2-subset stack.

Layers, bottom up:

- primitives: hash/HMAC/PRF, MAC-then-encrypt record protection, RNG contract
- hbs: hash-based one-time-chain + Merkle-tree signatures (stateful and
  stateless modes)
- cbkem: code-based key-encapsulation with deliberately large public keys
- keystore: password-protected on-disk store with crash-safe state reservation
- easyapi: security-level templates, versioned registry, and the two-call
  signer/encrypter facade
- minitls: TLS-1.2-subset handshake and record stack for cipher suite 0x1306
- mailenv: sign-then-encrypt mail envelope
- cli: command-line harness, including handshake-size measurement
"""

from __future__ import annotations

__version__ = "0.1.0"
