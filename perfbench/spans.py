"""Span recording around the calls into each agilecrypt module.

The tracer replaces, pass-through only, every binding of a traced public
function: the module attribute, the names other agilecrypt modules bound
with ``from ... import``, and the provider shims (``HbsBackend`` and
``KemBackend`` hold the functions as static methods).  Each call records
one span: name, layer, start, end, parent span, request id and, where it
applies, the amount handled (bytes, or blocks for a KEM key).  Spans
stay in memory until the run writes them out; ``uninstall`` puts every
original binding back.  Code outside the package reaches the wrappers
through module attributes (``mailenv.envelope_seal``), not through names
it imported itself.

Layers are the package's modules: primitives, hbs, cbkem, keystore,
easyapi, minitls, mailenv and cli.  The benchmark opens its own spans in
the ``bench`` layer around set-up and each operation.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
import types

LAYERS = ("primitives", "hbs", "cbkem", "keystore", "easyapi", "minitls", "mailenv", "cli")


class Span:
    __slots__ = ("id", "parent", "request", "layer", "name", "start", "end", "amount", "children", "draws")

    def __init__(self, span_id, parent, request, layer, name):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.layer = layer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.amount = None
        self.children = []
        self.draws = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "request": self.request,
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "amount": self.amount,
            "draws": self.draws,
        }


def _arg_len(index):
    return lambda args, result: len(args[index])


def _result_len(args, result):
    return len(result)


def _store_size(args, result):
    return os.path.getsize(args[0].params.path)


def _kem_blocks(args, result):
    return args[1].b


def _sign_name(args):
    # A key opened from its stored root builds its Merkle tree on the
    # first signature; that call is reported apart from warm signatures.
    return "first_sign" if args[0]._levels is None else "sign"


def _targets():
    """(layer, span name or naming function, function, byte counter)."""
    from agilecrypt import cbkem, easyapi, hbs, keystore, mailenv, primitives
    from agilecrypt.minitls import certificate, handshake, record, transcript

    return [
        ("primitives", "seal_record", primitives.seal_record, _arg_len(3)),
        ("primitives", "open_record", primitives.open_record, _result_len),
        ("hbs", "keygen", hbs.hbs_keygen, None),
        ("hbs", _sign_name, hbs.hbs_sign_with_leaf, None),
        ("hbs", "verify", hbs.hbs_verify, None),
        ("cbkem", "keygen", cbkem.kem_keygen, None),
        ("cbkem", "from_seed", vars(cbkem.KemKeyPair)["from_seed"].__func__, _kem_blocks),
        ("cbkem", "parse_pk", cbkem.kem_parse_pk, None),
        ("cbkem", "encap", cbkem.kem_encap, None),
        ("cbkem", "decap", cbkem.kem_decap, None),
        ("keystore", "create", keystore.keystore_create, None),
        ("keystore", "open", keystore.keystore_open, None),
        ("keystore", "write", keystore.Keystore._persist, _store_size),
        ("easyapi", "signer_new", vars(easyapi.EasySigner)["with_new_key"].__func__, None),
        ("easyapi", "signer_open", vars(easyapi.EasySigner)["open"].__func__, None),
        ("easyapi", "sign", easyapi.EasySigner.sign, None),
        ("easyapi", "verify", easyapi.easysigner_verify, None),
        ("easyapi", "encrypter_new", vars(easyapi.EasyEncrypter)["with_new_key"].__func__, None),
        ("easyapi", "encrypter_open", vars(easyapi.EasyEncrypter)["open"].__func__, None),
        ("easyapi", "encrypt", easyapi.EasyEncrypter.encrypt, None),
        ("easyapi", "decrypt", easyapi.EasyEncrypter.decrypt, None),
        ("minitls", "client_handshake", handshake.client_handshake, None),
        ("minitls", "server_handshake", handshake.server_handshake, None),
        ("minitls", "issue_certificate", certificate.issue_certificate, None),
        ("minitls", "parse_certificate", certificate.parse_certificate, None),
        ("minitls", "verify_certificate", certificate.verify_certificate, None),
        ("minitls", "transcript_hash", transcript.HandshakeTranscript.transcript_hash, None),
        ("minitls", "record_send", record.RecordLayer.send, None),
        ("minitls", "record_recv", record.RecordLayer.recv, None),
        ("minitls", "session_send", handshake.TlsSession.send, _arg_len(1)),
        ("minitls", "session_recv", handshake.TlsSession.recv, _result_len),
        ("mailenv", "envelope_seal", mailenv.envelope_seal, None),
        ("mailenv", "envelope_open", mailenv.envelope_open, None),
    ]


def _bindings(original):
    """Every (owner, attribute, rebinder) in agilecrypt that holds
    ``original``, whether as a module global, a plain method, a static
    method, a class method, or a static method around a bound class
    method."""
    seen = set()
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "agilecrypt" or name.startswith("agilecrypt."))
    ]
    owners = []
    for mod in modules:
        owners.append(mod)
        owners.extend(
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("agilecrypt")
        )
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            key = (id(owner), attr)
            if key in seen:
                continue
            rebind = None
            if value is original:
                rebind = lambda w: w
            elif isinstance(value, staticmethod):
                inner = value.__func__
                if inner is original:
                    rebind = staticmethod
                elif isinstance(inner, types.MethodType) and inner.__func__ is original:
                    bound_to = inner.__self__
                    rebind = lambda w, c=bound_to: staticmethod(types.MethodType(w, c))
            elif isinstance(value, classmethod) and value.__func__ is original:
                rebind = classmethod
            if rebind is not None:
                seen.add(key)
                yield owner, attr, value, rebind


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent, getattr(self._local, "request", None), layer, name)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        span = self._open(layer, name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def request(self, request_id):
        """Tag every span this thread opens with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, layer, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span.amount = size(args, result)
                return result
            finally:
                tracer._close(span)

        return traced

    def _count_draws(self, fn):
        """Count permutation draws on the innermost open span; the KEM
        draws one per attempted block, rejected or kept."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                stack[-1].draws += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._patches:
            return
        from agilecrypt import primitives

        for layer, name, fn, size in _targets():
            wrapper = self._wrap(layer, name, fn, size)
            for owner, attr, value, rebind in _bindings(fn):
                self._patches.append((owner, attr, value))
                setattr(owner, attr, rebind(wrapper))
        shuffled = primitives.Rng.shuffled
        self._patches.append((primitives.Rng, "shuffled", shuffled))
        primitives.Rng.shuffled = self._count_draws(shuffled)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was_installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if was_installed:
                self.install()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")
