"""Leaf safety of a stateful EasySigner and its Keystore, checked by one state machine.

The model is the set of released leaves, the last committed image (each
alias with its counters) and the format version on disk.  From
EasySigner's window policy it works out which call writes and what each
write leaves on disk; docs/formats.md § Keystore file lists the
invariants.  FIXED_SCHEDULES replays, as lists of the same rule calls,
scenarios a bounded random run may miss.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from agilecrypt import keystore
from agilecrypt.easyapi import AlgorithmParameters, EasySigner, easysigner_verify, parse_blob
from agilecrypt.errors import KeyExhausted, KeystoreIoError, ParameterError, StoreLocked
from agilecrypt.hbs import HbsMode, HbsParams
from agilecrypt.keystore import CRASH_POINTS, KeystoreEntry, KeystoreParameters, keystore_open
from agilecrypt.primitives import DeterministicRng
from store_images import store_image

# 64 leaves and a window cap of 4: a full window and exhaustion are a few
# steps away.
SMALL = HbsParams(16, 16, 6, HbsMode.STATEFUL)


class SimulatedCrash(Exception):
    pass


# A failed write meets a directory at `<path>.tmp`, or one of these steps
# of the store, patched.
PATCHED = {
    "write-stalls": (os, "write", {"return_value": 0}),
    "rename-fails": (os, "replace", {"side_effect": OSError}),
    "dir-fsync-fails": (keystore, "_fsync_dir", {"side_effect": OSError}),
}
RAISES = dict.fromkeys(CRASH_POINTS, SimulatedCrash)
RAISES.update(dict.fromkeys(("tmp-dir", *PATCHED), KeystoreIoError))
# A write lands on disk unless its fault strikes before the rename.
LANDS = (None, "renamed", "dir-fsync-fails")
# What a failed write says where the fault decides it: a write whose
# directory fsync fails has landed, and a retry would repeat it.
SAYS = {
    "rename-fails": "cannot replace",
    "dir-fsync-fails": "the new table is in place at",
}


def _image(store) -> dict:
    """Each alias of an open store with its (next_leaf, reserved_until)."""
    states = {alias: store.get_entry(alias).state for alias in store.aliases()}
    return {a: None if s is None else (s.next_leaf, s.reserved_until) for a, s in states.items()}


with_handle = precondition(lambda self: self.signer is not None)


class LeafSafety(RuleBasedStateMachine):
    def __init__(self, params: HbsParams = SMALL):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory(prefix="leaf-safety-")
        # One PBKDF2 iteration: the machine reads the store at every step.
        self.ksp = KeystoreParameters(os.path.join(self.tmp.name, "store.agks"), "pw", iterations=1)
        self.ap = AlgorithmParameters(params.algorithm_id, params, registry_version=1)
        self.leaves = params.leaf_count
        self.cap = max(1, min(64, self.leaves // 16))
        self.rng = DeterministicRng(b"leaf safety")
        self.released, self.committed, self.version = set(), {}, keystore.FORMAT_VERSION
        self.signer = self.closed = self.crash_at = None
        self.writes = self.racers = 0

    def _hook(self, point: str) -> None:
        self.writes += point == "renamed"
        if point == self.crash_at:
            raise SimulatedCrash(point)

    def _opened(self, signer: EasySigner) -> None:
        self.signer, signer.store.crash_hook = signer, self._hook
        # The handle's next leaf, its window, and the mark its signatures raised.
        self.cursor = self.window_end = self.window = 0
        self.mark, self.signed = self.committed[self.alias][0], False
        self.copy = signer.store.get_entry(self.alias)

    def _ended(self) -> None:
        self.closed, self.signer = self.signer, None

    def _next_image(self, changes: dict) -> dict:
        """The committed image with the handle's pending mark, and `changes`."""
        counters = (self.mark, self.committed[self.alias][1])
        return {**self.committed, self.alias: counters, **changes}

    def _disk(self) -> dict:
        with keystore_open(self.ksp, read_only=True) as reader:
            return _image(reader)

    @contextlib.contextmanager
    def _fault(self, fault: str | None):
        tmp = self.ksp.path + ".tmp"
        with contextlib.ExitStack() as stack:
            self.crash_at = fault  # only a CRASH_POINTS entry meets the hook
            stack.callback(setattr, self, "crash_at", None)
            if fault == "tmp-dir":
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)  # left by an earlier failed write of this handle
                os.mkdir(tmp)
                stack.callback(os.rmdir, tmp)
            elif fault in PATCHED:
                module, name, how = PATCHED[fault]
                stack.enter_context(mock.patch.object(module, name, **how))
            yield

    def _run(self, call, after: dict | None, fault: str | None = None, refused=None):
        """Run call under fault; return its result or the error it raised.
        `after` is the image call's one write leaves, None if call must not
        write; a call that does not write raises `refused` (None: nothing)."""
        self.writes = 0
        try:
            with self._fault(fault):
                result = call()
        except Exception as exc:  # compared with the expected type below
            result = exc
        raised = type(result) if isinstance(result, Exception) else None
        assert raised is (refused if after is None else RAISES.get(fault)), result
        if after is not None and fault in SAYS:
            assert SAYS[fault] in str(result), result
        if after is not None and fault in LANDS:
            self.committed, self.version = after, keystore.FORMAT_VERSION
        assert self.writes == (after is not None and fault in (None, "renamed"))
        assert self._disk() == self.committed
        return result

    def _sign_one(self, fault: str | None = None) -> None:
        refill, start = self.cursor == self.window_end, self.committed[self.alias][1]
        after = None
        if refill:  # 1 leaf, doubling up to the cap, clamped to the leaves left
            self.window = min(self.cap, max(1, 2 * self.window))
            size = min(self.window, self.leaves - start)
            after = self._next_image({self.alias: (self.mark, start + size)}) if size else None
        msg = b"leaf %d" % len(self.released)
        # Only once every leaf is reserved does a refill raise KeyExhausted.
        exhausted = KeyExhausted if refill and after is None else None
        result = self._run(lambda: self.signer.sign(msg), after, fault, exhausted)
        if isinstance(result, Exception):  # exhausted, or a refill its fault stopped
            return
        if refill:
            self.cursor, self.window_end = start, start + size
        leaf = int.from_bytes(parse_blob(result)[2][:4], "big")
        assert leaf == self.cursor and leaf not in self.released, leaf
        assert easysigner_verify(self.public, msg, result)
        self.released.add(leaf)
        self.cursor = self.mark = leaf + 1
        self.signed = True

    # Each op below makes one write of the handle, under a fault.
    def _refill(self, fault: str | None) -> None:
        while self.cursor < self.window_end:
            self._sign_one()
        self._sign_one(fault)

    def _close(self, fault: str | None = None) -> None:
        # A handle that signed writes its consumption mark once.
        self._run(self.signer.close, self._next_image({}) if self.signed else None, fault)

    def _put(self, fault: str | None = None) -> None:
        # The image only grows, so its size names a fresh alias.
        alias = f"other-{len(self.committed)}"
        entry = KeystoreEntry(alias, "CME-TOY-10-8", b"\x03", b"\x04", None)
        put = self.signer.store.put_entry
        self._run(lambda: put(entry), self._next_image({entry.alias: None}), fault)

    def _update(self, fault: str | None = None) -> None:
        # The copy read at open is stale once the handle reserved leaves.
        entry, held = self.copy, self._next_image({})[self.alias]
        counters = (entry.state.next_leaf, entry.state.reserved_until)
        lowers = counters[0] < held[0] or counters[1] < held[1]
        after = None if lowers else self._next_image({self.alias: counters})
        update = self.signer.store.update_entry
        self._run(lambda: update(entry), after, fault, ParameterError if lowers else None)

    @initialize()
    def new_key(self):
        signer = EasySigner.with_new_key(self.ap, self.ksp, rng=self.rng)
        self.alias, self.public = signer.alias, signer.public_blob
        self.committed = {self.alias: (0, 0)}
        self._opened(signer)

    @precondition(lambda self: self.signer is None)
    @rule()
    def reopen(self):
        with pytest.raises(KeystoreIoError, match="closed"):  # the ended handle
            self.closed.sign(b"late")
        signer = EasySigner.open(self.ksp, self.alias, registry_version=1, rng=self.rng)
        assert signer.public_blob == self.public
        # A writer's open removes what a crash left of its temporary write.
        assert not os.path.exists(self.ksp.path + ".tmp")
        self._opened(signer)

    @with_handle
    @rule(k=st.integers(1, 16))
    def sign(self, k):
        for _ in range(k):
            self._sign_one()

    @with_handle
    @rule(
        op=st.sampled_from(["refill", "close", "put", "update"]),
        fault=st.none() | st.sampled_from(list(RAISES)),
    )
    def write(self, op, fault):
        """One write of the handle: unfaulted, failed, or killed at a CRASH_POINTS step."""
        handle = self.signer
        getattr(self, f"_{op}")(fault)
        if op == "close" or fault in CRASH_POINTS:
            handle.store.abandon()
            self._ended()

    @precondition(lambda self: self.signer is None)
    @rule()
    def as_version_1(self):
        """Rewrite the committed image as a version 1 writer would have; a
        handle's next write migrates it."""
        with keystore_open(self.ksp, read_only=True) as reader:
            table = keystore._encode_table({a: reader.get_entry(a) for a in reader.aliases()})
        with open(self.ksp.path, "rb") as fh:
            salt = fh.read(22)[6:]
        image = store_image(self.ksp.password, salt, self.ksp.iterations, table, version=1)
        with open(self.ksp.path, "wb") as fh:
            fh.write(image)
        self.version = 1

    @with_handle
    @rule()
    def abandon(self):
        self.signer.store.abandon()
        self._ended()

    @with_handle
    @rule()
    def another_opener(self):
        """A reader refuses writes; a second writer meets the handle's lock
        (which reopen finds free once the handle is gone)."""
        with keystore_open(self.ksp, read_only=True) as reader:
            with pytest.raises(KeystoreIoError, match="read-only"):
                reader.reserve_leaves(self.alias, 1)
        with pytest.raises(StoreLocked):
            keystore_open(self.ksp)

    @precondition(lambda self: self.racers < 2)  # each race generates a key
    @rule()
    def racing_new_key(self):
        """with_new_key joins the store (create raises StoreExists) or meets the lock."""
        self.racers += 1
        rng = DeterministicRng(b"racer %d" % self.racers)
        if self.signer is not None:
            with pytest.raises(StoreLocked):
                EasySigner.with_new_key(self.ap, self.ksp, rng=rng)
            return
        with EasySigner.with_new_key(self.ap, self.ksp, rng=rng) as racer:
            self.committed = {**self.committed, racer.alias: (0, 0)}
        self.version = keystore.FORMAT_VERSION

    @with_handle
    @rule()
    def mark_past_reservation(self):
        with pytest.raises(ParameterError):
            self.signer.store.note_consumed(self.alias, self.committed[self.alias][1] + 1)

    @invariant()
    def model_holds(self):
        made = max(self.released, default=-1) + 1
        next_leaf, reserved = self.committed[self.alias]
        assert next_leaf <= made <= reserved <= self.leaves
        assert self._disk() == self.committed
        with open(self.ksp.path, "rb") as fh:
            assert fh.read(6)[4:] == self.version.to_bytes(2, "big")
        if self.signer is not None:
            assert _image(self.signer.store) == self._next_image({})

    def teardown(self):
        if self.signer is not None:
            self.signer.store.abandon()
        self.tmp.cleanup()


TestRandomSchedules = LeafSafety.TestCase
TestRandomSchedules.settings = settings(max_examples=40, stateful_step_count=50)


CLOSE = ("write", "close", None)
FIXED_SCHEDULES = {
    # Windows of 1, 2 and 4 leaves are used up; the store dies during the
    # next refill, at each point in turn.
    "crash-at-each-point-during-a-refill": (SMALL, [
        ("sign", 3), CLOSE,
        *[step for point in CRASH_POINTS
          for step in (("reopen",), ("sign", 7), ("write", "refill", point))],
        ("reopen",), ("sign", 5),
    ]),
    # A version 1 store migrates on its next write; a crash at each point
    # of that write leaves the version 1 image or the version 2 one.
    "migrate-with-a-crash-at-each-point": (SMALL, [
        ("sign", 3), CLOSE,
        *[step for point in CRASH_POINTS
          for step in (("as_version_1",), ("reopen",), ("write", "refill", point))],
        ("as_version_1",), ("reopen",), ("sign", 5), CLOSE,
    ]),
    # The LOW and MEDIUM signature templates of registry v1; MEDIUM's
    # windows reach the cap of 64 leaves.
    "low-exhausts-at-257": (HbsParams(16, 16, 8, HbsMode.STATEFUL), [("sign", 257)]),
    "medium-writes-once-per-window": (HbsParams(16, 16, 10, HbsMode.STATEFUL), [("sign", 200)]),
    "one-shot-signers-waste-no-leaves": (SMALL, [CLOSE] + [("reopen",), ("sign", 1), CLOSE] * 20),
}


@pytest.mark.parametrize("params, steps", FIXED_SCHEDULES.values(), ids=list(FIXED_SCHEDULES))
def test_fixed_schedule(params, steps):
    machine = LeafSafety(params)
    try:
        for rule_name, *args in [("new_key",), *steps]:
            getattr(machine, rule_name)(*args)
            machine.model_holds()
    finally:
        machine.teardown()
