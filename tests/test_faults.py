"""Faults injected into live runs: each must end the run quickly with a
RoundAborted, ProtocolViolation or KeyMismatch that names the client, and
leave no child process or thread behind."""

import dataclasses
import math
import multiprocessing
import re
import struct
import threading
import time

import pytest

from fedboost import paillier, runner
from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.errors import KeyMismatch, ProtocolViolation, RoundAborted
from fedboost.protocol import (
    ClientSession,
    InThreadCohort,
    MessageKind,
    decode_message,
    encode_message,
    server_run,
)

from test_protocol import client_split, cohort_key, make_settings

TIMEOUT_S = 20.0


def _last_started_child() -> multiprocessing.Process:
    """The newest live child: processes are named '<Type>Process-N', N counting
    this process's children in start order."""
    return max(multiprocessing.active_children(), key=lambda p: int(p.name.rsplit("-", 1)[1]))


G, F, M = MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT, MessageKind.MERGED_GRADIENT
T, E = MessageKind.TRAIN_RESULT, MessageKind.EVAL_RESULT
# the server's exchanges with client 2 in a clean 2-round fedboosting run, in
# order, as (direction, kind, round): a send, a recv, or the closing read (None)
CLIENT_2_EXCHANGES = [
    *(x for r in (1, 2) for x in [("send", G, r), ("recv", T, r), ("send", F, r), ("recv", E, r)]),
    ("send", M, 2),
    ("recv", None, 2),
]
# where a server that found client 2 dead was: "sending KIND to" or "waiting for KIND|end of run from"
_FOUND_AT = re.compile(r"^(sending|waiting for) (\w+|end of run) (?:to|from) client 2 in round (\d): ")


def _latest_find(index: int) -> int:
    """The last of CLIENT_2_EXCHANGES at which the server can find client 2
    dead when it was killed just before exchange ``index``: the first recv
    after the first frame sent at or after the kill, whose reply the dead
    client cannot have sent; with no such frame, the closing read."""
    directions = [direction for direction, _, _ in CLIENT_2_EXCHANGES]
    if "send" not in directions[index:]:
        return len(directions) - 1
    return directions.index("recv", directions.index("send", index))


class KillingEndpoint:
    """The server's TCP endpoint to client 2, which SIGKILLs the client's
    process, and reaps it, just before exchange ``index`` of
    CLIENT_2_EXCHANGES."""

    def __init__(self, inner, victim: multiprocessing.Process, index: int):
        self.inner = inner
        self.victim = victim
        self.index = index
        self.exchanges = 0
        self.killed_at = None

    def _next(self) -> None:
        if self.exchanges == self.index:
            self.victim.kill()
            self.victim.join()
            self.killed_at = time.monotonic()
        self.exchanges += 1

    def send(self, kind: int, body: bytes) -> None:
        self._next()
        self.inner.send(kind, body)

    def recv(self, timeout: float) -> tuple[int, bytes]:
        self._next()
        return self.inner.recv(timeout)


@pytest.mark.parametrize("index", range(len(CLIENT_2_EXCHANGES)))
@pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
def test_tcp_client_killed_before_an_exchange(monkeypatch, encryption, index):
    """Client 2 dies by SIGKILL just before the server's exchange ``index``
    with it, after both clients have connected: the run ends naming its exit
    code, and where the server was at a frame when it found the death, that
    frame's kind and round: at or after the kill, and no later than the
    first reply the dead client cannot have sent."""
    cfg = ExperimentConfig(
        clients=two_client_noniid(200, master_seed=4),
        rounds=2,
        master_seed=4,
        encryption=encryption,
        transport="tcp",
        timeout_s=TIMEOUT_S,
    )
    client_run = runner.client_run

    def lingering(session, endpoint):
        client_run(session, endpoint)
        if session.client_id == 2:
            # alive, with its channel open, until the kill: a forked client
            # runs the client_run patched here
            time.sleep(TIMEOUT_S)

    serve = runner.server_run
    wrapped = []

    def kill_client_2_then_serve(settings, endpoints, transcript=None):
        # both clients have connected; client 2 was started last
        wrapped.append(KillingEndpoint(endpoints[2], _last_started_child(), index))
        return serve(settings, {**endpoints, 2: wrapped[0]}, transcript)

    monkeypatch.setattr(runner, "client_run", lingering)
    monkeypatch.setattr(runner, "server_run", kill_client_2_then_serve)
    threads = threading.active_count()
    with pytest.raises(RoundAborted) as aborted:
        runner.run_experiment(cfg)
    assert time.monotonic() - wrapped[0].killed_at < TIMEOUT_S / 4
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    message = str(aborted.value)
    assert message.endswith("client 2 exited with code -9")
    if message == "client 2 exited with code -9":
        # the server read every frame client 2 sends and its channel's close:
        # it found the death only after its closing read
        found_at = len(CLIENT_2_EXCHANGES) - 1
    else:
        found = _FOUND_AT.match(message)
        assert found, message
        direction, kind, round_no = found.groups()
        kind = None if kind == "end of run" else MessageKind[kind]
        exchange = ("send" if direction == "sending" else "recv", kind, int(round_no))
        found_at = CLIENT_2_EXCHANGES.index(exchange)
    assert index <= found_at <= _latest_find(index), message


class CorruptingEndpoint:
    """The server's endpoint to one loopback client; it rewrites the frame of
    ``kind`` and round ``round_no`` that passes it, either way, to the body
    ``corrupt(message, path, settings)`` gives."""

    def __init__(self, inner, settings, kind, round_no, path, corrupt):
        self.inner = inner
        self.settings = settings
        self.target = (kind, round_no)
        self.path = path
        self.corrupt = corrupt

    def _rewrite(self, kind: int, body: bytes) -> tuple[int, bytes]:
        msg = decode_message(kind, body, self.settings)
        if (msg.kind, msg.round) != self.target:
            return kind, body
        return kind, self.corrupt(msg, self.path, self.settings)

    def send(self, kind: int, body: bytes) -> None:
        self.inner.send(*self._rewrite(kind, body))

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        return self._rewrite(*self.inner.recv(timeout))


def _edited(value, path: tuple, edit):
    """A copy of ``value`` with ``edit`` applied to what ``path`` names in it."""
    if not path:
        return edit(value)
    head, *rest = path
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[head] = _edited(value[head], rest, edit)
    return copy


def _value(edit):
    """A corruption of the payload value at the endpoint's path: ``edit`` of it."""
    return lambda msg, path, settings: encode_message(
        dataclasses.replace(msg, payload=_edited(msg.payload, path, edit)), settings
    )[1]


def _body(edit):
    """A corruption of the whole encoded body: ``edit`` of its bytes."""
    return lambda msg, _path, settings: edit(encode_message(msg, settings)[1])


# the same in every frame: a body of another length than its kind's
FRAME_CORRUPTIONS = {
    "short_body": _body(lambda body: body[:-1]),
    "long_body": _body(lambda body: body + b"\0"),
    "empty_body": _body(lambda body: b""),
}
FRAME_CAUSES = {
    "short_body": r"{kind} body has \d+ bytes, expected \d+",
    "long_body": r"{kind} body has \d+ bytes, expected \d+",
    "empty_body": r"{kind} body has 0 bytes, expected \d+",
}


def _run_faulty(settings, cid, wrap, error, cause) -> None:
    """A 2-round loopback run whose server endpoint to client ``cid`` is
    ``wrap(endpoint)``: it must raise ``error`` matching ``cause`` within
    TIMEOUT_S / 4, leave no thread, and end every session."""
    keypair = cohort_key(settings)
    sessions = [ClientSession(settings, c, client_split(c), keypair) for c in (1, 2)]
    # a copy: the cohort trains the sessions its own endpoints hold
    endpoints = dict(InThreadCohort(sessions).endpoints)
    endpoints[cid] = wrap(endpoints[cid])
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(error, match=cause):
        server_run(settings, endpoints)
    assert time.monotonic() - start < TIMEOUT_S / 4
    assert threading.active_count() == threads
    # the server's ABORT reached every client
    assert all(session.done for session in sessions)


def _run_corrupted(settings, cid, kind, path, corrupt, error, cause) -> None:
    """A 2-round loopback run whose frame of ``kind`` in round 2 to or from
    client ``cid`` is corrupted, as ``_run_faulty`` checks it."""

    def wrap(endpoint):
        return CorruptingEndpoint(endpoint, settings, kind, 2, path, corrupt)

    _run_faulty(settings, cid, wrap, error, cause)


CORRUPTIONS = {
    "nan_bits": _value(lambda raw: struct.pack(">d", math.nan) + raw[8:]),
    "infinity_bits": _value(lambda raw: raw[:-8] + struct.pack(">d", -math.inf)),
    **FRAME_CORRUPTIONS,
}
CAUSES = {
    "nan_bits": "payload field '{name}' has non-finite entries",
    "infinity_bits": "payload field '{name}' has non-finite entries",
    **FRAME_CAUSES,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize(
    "kind, cid, name",
    [
        (MessageKind.TRAIN_RESULT, 2, "train_loss"),
        (MessageKind.EVAL_RESULT, 2, "values"),
        (MessageKind.FINAL_MODEL, 1, "weights"),
    ],
    ids=lambda v: v.name if isinstance(v, MessageKind) else str(v),
)
@pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
def test_corrupt_float_vector_on_loopback(encryption, kind, cid, name, corruption):
    settings = make_settings(encryption=encryption, rounds=2, timeout_s=TIMEOUT_S)
    cause = CAUSES[corruption].format(name=name, kind=kind.name)
    pattern = rf"^client {cid}: {cause}.* \({kind.name}, round 2\)$"
    _run_corrupted(settings, cid, kind, (name,), CORRUPTIONS[corruption], ProtocolViolation, pattern)


# the cohort key of make_settings at 128 bits: one ciphertext of 32 bytes per entry
N_SQUARED = cohort_key(make_settings(encryption="he")).public.n_squared
WIDTH = 32


def _ciphertexts(edit):
    """A corruption of an encrypted gradient: ``edit`` of its blob."""
    return _value(lambda gradient: {**gradient, "ciphertexts": edit(gradient["ciphertexts"])})


BLOB_CORRUPTIONS = {
    "one_ciphertext_short": _ciphertexts(lambda raw: raw[:-WIDTH]),
    "ciphertext_of_zero": _ciphertexts(lambda raw: bytes(WIDTH) + raw[WIDTH:]),
    "ciphertext_of_n_squared": _ciphertexts(lambda raw: N_SQUARED.to_bytes(WIDTH, "big") + raw[WIDTH:]),
    "wrong_key": _value(lambda gradient: {**gradient, "key": paillier.keygen(128, seed=1).public.fingerprint}),
    **FRAME_CORRUPTIONS,
}
OUT_OF_RANGE = "ProtocolViolation: malformed encrypted gradient: ciphertext value out of range"
BLOB_CAUSES = {
    "one_ciphertext_short": r"ProtocolViolation: {kind} body has \d+ bytes, expected \d+",
    "ciphertext_of_zero": OUT_OF_RANGE,
    "ciphertext_of_n_squared": OUT_OF_RANGE,
    "wrong_key": "KeyMismatch: gradient is encrypted under a different key",
    **{name: f"ProtocolViolation: {cause}" for name, cause in FRAME_CAUSES.items()},
}


@pytest.mark.parametrize("corruption", sorted(BLOB_CORRUPTIONS))
@pytest.mark.parametrize("encryption", ["he", "he_dp"])
def test_corrupt_ciphertext_blob_from_a_client(encryption, corruption):
    settings = make_settings(encryption=encryption, rounds=2, timeout_s=TIMEOUT_S)
    error_name, cause = BLOB_CAUSES[corruption].format(kind="TRAIN_RESULT").split(": ", 1)
    error = KeyMismatch if error_name == "KeyMismatch" else ProtocolViolation
    pattern = rf"^client 2: {cause}.* \(TRAIN_RESULT, round 2\)$"
    corrupt = BLOB_CORRUPTIONS[corruption]
    _run_corrupted(settings, 2, MessageKind.TRAIN_RESULT, ("gradient",), corrupt, error, pattern)


@pytest.mark.parametrize("corruption", sorted(BLOB_CORRUPTIONS))
@pytest.mark.parametrize(
    "kind, cid, path, awaited",
    [
        (MessageKind.GLOBAL_GRADIENT, 2, ("gradient",), "TRAIN_RESULT"),
        (MessageKind.FUSED_GRADIENT, 2, ("models", 0), "EVAL_RESULT"),
        (MessageKind.MERGED_GRADIENT, 1, ("gradient",), "FINAL_MODEL"),
        # client 2 only checks the final gradient, and ends by closing its channel
        (MessageKind.MERGED_GRADIENT, 2, ("gradient",), "end of run"),
    ],
    ids=lambda v: v.name if isinstance(v, MessageKind) else str(v),
)
@pytest.mark.parametrize("encryption", ["he", "he_dp"])
def test_corrupt_ciphertext_blob_to_a_client(encryption, kind, cid, path, awaited, corruption):
    settings = make_settings(encryption=encryption, rounds=2, timeout_s=TIMEOUT_S)
    cause = BLOB_CAUSES[corruption].format(kind=kind.name)
    pattern = rf"^client {cid} aborted: {cause}.* \({awaited}, round 2\)$"
    _run_corrupted(settings, cid, kind, path, BLOB_CORRUPTIONS[corruption], RoundAborted, pattern)


class ReplayingEndpoint:
    """The server's endpoint to one loopback client; in one direction, "to"
    or "from" the client, it delivers frame ``index`` - 1 again in place of
    frame ``index``, counting from 0, and keeps both as ``swapped``."""

    def __init__(self, inner, settings, direction, index):
        self.inner = inner
        self.settings = settings
        self.direction = direction
        self.index = index
        self.frames: list[tuple[int, bytes]] = []
        self.swapped = None

    def _deliver(self, direction: str, frame: tuple[int, bytes]) -> tuple[int, bytes]:
        if direction != self.direction:
            return frame
        self.frames.append(frame)
        if len(self.frames) - 1 != self.index:
            return frame
        self.swapped = [decode_message(*f, self.settings) for f in (self.frames[-1], self.frames[-2])]
        return self.frames[-2]

    def send(self, kind: int, body: bytes) -> None:
        self.inner.send(*self._deliver("to", (kind, body)))

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        return self._deliver("from", self.inner.recv(timeout))


# what the server awaits from a client that took each of its frames
REPLY = {G: T, F: E, M: MessageKind.FINAL_MODEL}


def _channel(encryption: str, direction: str) -> list[tuple[MessageKind, int]]:
    """Client 1's frames in one direction of a clean 2-round fedboosting run,
    as (kind, round): to it, a broadcast and candidates per round, then the
    final gradient; from it, its key offer when encrypted, an upload and scores
    per round, then the final model."""
    if direction == "to":
        return [(G, 1), (F, 1), (G, 2), (F, 2), (M, 2)]
    offer = [(MessageKind.KEY_OFFER, 0)] if encryption != "none" else []
    return offer + [(T, 1), (E, 1), (T, 2), (E, 2), (MessageKind.FINAL_MODEL, 2)]


REPLAY_CELLS = [
    pytest.param(encryption, direction, index, id=f"{encryption}-{direction}-{index}")
    for encryption in ["none", "he", "he_dp"]
    for direction in ["to", "from"]
    for index in range(1, len(_channel(encryption, direction)))
]


@pytest.mark.parametrize("encryption, direction, index", REPLAY_CELLS)
def test_a_replayed_frame_on_loopback(encryption, direction, index):
    """Client 1's channel delivers frame ``index`` - 1 of one direction again
    in place of frame ``index``: the peer that takes it refuses it, and the run
    ends naming client 1, the round and the replayed kind."""
    settings = make_settings(encryption=encryption, rounds=2, timeout_s=TIMEOUT_S)
    frames = _channel(encryption, direction)
    (kind, round_no), (again, again_round) = frames[index], frames[index - 1]
    if direction == "to":
        # the client refuses it, and the server reads its ABORT
        local = round_no - (kind == G)
        reason = (
            f"ProtocolViolation: {again.name} for round {again_round} at local round {local}, "
            f"awaiting {kind.name} of round {round_no}"
        )
        error = RoundAborted
        cause = rf"^client 1 aborted: {reason} \({REPLY[kind].name}, round {round_no}\)$"
    else:
        error = ProtocolViolation
        cause = f"^expected {kind.name} from client 1 in round {round_no}, got {again.name}$"
    wrapped = []

    def replay(endpoint):
        wrapped.append(ReplayingEndpoint(endpoint, settings, direction, index))
        return wrapped[-1]

    _run_faulty(settings, 1, replay, error, cause)
    # the frames a clean run sends, so the cell replayed the frame it names
    assert [(m.kind, m.round) for m in wrapped[0].swapped] == [frames[index], frames[index - 1]]
