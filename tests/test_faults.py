"""Faults injected into live runs: each must end the run quickly with a
RoundAborted or ProtocolViolation that names the client, and leave no child
process or thread behind."""

import base64
import dataclasses
import math
import multiprocessing
import struct
import threading
import time

import pytest

from fedboost import runner
from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.errors import ProtocolViolation, RoundAborted
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


def test_tcp_client_killed_after_it_connects(monkeypatch):
    cfg = ExperimentConfig(
        clients=two_client_noniid(200, master_seed=4),
        rounds=2,
        master_seed=4,
        transport="tcp",
        timeout_s=TIMEOUT_S,
    )
    serve = runner.server_run
    killed_at = []

    def kill_client_2_then_serve(settings, endpoints, transcript=None):
        # both clients have connected; client 2 was started last
        victim = _last_started_child()
        victim.kill()
        victim.join()
        killed_at.append(time.monotonic())
        return serve(settings, endpoints, transcript)

    monkeypatch.setattr(runner, "server_run", kill_client_2_then_serve)
    with pytest.raises(RoundAborted, match=r"\bclient 2 in round 1\b") as aborted:
        runner.run_experiment(cfg)
    assert "client 2 exited with code -9" in str(aborted.value)
    assert time.monotonic() - killed_at[0] < TIMEOUT_S / 4
    assert multiprocessing.active_children() == []


class CorruptingEndpoint:
    """The server's endpoint to one loopback client; it rewrites the float
    field ``name`` of the frame of ``kind`` and round ``round_no`` that the
    client sends, with ``corrupt`` applied to its base64 text."""

    def __init__(self, inner, kind, round_no, name, corrupt):
        self.inner = inner
        self.target = (kind, round_no)
        self.name = name
        self.corrupt = corrupt

    def send(self, kind: int, body: bytes) -> None:
        self.inner.send(kind, body)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        kind, body = self.inner.recv(timeout)
        msg = decode_message(kind, body)
        if (msg.kind, msg.round) == self.target:
            payload = {**msg.payload, self.name: self.corrupt(msg.payload[self.name])}
            kind, body = encode_message(dataclasses.replace(msg, payload=payload))
        return kind, body


def _bytes_of(text: str, edit) -> str:
    return base64.b64encode(edit(base64.b64decode(text))).decode()


CORRUPTIONS = {
    "truncated": lambda text: text[:-1],
    "one_byte_too_many": lambda text: _bytes_of(text, lambda raw: raw + b"\0"),
    "nan_bits": lambda text: _bytes_of(text, lambda raw: struct.pack(">d", math.nan) + raw[8:]),
}
CAUSES = {
    "truncated": "is not canonical base64",
    "one_byte_too_many": r"has \d+\.125 entries",
    "nan_bits": "has non-finite entries",
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
    keypair = cohort_key(settings)
    sessions = [ClientSession(settings, c, client_split(c), keypair) for c in (1, 2)]
    endpoints = InThreadCohort(sessions).endpoints
    endpoints[cid] = CorruptingEndpoint(endpoints[cid], kind, 2, name, CORRUPTIONS[corruption])
    threads = threading.active_count()
    start = time.monotonic()
    cause = rf"^client {cid}: payload field '{name}' {CAUSES[corruption]}.* \({kind.name}, round 2\)$"
    with pytest.raises(ProtocolViolation, match=cause):
        server_run(settings, endpoints)
    assert time.monotonic() - start < TIMEOUT_S / 4
    assert threading.active_count() == threads
    # the server's ABORT reached every client
    assert all(session.done for session in sessions)
