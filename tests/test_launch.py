"""The TCP launch: every client process starts at once and names itself by
the 4-byte id it writes before its first frame.

The stand-in clients below are module-level functions, so a spawned process
can import them by name; each run swaps one in for runner._client_process_main.
Every case leaves no child process, and every case but the silent connection
and the client that never connects, which end at their deadline, ends well
within its timeout_s."""

import json
import multiprocessing
import multiprocessing.context
import os
import socket
import struct
import time

import pytest

from fedboost import runner
from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.errors import ProtocolViolation, RoundAborted, TransportError, TransportTimeout
from fedboost.protocol import Message, MessageKind, encode_message, largest_body
from fedboost.transport import tcp_connect

TIMEOUT_S = 20.0


def tcp_config(n_clients: int = 2, **overrides) -> ExperimentConfig:
    clients = two_client_noniid(200, master_seed=4)
    base = dict(
        clients=(clients * n_clients)[:n_clients],
        rounds=1,
        master_seed=4,
        aggregator="fedavg",
        encryption="none",
        transport="tcp",
        timeout_s=TIMEOUT_S,
    )
    return ExperimentConfig(**{**base, **overrides})


def _claim(address, cfg, claimed_id: int) -> None:
    """Connect as ``claimed_id``, then read frames, ABORT included, until the
    server closes the channel."""
    endpoint = tcp_connect(address, cfg.timeout_s, largest_body(cfg), struct.pack(">I", claimed_id))
    try:
        while True:
            endpoint.recv(cfg.timeout_s)
    except TransportError:
        pass
    finally:
        endpoint.close()


def both_claim_client_1(address, cfg, client_id, keypair):
    _claim(address, cfg, 1)


def client_2_claims_an_unknown_id(address, cfg, client_id, keypair):
    _claim(address, cfg, client_id if client_id == 1 else cfg.n_clients + 1)


def client_2_closes_before_its_id(address, cfg, client_id, keypair):
    if client_id == 1:
        _claim(address, cfg, 1)
    else:
        socket.create_connection(address).close()
        time.sleep(0.5)  # alive while the server reads the closed connection


def client_2_stays_silent(address, cfg, client_id, keypair):
    if client_id == 1:
        _claim(address, cfg, 1)
    else:
        with socket.create_connection(address) as sock:
            sock.recv(1)  # until the server closes the connection


def both_exit_before_connecting(address, cfg, client_id, keypair):
    os._exit(3 + client_id)


def client_1_dies_after_the_broadcast(address, cfg, client_id, keypair):
    if client_id == 1:
        endpoint = tcp_connect(address, cfg.timeout_s, largest_body(cfg), struct.pack(">I", 1))
        endpoint.recv(cfg.timeout_s)
        os._exit(3)
    _claim(address, cfg, client_id)


def client_1_dies_and_the_others_stop_reading(address, cfg, client_id, keypair):
    if client_id == 1:
        client_1_dies_after_the_broadcast(address, cfg, client_id, keypair)
    endpoint = tcp_connect(address, cfg.timeout_s, largest_body(cfg), struct.pack(">I", client_id))
    time.sleep(cfg.timeout_s)  # alive, with its channel open, and reads nothing
    endpoint.close()


def client_2_never_connects(address, cfg, client_id, keypair):
    if client_id == 1:
        _claim(address, cfg, 1)
    else:
        time.sleep(TIMEOUT_S)  # alive, and never connects


def client_1_aborts_after_the_broadcast(address, cfg, client_id, keypair):
    if client_id != 1:
        return runner._client_process_main(address, cfg, client_id, keypair)
    endpoint = tcp_connect(address, cfg.timeout_s, largest_body(cfg), struct.pack(">I", 1))
    try:
        endpoint.recv(cfg.timeout_s)
        endpoint.send(*encode_message(Message(MessageKind.ABORT, 1, {"reason": "gives up"}), cfg))
    finally:
        endpoint.close()


def client_1_declares_an_oversize_upload(address, cfg, client_id, keypair):
    if client_id != 1:
        return runner._client_process_main(address, cfg, client_id, keypair)
    with socket.create_connection(address) as sock:
        # its id, the prefix of a 10,000,001-byte TRAIN_RESULT frame, then 1,000 of its bytes
        sock.sendall(struct.pack(">IIB", 1, 10_000_001, MessageKind.TRAIN_RESULT) + bytes(999))
        while sock.recv(4096):
            pass


def _run(monkeypatch, cfg, client_main):
    monkeypatch.setattr(runner, "_client_process_main", client_main)
    try:
        runner.run_experiment(cfg)
    finally:
        assert multiprocessing.active_children() == []


_CONNECTION = r"connection from 127\.0\.0\.1:\d+"


@pytest.mark.parametrize(
    "client_main, cause",
    [
        (both_claim_client_1, rf"^{_CONNECTION} claims client 1, which is taken$"),
        (client_2_claims_an_unknown_id, rf"^{_CONNECTION} claims client 3, which is outside 1\.\.2$"),
        (
            client_2_closes_before_its_id,
            rf"^{_CONNECTION} sent no client id: connection closed mid-stream$",
        ),
    ],
    ids=["duplicate", "out_of_range", "closed"],
)
def test_a_bad_client_id_is_refused_naming_the_connection(monkeypatch, client_main, cause):
    start = time.monotonic()
    with pytest.raises(ProtocolViolation, match=cause):
        _run(monkeypatch, tcp_config(), client_main)
    assert time.monotonic() - start < TIMEOUT_S / 4


def test_a_silent_connection_is_refused_at_the_deadline(monkeypatch):
    cfg = tcp_config(timeout_s=1.5)
    start = time.monotonic()
    with pytest.raises(ProtocolViolation, match=rf"^{_CONNECTION} sent no client id: read deadline"):
        _run(monkeypatch, cfg, client_2_stays_silent)
    assert time.monotonic() - start < cfg.timeout_s + 2.0


def test_a_client_killed_before_it_connects_ends_the_wait(monkeypatch):
    spawn_start = multiprocessing.context.SpawnProcess.start
    started, killed_at = [], []

    def start_then_kill_client_2(proc):
        spawn_start(proc)
        started.append(proc)
        if len(started) == 2:  # started in id order
            proc.kill()
            killed_at.append(time.monotonic())

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start_then_kill_client_2)
    with pytest.raises(RoundAborted, match=r"^client 2 exited with code -9 before connecting$"):
        runner.run_experiment(tcp_config())
    assert time.monotonic() - killed_at[0] < 1.0
    assert multiprocessing.active_children() == []


def test_every_client_that_exits_before_connecting_is_named_in_id_order(monkeypatch):
    cause = (
        r"^client 1 exited with code 4 before connecting; "
        r"client 2 exited with code 5 before connecting$"
    )
    with pytest.raises(RoundAborted, match=cause):
        _run(monkeypatch, tcp_config(), both_exit_before_connecting)


def test_clients_started_in_reverse_keep_transcript_and_digests(monkeypatch, tmp_path):
    from test_pinned_outputs import PINS, output_digests

    spawn_start = multiprocessing.context.SpawnProcess.start
    held = []

    def start_last_first(proc):
        # the process of client N starts first, client 1's last
        held.append(proc)
        if len(held) == 2:
            for later in reversed(held):
                spawn_start(later)
                time.sleep(0.2)

    transcripts = []
    serve = runner.server_run

    def recorded(settings, endpoints, transcript=None):
        transcripts.append([])
        return serve(settings, endpoints, transcripts[-1])

    monkeypatch.setattr(runner, "server_run", recorded)
    loopback = output_digests("avg_he_tcp", 0, tmp_path / "loopback", transport="loopback")
    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start_last_first)
    reversed_tcp = output_digests("avg_he_tcp", 0, tmp_path / "tcp")
    pins = json.loads(PINS.read_text())["digests"]["avg_he_tcp/0"]
    assert reversed_tcp == loopback == pins
    [loop_frames, tcp_frames] = transcripts
    assert loop_frames and loop_frames == tcp_frames
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "client_main",
    [client_1_dies_after_the_broadcast, client_1_dies_and_the_others_stop_reading],
    ids=["reading_on", "not_reading"],
)
def test_hung_clients_after_an_abort_cost_one_grace_period(monkeypatch, client_main):
    # client 1 dies mid-run; clients 2 and 3 stay alive past the ABORT, reading
    # on until their channels close or reading nothing, so the run waits out the
    # grace period once, for both; those that still run then are terminated,
    # and only client 1 is named
    serve = runner.server_run
    aborted_at = []

    def timed(settings, endpoints, transcript=None):
        try:
            return serve(settings, endpoints, transcript)
        finally:
            aborted_at.append(time.monotonic())

    monkeypatch.setattr(runner, "server_run", timed)
    with pytest.raises(RoundAborted, match=r"\bclient 1 exited with code 3$"):
        _run(monkeypatch, tcp_config(n_clients=3), client_main)
    after_abort = time.monotonic() - aborted_at[0]
    assert runner._EXIT_GRACE_S <= after_abort < 1.5 * runner._EXIT_GRACE_S


def test_an_abort_from_a_client_that_exits_cleanly_is_raised_as_sent(monkeypatch):
    # client 1 aborts and exits with code 0, and client 2 ends on the server's
    # ABORT, so no exit code is added to the error
    cfg = tcp_config()
    start = time.monotonic()
    with pytest.raises(RoundAborted, match=r"^client 1 aborted: gives up \(TRAIN_RESULT, round 1\)$"):
        _run(monkeypatch, cfg, client_1_aborts_after_the_broadcast)
    assert time.monotonic() - start < cfg.timeout_s / 4


def test_a_client_that_never_connects_times_out_the_launch(monkeypatch):
    # the launch deadline, then one grace period for the clients still alive,
    # with half a grace period of slack for the launch and the terminate
    cfg = tcp_config(timeout_s=1.0)
    start = time.monotonic()
    with pytest.raises(TransportTimeout, match=r"^clients \[2\] did not connect within 1\.0s$"):
        _run(monkeypatch, cfg, client_2_never_connects)
    elapsed = time.monotonic() - start
    assert cfg.timeout_s + runner._EXIT_GRACE_S <= elapsed < cfg.timeout_s + 1.5 * runner._EXIT_GRACE_S


def test_an_oversize_upload_prefix_is_refused_before_its_body(monkeypatch):
    # a header over the config's largest body is refused before the body is read
    cfg = tcp_config(timeout_s=5.0)
    limit = largest_body(cfg) + 1
    cause = rf"^client 1: declared length 10000001 exceeds limit {limit} \(TRAIN_RESULT, round 1\)$"
    start = time.monotonic()
    with pytest.raises(ProtocolViolation, match=cause):
        _run(monkeypatch, cfg, client_1_declares_an_oversize_upload)
    assert time.monotonic() - start < cfg.timeout_s / 2
