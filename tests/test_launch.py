"""The TCP launch: the runner makes every connection before it forks, so the
k-th is client k's, then forks each client with its own end.

Each run swaps one of the stand-in clients below in for
runner._client_process_main. A forked client calls the swapped-in name, so a
stand-in that runs the real client calls CLIENT_MAIN, taken at import.
Every case leaves no child process, and every case but the client that never
sends its first frame, which ends at its deadline, ends well within its
timeout_s."""

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
from fedboost.errors import ProtocolViolation, RoundAborted, TransportError
from fedboost.protocol import (
    ClientSession,
    Message,
    MessageKind,
    client_run,
    encode_message,
    largest_body,
)
from fedboost.transport import tcp_connect, tcp_listen

TIMEOUT_S = 20.0
CLIENT_MAIN = runner._client_process_main


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


def _read_until_closed(endpoint, cfg) -> None:
    """Read frames, ABORT included, until the server closes the channel."""
    try:
        while True:
            endpoint.recv(cfg.timeout_s)
    except TransportError:
        pass
    finally:
        endpoint.close()


def both_exit_at_start(endpoint, cfg, client_id, split, keypair):
    os._exit(3 + client_id)


def client_1_dies_after_the_broadcast(endpoint, cfg, client_id, split, keypair):
    if client_id == 1:
        endpoint.recv(cfg.timeout_s)
        os._exit(3)
    _read_until_closed(endpoint, cfg)


def client_1_dies_and_the_others_stop_reading(endpoint, cfg, client_id, split, keypair):
    if client_id == 1:
        client_1_dies_after_the_broadcast(endpoint, cfg, client_id, split, keypair)
    time.sleep(cfg.timeout_s)  # alive, with its channel open, and reads nothing
    endpoint.close()


def client_2_never_sends_its_first_frame(endpoint, cfg, client_id, split, keypair):
    if client_id != 2:
        return CLIENT_MAIN(endpoint, cfg, client_id, split, keypair)
    time.sleep(TIMEOUT_S)  # alive, with its channel open, and sends nothing


def client_1_aborts_after_the_broadcast(endpoint, cfg, client_id, split, keypair):
    if client_id != 1:
        return CLIENT_MAIN(endpoint, cfg, client_id, split, keypair)
    try:
        endpoint.recv(cfg.timeout_s)
        endpoint.send(*encode_message(Message(MessageKind.ABORT, 1, {"reason": "gives up"}), cfg))
    finally:
        endpoint.close()


def client_1_declares_an_oversize_upload(endpoint, cfg, client_id, split, keypair):
    if client_id != 1:
        return CLIENT_MAIN(endpoint, cfg, client_id, split, keypair)
    # the prefix of a 10,000,001-byte TRAIN_RESULT frame, then 1,000 of its bytes,
    # written past the endpoint, which refuses to send a body over its bound
    endpoint._sock.sendall(struct.pack(">IB", 10_000_001, MessageKind.TRAIN_RESULT) + bytes(999))
    _read_until_closed(endpoint, cfg)


def client_2_exits_with_code_3_after_the_run(endpoint, cfg, client_id, split, keypair):
    if client_id != 2:
        return CLIENT_MAIN(endpoint, cfg, client_id, split, keypair)
    # the session ends once it has checked the final MERGED_GRADIENT
    client_run(ClientSession(cfg, 2, split, keypair), endpoint)
    os._exit(3)  # without closing its channel


def _run(monkeypatch, cfg, client_main):
    monkeypatch.setattr(runner, "_client_process_main", client_main)
    try:
        runner.run_experiment(cfg)
    finally:
        assert multiprocessing.active_children() == []


_CONNECTION = r"connection from 127\.0\.0\.1:\d+"


@pytest.mark.parametrize(
    "client_id, closed", [(1, False), (2, False), (1, True)], ids=["first", "second", "closed"]
)
def test_a_connection_the_runner_did_not_make_is_refused_before_any_fork(monkeypatch, client_id, closed):
    # a stranger connects just before the runner's own connect for client_id,
    # so the connection the runner accepts for that client is not its own; a
    # stranger that has already closed is still accepted, and refused
    strangers, connects, started = [], [], []

    def let_a_stranger_in_then_connect(addr, *args):
        connects.append(addr)
        if len(connects) == client_id:
            strangers.append(socket.create_connection(addr, timeout=1.0))
            if closed:
                strangers.pop().close()
        return tcp_connect(addr, *args)

    monkeypatch.setattr(runner, "tcp_connect", let_a_stranger_in_then_connect)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", lambda proc: started.append(proc))
    start = time.monotonic()
    cause = rf"^{_CONNECTION} is not the runner's own, made for client {client_id}$"
    with pytest.raises(ProtocolViolation, match=cause):
        runner.run_experiment(tcp_config(timeout_s=10.0))
    assert time.monotonic() - start < 1.0
    assert len(connects) == client_id
    assert started == []
    assert multiprocessing.active_children() == []
    for stranger in strangers:
        with stranger:
            assert stranger.recv(1) == b""


def test_a_client_killed_at_start_is_found_at_the_first_exchange(monkeypatch):
    fork_start = multiprocessing.context.ForkProcess.start
    started, killed_at = [], []

    def start_then_kill_client_2(proc):
        fork_start(proc)
        started.append(proc)
        if len(started) == 2:  # started in id order
            proc.kill()
            killed_at.append(time.monotonic())

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_then_kill_client_2)
    cause = r"^(sending GLOBAL_GRADIENT to|waiting for TRAIN_RESULT from) client 2 in round 1: "
    with pytest.raises(RoundAborted, match=rf"{cause}.+; client 2 exited with code -9$"):
        runner.run_experiment(tcp_config())
    assert time.monotonic() - killed_at[0] < 1.0
    assert multiprocessing.active_children() == []


def test_every_client_that_exits_at_start_is_named_in_id_order(monkeypatch):
    cause = (
        r"^(sending GLOBAL_GRADIENT to|waiting for TRAIN_RESULT from) client 1 in round 1: .+; "
        r"client 1 exited with code 4; client 2 exited with code 5$"
    )
    with pytest.raises(RoundAborted, match=cause):
        _run(monkeypatch, tcp_config(), both_exit_at_start)


def test_a_server_end_closed_without_shutdown_ends_its_client_at_once(monkeypatch):
    # as when the kernel closes a killed runner's sockets: no client holds a
    # copy of the server's end to client 1, so client 1 reads the close
    fork_start = multiprocessing.context.ForkProcess.start
    started, exited_after = [], []

    class Released(Exception):
        pass

    def start(proc):
        fork_start(proc)
        started.append(proc)

    def release_client_1(settings, endpoints, transcript=None):
        endpoints[1].release()
        released_at = time.monotonic()
        started[0].join(timeout=5.0)
        exited_after.append(time.monotonic() - released_at)
        raise Released

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    monkeypatch.setattr(runner, "server_run", release_client_1)
    with pytest.raises(Released):
        runner.run_experiment(tcp_config())
    assert started[0].exitcode is not None
    assert exited_after[0] < 1.0
    assert multiprocessing.active_children() == []


def test_clients_started_in_reverse_keep_transcript_and_digests(monkeypatch, tmp_path):
    from test_pinned_outputs import PINS, output_digests

    fork_start = multiprocessing.context.ForkProcess.start
    held = []

    def start_last_first(proc):
        # the process of client N starts first, client 1's last
        held.append(proc)
        if len(held) == 2:
            for later in reversed(held):
                fork_start(later)
                time.sleep(0.2)

    transcripts = []
    serve = runner.server_run

    def recorded(settings, endpoints, transcript=None):
        transcripts.append([])
        return serve(settings, endpoints, transcripts[-1])

    monkeypatch.setattr(runner, "server_run", recorded)
    loopback = output_digests("avg_he_tcp", 0, tmp_path / "loopback", transport="loopback")
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_last_first)
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


def test_a_client_that_never_sends_its_first_frame_times_out_the_run(monkeypatch):
    # the read deadline, then one grace period for the clients still alive,
    # with half a grace period of slack for the launch and the terminate
    cfg = tcp_config(timeout_s=1.0)
    start = time.monotonic()
    cause = r"^waiting for TRAIN_RESULT from client 2 in round 1: read deadline exceeded$"
    with pytest.raises(RoundAborted, match=cause):
        _run(monkeypatch, cfg, client_2_never_sends_its_first_frame)
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


def test_a_client_that_exits_with_an_error_after_a_finished_run_fails_it(monkeypatch):
    # client 2 reads the final gradient, so the server sees every frame of a
    # clean run and its channel close, and only the exit code tells
    cfg = tcp_config()
    start = time.monotonic()
    with pytest.raises(RoundAborted, match=r"^client 2 exited with code 3$"):
        _run(monkeypatch, cfg, client_2_exits_with_code_3_after_the_run)
    assert time.monotonic() - start < cfg.timeout_s / 4


def test_no_connection_is_taken_once_every_client_is_named(monkeypatch):
    # neither the runner nor a forked client holds the listener any longer, so
    # the kernel refuses a new connection instead of queueing it
    addresses, alive = [], []

    def listen(addr):
        listener = tcp_listen(addr)
        addresses.append(listener.address)
        return listener

    serve = runner.server_run

    def connect_then_serve(settings, endpoints, transcript=None):
        alive.append(sum(p.is_alive() for p in multiprocessing.active_children()))
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(addresses[0], timeout=1.0)
        return serve(settings, endpoints, transcript)

    monkeypatch.setattr(runner, "tcp_listen", listen)
    monkeypatch.setattr(runner, "server_run", connect_then_serve)
    runner.run_experiment(tcp_config())
    assert alive == [2]
    assert multiprocessing.active_children() == []
