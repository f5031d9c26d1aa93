"""Faults injected into live runs, each at one exchange of one client's
schedule: the (direction, kind, round) of every frame the server sends that
client ("to") or takes from it ("from"), in order, as a clean loopback run
of the same aggregator, encryption and cohort size logs them at the
``server_run`` seam. So the frame order is written only in ``server_run``. One rule, ``expected_error``, gives from the schedule
the error that each fault must end the run with, naming the client, the kind
and the round, and the run must end quickly; ``conftest.py`` fails any cell
that leaves a child process or a thread behind."""

import dataclasses
import functools
import math
import multiprocessing
import struct
import time
from contextlib import nullcontext

import pytest

from fedboost import paillier, runner
from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.errors import ChannelClosed, KeyMismatch, ProtocolViolation, RoundAborted, TransportTimeout
from fedboost.protocol import (
    ClientSession,
    InThreadCohort,
    MessageKind,
    decode_message,
    encode_message,
    server_run,
)

from test_config_fuzz import ENCRYPTIONS
from test_protocol import client_split, cohort_key, make_settings

TIMEOUT_S = 20.0
# a stall waits out this timeout: small, so that no cell waits out TIMEOUT_S;
# over TCP, long enough for every reply a forked client sends before the stall
STALL_S, TCP_STALL_S = 0.001, 0.2


class FaultyEndpoint:
    """The server's endpoint to one client. It logs each exchange as
    (direction, kind, round), "to" the client or "from" it; the closing read
    of a client that ends by closing its channel is ("from", None, round). It
    keeps the (direction, kind, body) of every frame it carries. At exchange
    ``at``, counting from 0, ``fault`` acts: "kill" SIGKILLs and reaps
    ``victim``, the client's process, and "close" closes the inner endpoint,
    just before it; "drop" refuses it and every later one, as a closed
    endpoint does; "stall" loses every send and has every recv wait out its
    timeout from it on; "replay" delivers the previous frame of its direction
    in its place, and "rewrite" the body ``rewrite(message)``. With no fault
    it only logs."""

    def __init__(self, inner, settings, fault=None, at=None, victim=None, rewrite=None):
        self.inner = inner
        self.settings = settings
        self.fault, self.at = fault, at
        self.victim, self.rewrite = victim, rewrite
        self.log: list[tuple[str, MessageKind | None, int]] = []
        self.frames: list[tuple[str, int, bytes]] = []
        self.exchange = -1
        self.failed_at = None

    @property
    def messages(self):
        return [decode_message(kind, body, self.settings) for _, kind, body in self.frames]

    def _next(self) -> bool:
        """Start the next exchange, acting the fault at ``at``; whether the
        channel has failed for good."""
        self.exchange += 1
        if self.exchange == self.at:
            if self.fault == "kill":
                self.victim.kill()
                self.victim.join()
            elif self.fault == "close":
                self.inner.close()
            self.failed_at = time.monotonic()
        return self.fault in ("drop", "stall") and self.exchange >= self.at

    def _carry(self, direction: str, kind: int, body: bytes) -> tuple[int, bytes]:
        """Log and keep the frame, or the one the fault delivers in its place."""
        if self.exchange == self.at and self.fault == "replay":
            kind, body = [(k, b) for d, k, b in self.frames if d == direction][-1]
        elif self.exchange == self.at and self.fault == "rewrite":
            body = self.rewrite(decode_message(kind, body, self.settings))
        self.log.append((direction, MessageKind(kind), int.from_bytes(body[:4], "big")))
        self.frames.append((direction, kind, body))
        return kind, body

    def send(self, kind: int, body: bytes) -> None:
        if not self._next():
            self.inner.send(*self._carry("to", kind, body))
        elif self.fault == "drop":
            raise ChannelClosed("send after close")

    def recv(self, timeout: float) -> tuple[int, bytes]:
        if self._next():
            if self.fault == "drop":
                raise ChannelClosed("recv after close")
            time.sleep(timeout)
            raise TransportTimeout("read deadline exceeded")
        try:
            frame = self.inner.recv(timeout)
        except ChannelClosed:
            if self.failed_at is None:
                # the client closed its channel: the closing read, in the round of the final gradient
                self.log.append(("from", None, self.log[-1][2]))
            raise
        return self._carry("from", *frame)


@functools.cache
def _shared_key(key_bits: int, master_seed: int) -> paillier.KeyPair:
    """The cohort key pair of every encrypted loopback run of one key size
    and seed, made once: the plaintexts it remembers change no output."""
    return cohort_key(make_settings(encryption="he", key_bits=key_bits, master_seed=master_seed))


def wrapped_cohort(settings, cid=None, **fault):
    """In-thread sessions on ``client_split`` data, and the server's
    endpoints to them, each a FaultyEndpoint: client ``cid``'s with
    ``fault``, the others with none."""
    keypair = _shared_key(settings.key_bits, settings.master_seed) if settings.encrypted else None
    clients = range(1, settings.n_clients + 1)
    sessions = [ClientSession(settings, c, client_split(c), keypair) for c in clients]
    endpoints = {
        c: FaultyEndpoint(endpoint, settings, **(fault if c == cid else {}))
        for c, endpoint in InThreadCohort(sessions).endpoints.items()
    }
    return sessions, endpoints


@functools.cache
def schedule(aggregator: str, encryption: str, n_clients: int) -> dict[int, list]:
    """Each client's exchanges with the server in a clean 2-round run of
    ``n_clients``, as the server's endpoints log them. The order depends on
    the aggregator, the encryption, the cohort size and the rounds only, so
    a TCP run of that shape has it too."""
    settings = make_settings(n_clients, aggregator=aggregator, encryption=encryption)
    _, endpoints = wrapped_cohort(settings)
    server_run(settings, endpoints)
    return {c: endpoint.log for c, endpoint in endpoints.items()}


def _where(cid: int, exchange) -> str:
    """How the server names an exchange with client ``cid`` that failed."""
    direction, kind, r = exchange
    if direction == "to":
        return f"sending {kind.name} to client {cid} in round {r}"
    return f"waiting for {kind.name if kind else 'end of run'} from client {cid} in round {r}"


def expected_error(exchanges: list, cid: int, fault: str, at: int):
    """The error, and a pattern of its text, that ends a run whose channel
    to client ``cid`` has ``fault`` at exchange ``at`` of ``exchanges``, that
    client's schedule; None for a run that ends cleanly.
    - drop, close: the server names exchange ``at``; at the closing read it
      takes the close as the client's own, and the run ends cleanly;
    - stall: the server names the first recv at or after ``at``, whose frame
      never comes;
    - replay to the client: the client refuses the frame, and the server
      reads its ABORT at that recv. Replay from it: the server refuses the
      frame;
    - kill: the server finds the death at an exchange from ``at`` to the
      first recv after the first send at or after ``at``, the first reply
      the dead client cannot have sent; at the closing read it may find
      none, and the runner names the exit alone."""
    direction, kind, r = exchanges[at]
    reply = next(x for x in exchanges[at:] if x[0] == "from")
    if fault in ("drop", "close"):
        if kind is None:
            return None
        verb = "send" if direction == "to" else "recv"
        return RoundAborted, f"^{_where(cid, exchanges[at])}: {verb} after close$"
    if fault == "stall":
        return RoundAborted, f"^{_where(cid, reply)}: read deadline exceeded$"
    if fault == "kill":
        directions = [d for d, _, _ in exchanges]
        first_send = directions.index("to", at) if "to" in directions[at:] else len(directions) - 1
        last = directions.index("from", first_send)
        found = "|".join(_where(cid, x) for x in exchanges[at : last + 1])
        optional = "?" if exchanges[last][1] is None else ""
        return RoundAborted, rf"^(?:(?:{found}): .+; ){optional}client {cid} exited with code -9$"
    _, again, again_round = [x for x in exchanges[:at] if x[0] == direction][-1]
    if direction == "to":
        # a session is in the round of the last broadcast it took
        local = r - (kind == MessageKind.GLOBAL_GRADIENT)
        reason = (
            f"{again.name} for round {again_round} at local round {local}, "
            f"awaiting {kind.name} of round {r}"
        )
        awaited = reply[1].name if reply[1] else "end of run"
        cause = rf"ProtocolViolation: {reason} \({awaited}, round {reply[2]}\)"
        return RoundAborted, f"^client {cid} aborted: {cause}$"
    if again == kind:
        return ProtocolViolation, f"^client {cid} sent {kind.name} for round {again_round} during round {r}$"
    return ProtocolViolation, f"^expected {kind.name} from client {cid} in round {r}, got {again.name}$"


def _raising(outcome):
    """A context that requires ``outcome``, an (error, pattern), or for None a clean end."""
    return nullcontext() if outcome is None else pytest.raises(outcome[0], match=outcome[1])


def _ended_in_time(endpoint: FaultyEndpoint, timeout: float) -> None:
    """The run ended within TIMEOUT_S / 4 of the endpoint's fault, or for a
    stall within its ``timeout`` and the runner's grace period."""
    within = timeout + runner._EXIT_GRACE_S if endpoint.fault == "stall" else TIMEOUT_S / 4
    assert time.monotonic() - endpoint.failed_at < within


def _run_on_loopback(settings, cid, outcome, **fault) -> None:
    """A loopback run whose server endpoint to client ``cid`` has ``fault``:
    it must end as ``outcome`` says, in time, and the server's ABORT must
    reach every client whose channel it did not break."""
    sessions, endpoints = wrapped_cohort(settings, cid, **fault)
    with _raising(outcome):
        server_run(settings, endpoints)
    _ended_in_time(endpoints[cid], settings.timeout_s)
    broken = fault["fault"] in ("drop", "stall")
    assert all(s.done for s in sessions if s.client_id != cid or not broken)


def _cell(*values):
    """One cell: fault, aggregator, encryption, N, client and exchange."""
    return pytest.param(*values, id="-".join(map(str, values)))


def _replayable(exchanges: list, at: int) -> bool:
    """Whether exchange ``at`` carries a frame, with an earlier one in its direction."""
    direction, kind, _ = exchanges[at]
    return kind is not None and direction in [d for d, _, _ in exchanges[:at]]


# every valid aggregator × encryption pair, with 2 and 3 clients, or the one
# trainer of centralized; the victims are the first, the middle and the last
# client, at every exchange
CONFIGS = [
    (aggregator, encryption, n)
    for aggregator, modes in ENCRYPTIONS.items()
    for encryption in modes
    for n in ((1,) if aggregator == "centralized" else (2, 3))
]
LOOPBACK_CELLS = [
    _cell(fault, aggregator, encryption, n, cid, at)
    for fault in ("drop", "stall", "replay")
    for aggregator, encryption, n in CONFIGS
    for cid in sorted({1, (n + 1) // 2, n})
    for at in range(len(schedule(aggregator, encryption, n)[cid]))
    if fault != "replay" or _replayable(schedule(aggregator, encryption, n)[cid], at)
]


@pytest.mark.parametrize("fault, aggregator, encryption, n, cid, at", LOOPBACK_CELLS)
def test_a_fault_on_loopback(fault, aggregator, encryption, n, cid, at):
    """Client ``cid``'s channel is dropped or stalls from exchange ``at`` on,
    or delivers the previous frame of its direction at ``at`` again: the run
    ends as ``expected_error`` says, and the ABORT reaches the other clients,
    on both sides of a middle one."""
    timeout = STALL_S if fault == "stall" else TIMEOUT_S
    # the smallest keys whose slots hold make_settings' scale: the cells test
    # the protocol, and encryption is most of an encrypted cell's time
    fields = dict(aggregator=aggregator, encryption=encryption, key_bits=64, timeout_s=timeout)
    settings = make_settings(n, **fields)
    outcome = expected_error(schedule(aggregator, encryption, n)[cid], cid, fault, at)
    _run_on_loopback(settings, cid, outcome, fault=fault, at=at)


# client 2 killed, and client 1's channel closed or stalled, in 2-client
# fedboosting runs; and fedavg/he at N = 3 with client 2 the victim of each.
# A stall costs its timeout, so only the first and the last exchange stall
TCP_RUNS = [("fedboosting", e, 2, {"kill": 2, "close": 1, "stall": 1}) for e in ENCRYPTIONS["fedboosting"]]
TCP_RUNS.append(("fedavg", "he", 3, {"kill": 2, "close": 2, "stall": 2}))
TCP_CELLS = [
    _cell(fault, aggregator, encryption, n, cid, at)
    for aggregator, encryption, n, victims in TCP_RUNS
    for fault, cid in victims.items()
    for count in [len(schedule(aggregator, encryption, n)[cid])]
    for at in ([0, count - 1] if fault == "stall" else range(count))
]


@pytest.mark.parametrize("fault, aggregator, encryption, n, cid, at", TCP_CELLS)
def test_a_fault_over_tcp(monkeypatch, fault, aggregator, encryption, n, cid, at):
    """Just before the server's exchange ``at`` with client ``cid``, after
    every client has connected, the client dies by SIGKILL, or the server's
    end of its channel is closed, or stalls from then on: the run ends as
    ``expected_error`` says from the loopback schedule, whose frames a TCP
    run sends too."""
    timeout = TCP_STALL_S if fault == "stall" else TIMEOUT_S
    pair = two_client_noniid(200, master_seed=4)
    # a third client draws client 1's clusters from its own seed
    clients = (*pair, dataclasses.replace(pair[0], seed=pair[1].seed + 1))[:n]
    cfg = ExperimentConfig(
        clients=clients,
        rounds=2,
        master_seed=4,
        aggregator=aggregator,
        encryption=encryption,
        transport="tcp",
        timeout_s=timeout,
    )
    client_run, serve, wrapped = runner.client_run, runner.server_run, []

    def lingering(session, endpoint):
        client_run(session, endpoint)
        if session.client_id == cid:
            # alive, with its channel open, until the kill: a forked client
            # runs the client_run patched here
            time.sleep(TIMEOUT_S)

    def serve_with_a_fault(settings, endpoints, transcript=None):
        # every client has started, in id order: children are named
        # '<Type>Process-K', K counting this process's children as started
        started = sorted(multiprocessing.active_children(), key=lambda p: int(p.name.rsplit("-", 1)[1]))
        wrapped.append(FaultyEndpoint(endpoints[cid], settings, fault, at, victim=started[cid - 1]))
        return serve(settings, {**endpoints, cid: wrapped[0]}, transcript)

    if fault == "kill":
        monkeypatch.setattr(runner, "client_run", lingering)
    monkeypatch.setattr(runner, "server_run", serve_with_a_fault)
    with _raising(expected_error(schedule(aggregator, encryption, n)[cid], cid, fault, at)):
        runner.run_experiment(cfg)
    _ended_in_time(wrapped[0], timeout)


def _run_corrupted(settings, cid, kind, path, corrupt, error, cause) -> None:
    """A 2-round loopback run whose frame of ``kind`` in round 2 to or from
    client ``cid`` gets the body ``corrupt(message, path, settings)``: it must
    raise ``error`` matching ``cause``, as ``_run_on_loopback`` checks it."""
    exchanges = schedule(settings.aggregator, settings.encryption, settings.n_clients)[cid]
    at = [(k, r) for _, k, r in exchanges].index((kind, 2))

    def rewrite(msg):
        return corrupt(msg, path, settings)

    _run_on_loopback(settings, cid, (error, cause), fault="rewrite", at=at, rewrite=rewrite)


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
