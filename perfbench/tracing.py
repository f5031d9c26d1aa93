"""Outside-in instrumentation for the fedboost benchmark.

Nothing here edits ``src/``. Spans are recorded by replacing public functions
with timing wrappers, set on the module attribute each caller looks up at call
time. A name a module imported with ``from x import y`` is looked up in the
importing module, so it is patched there (``runner.server_run``,
``runner.build_splits``, ``runner.decode_gradient_payload``,
``aggregate.quantize_weight``).

Frames are counted at the server's endpoints. Every frame of a run travels
between the server and one client, so counting what the server sends and
receives counts each frame exactly once, on loopback and TCP alike.

Wrappers live in the benchmark's worker process only. TCP clients are spawned
processes that import fedboost afresh, so their client-side layers are not
traced; on TCP they show up only as server time blocked in ``recv``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter

from fedboost import aggregate, nn, paillier, protocol, runner
from fedboost import quantize as qz
from fedboost.errors import TransportTimeout

# transport.py documents the frame as a 4-byte length, one kind byte, then the body
FRAME_OVERHEAD = 5

# Frame kinds reported one by one. A run that sends or receives an ABORT
# raises, so ABORT is counted over every repetition instead (protocol.aborts).
MESSAGE_KINDS = [k.name for k in protocol.MessageKind if k is not protocol.MessageKind.ABORT]


class WireCounter:
    """Frames and bytes per message kind, seen at the server's endpoints."""

    def __init__(self):
        self.frames: Counter = Counter()
        self.bytes: Counter = Counter()
        self.timeouts = 0

    def install(self) -> None:
        server_run = runner.server_run

        @functools.wraps(server_run)
        def counted(settings, endpoints, transcript=None):
            wrapped = {cid: CountingEndpoint(ep, self) for cid, ep in endpoints.items()}
            return server_run(settings, wrapped, transcript)

        runner.server_run = counted

    def add(self, kind: int, body: bytes) -> None:
        try:
            name = protocol.MessageKind(kind).name
        except ValueError:  # a bad kind byte is the protocol's to reject, not the counter's
            name = str(kind)
        self.frames[name] += 1
        self.bytes[name] += FRAME_OVERHEAD + len(body)

    def to_dict(self) -> dict:
        return {"frames": dict(self.frames), "bytes": dict(self.bytes), "timeouts": self.timeouts}


class CountingEndpoint:
    """Server-side endpoint that counts each frame it carries."""

    def __init__(self, inner, wire: WireCounter):
        self._inner = inner
        self._wire = wire

    def send(self, kind: int, body: bytes) -> None:
        self._inner.send(kind, body)
        self._wire.add(kind, body)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        try:
            kind, body = self._inner.recv(timeout)
        except TransportTimeout:
            self._wire.timeouts += 1
            raise
        self._wire.add(kind, body)
        return kind, body

    def close(self) -> None:
        self._inner.close()


def _ciphertext_count(result) -> int:
    """Ciphertexts in one EncryptedGradient or a list of them."""
    if isinstance(result, list):
        return sum(len(g) for g in result)
    return len(result)


class Tracer:
    """In-memory span recorder. A span is (id, parent id, name, start, end,
    thread name); the parent is the innermost open span on the same thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.items: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, count_items=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, threading.current_thread().name)
                )
            if count_items is not None:
                tracer.items[name] += count_items(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count_items=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count_items))

    def install(self) -> None:
        """Wrap every layer boundary; call after WireCounter.install."""
        self.patch(nn, "train_local", "nn.train_local")
        self.patch(nn, "evaluate", "nn.evaluate")
        self.patch(paillier, "keygen", "paillier.keygen")
        self.patch(paillier, "encrypt", "paillier.encrypt")
        self.patch(paillier, "decrypt", "paillier.decrypt")
        self.patch(paillier, "he_add", "paillier.he_ops")
        self.patch(paillier, "he_scalar_mul", "paillier.he_ops")
        self.patch(aggregate, "encrypt_gradient", "aggregate.encrypt_gradient", _ciphertext_count)
        self.patch(aggregate, "dp_fuse", "aggregate.dp_fuse", _ciphertext_count)
        self.patch(aggregate, "merge_encrypted", "aggregate.merge", _ciphertext_count)
        self.patch(aggregate, "merge_plain", "aggregate.merge")
        self.patch(aggregate, "fedboost_weights", "aggregate.fedboost_weights")
        self.patch(aggregate, "quantize_weight", "quantize.quantize_weight")
        self.patch(qz, "quantize", "quantize.quantize")
        self.patch(qz, "dequantize", "quantize.dequantize")
        self.patch(qz, "check_capacity", "quantize.check_capacity")
        self.patch(protocol, "encode_message", "protocol.encode_message")
        self.patch(protocol, "decode_message", "protocol.decode_message")
        self.patch(CountingEndpoint, "send", "transport.send")
        self.patch(CountingEndpoint, "recv", "transport.recv")
        self.patch(runner, "server_run", "protocol.server_run")
        self.patch(runner, "build_splits", "runner.build_splits")
        self.patch(runner, "decode_gradient_payload", "runner.decode_gradient_payload")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


# --- per-layer metrics from one traced repetition ---------------------------------

def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list, items: dict, wire: dict, rounds: int, train_steps: int) -> dict:
    """Per-layer values of one successful traced repetition. ``train_steps``
    is the number of optimizer steps one run takes over all clients and
    rounds."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    for _id, _parent, name, start, end, _thread in spans:
        by_name.setdefault(name, []).append((start, end))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def busy(name: str) -> float:
        return sum(end - start for start, end in by_name.get(name, ()))

    def per_op(name: str, scale: float) -> float:
        return busy(name) / calls(name) * scale if calls(name) else 0.0

    quantize_names = [n for n in by_name if n.startswith("quantize.")]
    m = {
        "nn.train_local.calls": calls("nn.train_local"),
        "nn.train_local.busy_s": busy("nn.train_local"),
        "nn.train_local.wall_s": _union_seconds(by_name.get("nn.train_local", [])),
        "nn.train_local.us_per_step": busy("nn.train_local") / train_steps * 1e6,
        "nn.evaluate.calls": calls("nn.evaluate"),
        "nn.evaluate.busy_s": busy("nn.evaluate"),
        "paillier.encrypt.calls": calls("paillier.encrypt"),
        "paillier.encrypt.ms_per_op": per_op("paillier.encrypt", 1e3),
        "paillier.decrypt.calls": calls("paillier.decrypt"),
        "paillier.decrypt.ms_per_op": per_op("paillier.decrypt", 1e3),
        "paillier.keygen.calls": calls("paillier.keygen"),
        "paillier.keygen.s": per_op("paillier.keygen", 1.0),
        "paillier.he_ops.calls": calls("paillier.he_ops"),
        "paillier.he_ops.busy_s": busy("paillier.he_ops"),
        "aggregate.dp_fuse.s": busy("aggregate.dp_fuse"),
        "aggregate.merge.s": busy("aggregate.merge"),
        "aggregate.fedboost_weights.s": busy("aggregate.fedboost_weights"),
        "aggregate.ciphertexts_per_round": sum(items.values()) / rounds,
        "quantize.calls": sum(calls(n) for n in quantize_names),
        "quantize.busy_s": sum(busy(n) for n in quantize_names),
        "protocol.server_run.s": busy("protocol.server_run"),
        "protocol.codec.busy_s": busy("protocol.encode_message") + busy("protocol.decode_message"),
    }
    for kind in MESSAGE_KINDS:
        m[f"protocol.messages.{kind}"] = wire["frames"].get(kind, 0)
    for kind in MESSAGE_KINDS:
        m[f"transport.bytes.{kind}"] = wire["bytes"].get(kind, 0)
    m["transport.frames"] = sum(wire["frames"].values())
    m["transport.recv_wait_s"] = busy("transport.recv")
    m["transport.send.busy_s"] = busy("transport.send")
    m["runner.build_splits.s"] = busy("runner.build_splits")
    m["runner.outside_protocol_s"] = busy("runner.run_experiment") - busy("protocol.server_run")
    return m
