"""Any sequence of server frames drives a ClientSession to replies or an ABORT.

A hypothesis state machine starts one session of a none, he or he_dp cohort
part way through a clean run, then feeds it well-formed server frames at the
round it is in, well-formed frames of every kind at any round, and arbitrary
bodies under any kind byte, their fields valid, huge or random bytes; a
pending session may be asked for its upload. Every step returns (kind, body)
pairs that decode_message accepts and raises nothing. A session that ends on
a frame other than the server's ABORT or the final gradient ends with an
ABORT as its last reply, and a session that has ended replies no more.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from fedboost import paillier
from fedboost.protocol import (
    ClientSession,
    Message,
    MessageKind,
    decode_message,
    encode_message,
    field_widths,
    floats_to_bytes,
)

from test_protocol import LAID_OUT, client_split, cohort_key, make_settings

ENCRYPTIONS = ["none", "he", "he_dp"]
SETTINGS = {e: make_settings(encryption=e) for e in ENCRYPTIONS}
KEYS = {e: cohort_key(s) for e, s in SETTINGS.items()}
# 40 points per client, so local training is 4 batches
SPLITS = {cid: client_split(cid, n_each=20) for cid in (1, 2)}


def _upload(encryption: str) -> dict:
    """A gradient payload as a client uploads it under ``encryption``."""
    settings = SETTINGS[encryption]
    session = ClientSession(settings, 2, SPLITS[2], KEYS[encryption])
    session.respond(*encode_message(Message(MessageKind.GLOBAL_GRADIENT, 1, {}), settings))
    [reply] = session.upload()
    return decode_message(*reply, settings).payload["gradient"]


UPLOADS = {e: _upload(e) for e in ENCRYPTIONS}


def _filled(widths, leaf, name=None):
    """A payload of the shape ``widths`` gives, ``leaf(name, width)`` in each field."""
    if isinstance(widths, dict):
        return {key: _filled(w, leaf, key) for key, w in widths.items()}
    if isinstance(widths, list):
        return [_filled(w, leaf, name) for w in widths]
    return leaf(name, widths)


# how a frame's fields are filled: see ClientSessionMachine.field
CONTENTS = st.sampled_from(["valid", "huge", "random"])
RNGS = st.randoms(use_true_random=False)
SERVER_KINDS = [MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT, MessageKind.MERGED_GRADIENT]
# the server's side of a clean 2-round run
HONEST = [MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT] * 2 + [MessageKind.MERGED_GRADIENT]


class ClientSessionMachine(RuleBasedStateMachine):
    @initialize(
        encryption=st.sampled_from(ENCRYPTIONS),
        client_id=st.sampled_from([1, 2]),
        prefix=st.integers(0, len(HONEST)),
        last=CONTENTS,
        rng=RNGS,
    )
    def start(self, encryption, client_id, prefix, last, rng):
        """A session that has taken the first ``prefix`` server frames of a
        clean run, so that every state is reached, the last filled as ``last``
        gives."""
        self.settings = SETTINGS[encryption]
        self.keypair = KEYS[encryption]
        self.upload_payload = UPLOADS[encryption]
        self.session = ClientSession(self.settings, client_id, SPLITS[client_id], self.keypair)
        self.step(self.session.startup)
        for at, kind in enumerate(HONEST[:prefix], 1):
            self.frame_at_its_round(kind, last if at == prefix else "valid", rng, True)

    @rule(kind=st.sampled_from(SERVER_KINDS), content=CONTENTS, rng=RNGS, then_upload=st.booleans())
    def frame_at_its_round(self, kind, content, rng, then_upload):
        """A server frame of the round the session is in, or a broadcast of the
        next. A session it leaves pending uploads at once if ``then_upload``, as
        a TCP client does, or else takes the frames that follow pending."""
        round_no = self.session.round + (kind == MessageKind.GLOBAL_GRADIENT)
        self.well_formed_frame(kind, round_no, content, rng, "")
        if then_upload and self.session.pending and not self.session.done:
            self.upload()

    @rule(
        kind=st.sampled_from(LAID_OUT),
        round_no=st.integers(0, 3),
        content=CONTENTS,
        rng=RNGS,
        reason=st.text(max_size=8),
    )
    def well_formed_frame(self, kind, round_no, content, rng, reason):
        widths = field_widths(kind, round_no, self.settings)
        payload = _filled(widths, lambda name, width: self.field(content, rng, name, width))
        if kind == MessageKind.ABORT:
            payload = {"reason": reason}
        frame = encode_message(Message(kind, round_no, payload), self.settings)
        self.step(lambda: self.session.respond(*frame), frame)

    def field(self, content, rng, name, width):
        """The bytes of field ``name``: for "valid", a real upload's where they
        fit, else zeros (valid floats, an invalid modulus); for "huge", the
        largest ciphertexts under the cohort key or floats of 1e308, which
        training does not survive; else random bytes from ``rng``, under the
        cohort key's fingerprint half the time."""
        upload = self.upload_payload.get(name, b"")
        if content == "valid" or name == "key" and (content == "huge" or rng.random() < 0.5):
            return upload if len(upload) == width else bytes(width)
        if content == "random":
            return rng.randbytes(width)
        if name == "ciphertexts":
            n = self.keypair.public.n
            size = paillier.byte_width(2 * self.settings.key_bits)
            return (n * n - 1).to_bytes(size, "big") * (width // size)
        return floats_to_bytes([1e308] * (width // 8))

    @rule(kind=st.integers(0, 255), body=st.binary(max_size=64))
    def arbitrary_frame(self, kind, body):
        self.step(lambda: self.session.respond(kind, body), (kind, body))

    @precondition(lambda self: self.session.pending and not self.session.done)
    @rule()
    def upload(self):
        self.step(self.session.upload)

    def step(self, call, frame=None):
        """``call()``, the replies to ``frame`` or to no frame: well-formed
        pairs, none once the session has ended, and an ABORT only as the last,
        which ends it. Only the server's ABORT or final gradient ends it
        without one."""
        was_done = self.session.done
        replies = call()
        assert isinstance(replies, list)
        for reply in replies:
            assert isinstance(reply, tuple) and len(reply) == 2
            assert isinstance(reply[0], int) and isinstance(reply[1], bytes)
        kinds = [decode_message(*reply, self.settings).kind for reply in replies]
        if was_done:
            assert replies == []
            return
        assert MessageKind.ABORT not in kinds[:-1]
        if MessageKind.ABORT in kinds:
            assert self.session.done
        elif self.session.done:
            assert frame is not None, "a session ended without an ABORT on no frame"
            msg = decode_message(*frame, self.settings)
            assert msg.kind in (MessageKind.ABORT, MessageKind.MERGED_GRADIENT)
            # client 1 alone answers the final gradient, with the final model
            final = msg.kind == MessageKind.MERGED_GRADIENT and self.session.client_id == 1
            assert kinds == ([MessageKind.FINAL_MODEL] if final else [])


TestClientSessionMachine = ClientSessionMachine.TestCase
TestClientSessionMachine.settings = settings(max_examples=40, stateful_step_count=12, deadline=None)
TestClientSessionMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(TestClientSessionMachine)
