"""Any sequence of server frames drives a ClientSession to replies or an ABORT.

A hypothesis state machine starts one session of a none, he or he_dp cohort
part way through a clean run, then feeds it the server frame it awaits, after
the upload it owes. In two examples of three the server is clean and plays
the run to its final gradient. A faulty server also sends well-formed frames
of every kind at any round, and arbitrary bodies under any kind byte, their
fields valid, huge or random bytes; a session that owes its upload may be
asked for it. Every step returns nothing, raises nothing, and queues (kind,
body) pairs in the session's outbox that decode_message accepts. A session
that ends on a frame other than the server's ABORT or the final gradient ends
with an ABORT as its last reply, and a session that has ended replies no more.
How each example ended is a hypothesis event, so
``pytest --hypothesis-show-statistics`` prints the share of each ending.
"""

import pytest
from hypothesis import event, settings
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
    session.upload()
    [reply] = session.outbox
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
# two servers in three are clean
FAULTY = st.sampled_from([False, False, True])
# the server's side of a clean 2-round run
HONEST = [MessageKind.GLOBAL_GRADIENT, MessageKind.FUSED_GRADIENT] * 2 + [MessageKind.MERGED_GRADIENT]


class ClientSessionMachine(RuleBasedStateMachine):
    @initialize(
        encryption=st.sampled_from(ENCRYPTIONS),
        client_id=st.sampled_from([1, 2]),
        prefix=st.integers(0, len(HONEST)),
        last=CONTENTS,
        rng=RNGS,
        faulty=FAULTY,
    )
    def start(self, encryption, client_id, prefix, last, rng, faulty):
        """A session that has taken the first ``prefix`` server frames of a
        clean run, so that every state is reached, the last filled as ``last``
        gives when the server is ``faulty``."""
        self.settings = SETTINGS[encryption]
        self.keypair = KEYS[encryption]
        self.upload_payload = UPLOADS[encryption]
        self.faulty = faulty
        self.ending = "not ended"
        self.session = ClientSession(self.settings, client_id, SPLITS[client_id], self.keypair)
        # the frames it queued when it was built
        self.step(lambda: None)
        for at in range(1, prefix + 1):
            self.frame_at_its_round(last if at == prefix else "valid", rng)

    def teardown(self):
        """A clean server plays the run to its final gradient, whichever rules
        the example enabled; then how the session ended is reported."""
        if not hasattr(self, "session"):  # the example ended before start ran
            return
        while not (self.faulty or self.session.done):
            self.frame_at_its_round("valid", None)
        event("server", "faulty" if self.faulty else "clean")
        event("ended", self.ending)

    @rule(content=CONTENTS, rng=RNGS)
    def frame_at_its_round(self, content, rng):
        """The server frame the session awaits, after the upload it owes, as a
        TCP client uploads as soon as it has the broadcast; a clean server's
        fields are valid."""
        if self.session.awaits is None:
            self.upload()
        if not self.session.done:
            self.well_formed_frame(*self.session.awaits, content if self.faulty else "valid", rng, "")

    @precondition(lambda self: self.faulty)
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

    @precondition(lambda self: self.faulty)
    @rule(kind=st.integers(0, 255), body=st.binary(max_size=64))
    def arbitrary_frame(self, kind, body):
        self.step(lambda: self.session.respond(kind, body), (kind, body))

    @precondition(lambda self: self.session.awaits is None and not self.session.done)
    @rule()
    def upload(self):
        self.step(self.session.upload)

    def step(self, call, frame=None):
        """``call()``, then the replies it queued to ``frame`` or to no frame,
        taken from the outbox: well-formed pairs, none once the session has
        ended, and an ABORT only as the last, which ends it. Only the server's
        ABORT or final gradient ends it without one."""
        was_done = self.session.done
        assert call() is None
        replies = list(self.session.outbox)
        self.session.outbox.clear()
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
            self.ending = "with its own ABORT"
        elif self.session.done:
            assert frame is not None, "a session ended without an ABORT on no frame"
            msg = decode_message(*frame, self.settings)
            assert msg.kind in (MessageKind.ABORT, MessageKind.MERGED_GRADIENT)
            self.ending = f"on the server's {msg.kind.name}"
            # client 1 alone answers the final gradient, with the final model
            final = msg.kind == MessageKind.MERGED_GRADIENT and self.session.client_id == 1
            assert kinds == ([MessageKind.FINAL_MODEL] if final else [])


TestClientSessionMachine = ClientSessionMachine.TestCase
TestClientSessionMachine.settings = settings(max_examples=120, stateful_step_count=12, deadline=None)
TestClientSessionMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(TestClientSessionMachine)
