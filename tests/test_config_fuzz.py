"""Any valid config gives the same run on both transports.

Hypothesis draws a config: 2 to 4 clients of unequal sizes, 1 to 3 rounds,
fedavg or fedboosting under every encryption valid for it, at 64, 128 or 256
bits, a scale its slots hold, either weighting mode, a valid p_hat, batch size
and seed. It runs on
loopback and over TCP, and the two runs must write the same metrics.csv,
model.json and records.json (without the timing-only ``durations``) byte for
byte, and send the server the same frames, read through the ``server_run``
seam; a run that aborts must abort with the same error on both. No run may
leave a child process or a thread behind, and fedavg without encryption must
end on ``reference_fedavg``'s model. A config that
``validate`` refuses raises a ConfigError before any socket or process is made.
"""

import json
import multiprocessing
import multiprocessing.context
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedboost import runner
from fedboost.config import ClientSpec, ExperimentConfig
from fedboost.datasets import GaussianSpec
from fedboost.errors import ConfigError, FedBoostError
from fedboost.quantize import QuantConfig

from test_protocol import reference_fedavg

OUTPUTS = ("metrics.csv", "model.json", "records.json")
ENCRYPTIONS = {"fedavg": ("none", "he"), "fedboosting": ("none", "he", "he_dp")}
IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def client(count: int, seed: int, horizontal: bool) -> ClientSpec:
    """``count`` samples in two unit clusters, one per label, split left and
    right or down and up."""
    means = ((-2.0, 0.0), (2.0, 0.0)) if horizontal else ((0.0, -2.0), (0.0, 2.0))
    counts = (count // 2, count - count // 2)
    clusters = tuple(GaussianSpec(m, IDENTITY, label, n) for label, (m, n) in enumerate(zip(means, counts)))
    return ClientSpec(clusters=clusters, seed=seed)


@st.composite
def valid_configs(draw) -> dict:
    n = draw(st.integers(2, 4))
    key_bits = draw(st.sampled_from([64, 128, 256]))
    return dict(
        clients=tuple(
            client(draw(st.integers(100, 400)), draw(st.integers(0, 2**16)), k % 2 == 0) for k in range(n)
        ),
        rounds=draw(st.integers(1, 3)),
        key_bits=key_bits,
        # validate refuses the default scale at 64 bits, where no slot holds it
        quant=QuantConfig(scale_exponent=12 if key_bits == 64 else draw(st.sampled_from([12, 32]))),
        weighting_mode=draw(st.sampled_from(["literal", "score"])),
        # over 1/2, so the own model dominates its fusion for any N >= 2
        p_hat=draw(st.sampled_from([0.55, 0.7, 0.9, 0.95])),
        batch_size=draw(st.integers(4, 32)),
        master_seed=draw(st.integers(0, 2**16)),
        timeout_s=20.0,
    )


def _run(cfg: ExperimentConfig):
    """The final model and outputs of a run of ``cfg``, or the error that ended it."""
    try:
        final = runner.run_experiment(cfg).final_params
    except FedBoostError as exc:
        return f"{type(exc).__name__}: {exc}", {}
    outputs = {name: (Path(cfg.out_dir) / name).read_bytes() for name in OUTPUTS}
    records = json.loads(outputs["records.json"])
    for record in records:
        del record["durations"]
    outputs["records.json"] = json.dumps(records, indent=2, sort_keys=True).encode()
    return final, outputs


# every mode combination gets its own examples
@pytest.mark.parametrize(
    "aggregator, encryption", [(a, e) for a, modes in ENCRYPTIONS.items() for e in modes]
)
@settings(max_examples=12, deadline=None)
@given(drawn=valid_configs())
def test_a_valid_config_gives_the_same_run_on_both_transports(aggregator, encryption, drawn):
    fields = dict(drawn, aggregator=aggregator, encryption=encryption)
    threads = threading.active_count()
    transcripts, runs = {}, {}
    serve = runner.server_run
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for kind in ("loopback", "tcp"):

            def recorded(cfg, endpoints, transcript=None, kind=kind):
                transcripts[kind] = []
                return serve(cfg, endpoints, transcripts[kind])

            mp.setattr(runner, "server_run", recorded)
            cfg = ExperimentConfig(**fields, transport=kind, out_dir=f"{tmp}/{kind}")
            runs[kind] = _run(cfg)
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads
    assert transcripts["loopback"] and transcripts["loopback"] == transcripts["tcp"]
    (loop_final, loop_outputs), (tcp_final, tcp_outputs) = runs["loopback"], runs["tcp"]
    if isinstance(loop_final, str):
        assert tcp_final == loop_final
        return
    assert np.array_equal(loop_final.values, tcp_final.values)
    assert loop_outputs == tcp_outputs
    if (aggregator, encryption) == ("fedavg", "none"):
        assert np.array_equal(tcp_final.values, reference_fedavg(cfg, runner.build_splits(cfg)).values)


# each refused config: its overrides of a valid TCP config, and the field the ConfigError names
REFUSED = [
    (dict(aggregator="fedboosting", n_clients=1), "clients"),
    (dict(aggregator="fedavg", encryption="he_dp"), "encryption"),
    (dict(aggregator="centralized", encryption="he"), "encryption"),
    (dict(encryption="he", key_bits=63), "key_bits"),
    (dict(encryption="he", key_bits=48), "key_bits"),
    (dict(encryption="he", key_bits=64), "quant"),
    (dict(aggregator="fedboosting", encryption="he_dp", p_hat=0.2, n_clients=4), "p_hat"),
    (dict(rounds=0), "rounds"),
    (dict(batch_size=0), "batch_size"),
    (dict(epochs=0), "epochs"),
    (dict(n_hidden=0), "n_hidden"),
    (dict(timeout_s=0.0), "timeout_s"),
    (dict(learning_rate=-0.1), "learning_rate"),
]


@st.composite
def refused_configs(draw) -> tuple[dict, str]:
    overrides, named = draw(st.sampled_from(REFUSED))
    overrides = dict(overrides)
    n = overrides.pop("n_clients", draw(st.integers(2, 4)))
    fields = dict(
        clients=tuple(client(200, k, k % 2 == 0) for k in range(n)),
        rounds=1,
        transport=draw(st.sampled_from(["loopback", "tcp"])),
        master_seed=draw(st.integers(0, 2**16)),
    )
    return {**fields, **overrides}, named


@settings(max_examples=24, deadline=None)
@given(case=refused_configs())
def test_a_refused_config_fails_before_any_socket_or_fork(case):
    fields, named = case
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "tcp_pairs", lambda *args: made.append("pairs"))
        mp.setattr(multiprocessing.context.ForkProcess, "start", lambda proc: made.append("fork"))
        with pytest.raises(ConfigError, match=rf"^{named}: "):
            runner.run_experiment(ExperimentConfig(**fields))
    assert made == []
    assert multiprocessing.active_children() == []
