"""Byte-identical outputs, pinned: a small panel of runs, two seeds each,
whose metrics.csv, model.json and records.json (without the timing-only
``durations``) must keep the digests in ``pinned_outputs.json``.

Floats depend on the numpy build and the machine, so the file records the
numpy version and the platform it was pinned on, and a mismatch fails naming
both. A change that alters an output on purpose re-pins the file and says why:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.runner import run_experiment

PINS = Path(__file__).with_name("pinned_outputs.json")
SEEDS = (0, 1)
# fedboosting unless named, 128-bit keys unless named
PANEL = {
    "fb_none": dict(encryption="none"),
    "fb_he": dict(encryption="he"),
    "fb_he_dp": dict(encryption="he_dp"),
    "fb_he_literal": dict(encryption="he", weighting_mode="literal"),
    "fb_he_dp_256": dict(encryption="he_dp", key_bits=256),
    "avg_he_tcp": dict(aggregator="fedavg", encryption="he", transport="tcp"),
    "fb_none_tcp": dict(encryption="none", transport="tcp"),
    "centralized": dict(aggregator="centralized"),
}
OUTPUTS = ("metrics.csv", "model.json", "records.json")


def _machine() -> dict:
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def output_digests(name: str, seed: int, out_dir: Path, **overrides) -> dict[str, str]:
    """sha256, first 16 hex digits, of each output of panel run ``name`` at ``seed``."""
    cfg = ExperimentConfig(
        clients=two_client_noniid(400, master_seed=seed),
        rounds=2,
        master_seed=seed,
        out_dir=str(out_dir),
        **{**PANEL[name], **overrides},
    )
    run_experiment(cfg)
    digests = {}
    for output in OUTPUTS:
        raw = (out_dir / output).read_bytes()
        if output == "records.json":
            records = json.loads(raw)
            for record in records:
                del record["durations"]
            raw = json.dumps(records, indent=2, sort_keys=True).encode()
        digests[output] = hashlib.sha256(raw).hexdigest()[:16]
    return digests


@pytest.fixture(scope="module")
def pins() -> dict:
    doc = json.loads(PINS.read_text())
    pinned_on = {key: doc[key] for key in _machine()}
    if pinned_on != _machine():
        pytest.fail(f"outputs pinned on {pinned_on}, running on {_machine()}: re-pin on this machine")
    return doc["digests"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PANEL))
def test_outputs_keep_their_digests(pins, tmp_path, name, seed):
    digests = output_digests(name, seed, tmp_path / "run")
    assert digests == pins[f"{name}/{seed}"]
    if PANEL[name].get("transport") == "tcp":
        assert output_digests(name, seed, tmp_path / "loopback", transport="loopback") == digests


def repin() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PANEL):
            for seed in SEEDS:
                digests[f"{name}/{seed}"] = output_digests(name, seed, Path(tmp) / f"{name}-{seed}")
    PINS.write_text(json.dumps({**_machine(), "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} runs in {PINS}")


if __name__ == "__main__":
    repin()
