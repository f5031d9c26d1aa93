"""Faults injected into live runs: each must end the run quickly with a
RoundAborted or ProtocolViolation that names the client, and leave no child
process behind."""

import multiprocessing
import time

import pytest

from fedboost import runner
from fedboost.config import ExperimentConfig, two_client_noniid
from fedboost.errors import RoundAborted

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
