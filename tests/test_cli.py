import json

import pytest

from fedboost import paillier
from fedboost.cli import main
from fedboost.config import config_to_dict, default_config, two_client_noniid, ExperimentConfig


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = ExperimentConfig(
        clients=two_client_noniid(200, master_seed=2),
        rounds=2,
        master_seed=2,
        aggregator="fedboosting",
        encryption="none",
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tiny_config_path), "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "model.json").exists()
        stdout = capsys.readouterr().out
        assert "final:" in stdout and "round 2:" in stdout

    def test_cli_overrides(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                str(tiny_config_path),
                "--aggregator",
                "fedavg",
                "--encryption",
                "he",
                "--rounds",
                "1",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        written = json.loads((out / "config.json").read_text())
        assert written["aggregator"] == "fedavg"
        assert written["encryption"] == "he"
        assert written["rounds"] == 1
        assert written["master_seed"] == 9

    def test_invalid_config_exits_nonzero_with_json_error(self, tmp_path, tiny_config_path, capsys):
        data = json.loads(tiny_config_path.read_text())
        data["rounds"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--config", str(bad)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "rounds" in err["detail"]


class TestBoundaryCommand:
    def test_grid_export(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config_path), "--out", str(out)]) == 0
        grid = tmp_path / "grid.csv"
        code = main(
            ["boundary", "--model", str(out / "model.json"), "--out", str(grid), "--steps", "2"]
        )
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "x,y,p_class1"
        assert len(lines) == 5

    def test_missing_model_errors(self, tmp_path, capsys):
        code = main(["boundary", "--model", str(tmp_path / "none.json"), "--out", str(tmp_path / "g.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoError"


class TestKeybenchCommand:
    def test_reports_timings(self, capsys):
        code = main(["keybench", "--key-bits", "128", "--trials", "20"])
        assert code == 0
        stdout = capsys.readouterr().out
        for label in ("keygen:", "encrypt:", "decrypt:", "he_add:", "scalar_mul:"):
            assert label in stdout
        assert "slots:              1 entries per ciphertext" in stdout

    def test_reports_slots_per_ciphertext(self, capsys):
        assert main(["keybench", "--key-bits", "512", "--trials", "2"]) == 0
        assert "slots:              4 entries per ciphertext" in capsys.readouterr().out

    def test_wrong_decryption_exits_nonzero(self, capsys, monkeypatch):
        real_decrypt = paillier.decrypt
        monkeypatch.setattr(paillier, "decrypt", lambda kp, c: real_decrypt(kp, c) ^ 1)
        code = main(["keybench", "--key-bits", "64", "--trials", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "decrypt:" in captured.out
        err = json.loads(captured.err.strip())
        assert err["detail"] == "5 of 5 decryptions differ from the plaintext"


def test_default_config_is_full_scale():
    cfg = default_config()
    assert len(cfg.clients) == 2
    assert sum(c.count for c in cfg.clients[0].clusters) == 40000
    assert cfg.batch_size == 8 and cfg.epochs == 1 and cfg.learning_rate == 0.003
    assert cfg.rounds == 50
