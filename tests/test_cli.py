import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fedboost
from fedboost.cli import build_parser, main
from fedboost.config import (
    ExperimentConfig,
    GridSpec,
    config_from_dict,
    config_to_dict,
    default_config,
    two_client_noniid,
)


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


def cluster(**overrides) -> dict:
    return {"mean": [0, 0], "covariance": [[1, 0], [0, 1]], "label": 0, "count": 5, **overrides}


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
                "--transport",
                "tcp",
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
        assert written["transport"] == "tcp"
        assert written["rounds"] == 1
        assert written["master_seed"] == 9

        # a flag left out, or an empty --out, keeps the config file's value
        data = json.loads(tiny_config_path.read_text())
        data["out_dir"] = str(tmp_path / "kept")
        tiny_config_path.write_text(json.dumps(data))
        assert main(["run", "--config", str(tiny_config_path), "--rounds", "1", "--out", ""]) == 0
        kept = json.loads((tmp_path / "kept" / "config.json").read_text())
        assert kept == {**data, "rounds": 1}

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

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("clients", [1], "clients[0]"),
            ("clients", 5, "clients"),
            ("clients", [{"seed": 1, "clusters": 5}], "clients[0].clusters"),
            ("rounds", "3", "rounds"),
            ("rounds", True, "rounds"),
            ("p_hat", "0.9", "p_hat"),
            ("out_dir", 7, "out_dir"),
            ("quant", 5, "quant"),
            ("clients", [{"seed": 1, "clusters": [cluster(mean="ab")]}], "clients[0].clusters[0]"),
            ("clients", [{"seed": 1, "clusters": [cluster(mean=[0, 0, 0])]}], "clients[0].clusters[0]"),
            # numpy would read these entries as numbers
            ("clients", [{"seed": 1, "clusters": [cluster(mean=["-2", 0])]}], "clients[0].clusters[0]"),
            ("clients", [{"seed": 1, "clusters": [cluster(mean=[True, 0])]}], "clients[0].clusters[0]"),
            (
                "clients",
                [{"seed": 1, "clusters": [cluster(covariance=[["1", 0], [0, 1]])]}],
                "clients[0].clusters[0]",
            ),
            # nested scalars follow the rule of top-level ones
            ("quant", {"scale_exponent": "3", "pieces": 100}, "quant.scale_exponent"),
            ("quant", {"scale_exponent": 3, "pieces": 1.5}, "quant.pieces"),
            ("clients", [{"seed": "7", "clusters": [cluster()]}], "clients[0].seed"),
            ("clients", [{"seed": 1, "poison_flip_frac": "0.5", "clusters": [cluster()]}], "clients[0].poison_flip_frac"),
            ("clients", [{"seed": 1, "clusters": [cluster(count=100.7)]}], "clients[0].clusters[0].count"),
            ("clients", [{"seed": 1, "clusters": [cluster(), cluster(label=True)]}], "clients[0].clusters[1].label"),
        ],
    )
    def test_mistyped_field_exits_with_json_error_naming_it(
        self, tmp_path, tiny_config_path, capsys, field, value, named
    ):
        data = json.loads(tiny_config_path.read_text())
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith(f"{named}: ")

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            # the runner picks an ephemeral loopback port itself; no field sets one
            ("tcp_port", 0, "tcp_port: unknown field"),
            ("timeout_s", math.nan, "timeout_s: must be finite and > 0, got nan"),
            ("timeout_s", math.inf, "timeout_s: must be finite and > 0, got inf"),
            ("learning_rate", math.nan, "learning_rate: must be finite and > 0, got nan"),
            ("learning_rate", math.inf, "learning_rate: must be finite and > 0, got inf"),
            (
                "clients",
                [{"seed": 1, "clusters": [cluster(mean=[math.nan, 0])]}],
                "clients[0].clusters[0]: bad cluster spec: mean must be 2 finite numbers",
            ),
            (
                "clients",
                [{"seed": 1, "clusters": [cluster(covariance=[[math.inf, 0], [0, 1]])]}],
                "clients[0].clusters[0]: bad cluster spec: covariance must be 2x2 finite",
            ),
            # json reads integers of any size; 10**400 is beyond float range
            pytest.param(
                "learning_rate",
                10**400,
                "learning_rate: must lie within float range",
                id="learning_rate-10**400",
            ),
            pytest.param(
                "timeout_s", 10**400, "timeout_s: must lie within float range", id="timeout_s-10**400"
            ),
            pytest.param(
                "clients",
                [{"seed": 1, "poison_flip_frac": 10**400, "clusters": [cluster()]}],
                "clients[0].poison_flip_frac: must lie within float range",
                id="poison_flip_frac-10**400",
            ),
            pytest.param(
                "clients",
                [{"seed": 1, "clusters": [cluster(mean=[10**400, 0])]}],
                "clients[0].clusters[0]: bad cluster spec: mean must be 2 finite numbers",
                id="mean-10**400",
            ),
            # numpy takes no dimension beyond the largest intp
            pytest.param(
                "clients",
                [
                    {"seed": 1, "clusters": [cluster(count=10**400), cluster(label=1)]},
                    {"seed": 2, "clusters": [cluster(), cluster(label=1)]},
                ],
                "clients[0].clusters[0]: bad cluster spec: count must lie in [0, ",
                id="count-10**400",
            ),
            # one sample per cluster leaves no test part to split off
            pytest.param(
                "clients",
                [
                    {"seed": 1, "clusters": [cluster(), cluster(label=1)]},
                    {"seed": 2, "clusters": [cluster(count=1), cluster(label=1, count=1)]},
                ],
                "clients[1].clusters: test part is empty for n=2",
                id="too-few-to-split",
            ),
        ],
    )
    def test_unusable_value_exits_with_json_error_naming_it(
        self, tmp_path, tiny_config_path, capsys, field, value, detail
    ):
        # json reads NaN and Infinity literals
        data = json.loads(tiny_config_path.read_text())
        data.update({field: value, "transport": "tcp"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith(detail)

    def test_samples_beyond_memory_exit_with_json_error(self, tmp_path, tiny_config_path):
        # numpy takes 2**40 rows as a dimension but cannot allocate their 16 TiB;
        # the child's own address-space limit makes that fail at once, whatever
        # the host's overcommit policy
        data = json.loads(tiny_config_path.read_text())
        data["clients"][0]["clusters"][0]["count"] = 2**40
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        limit = 3 * 2**30
        src = Path(fedboost.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "fedboost", "run", "--config", str(bad)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith("clients[0].clusters: ")

    def test_unwritable_artifact_exits_with_json_error(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "out"
        (out / "config.json").mkdir(parents=True)
        assert main(["run", "--config", str(tiny_config_path), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoError"
        assert err["detail"].startswith(f"cannot write config to {out / 'config.json'}: ")


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"values": [0.0] * 42},
            {"layout": [[2, 8], [8, 2]], "values": "x"},
            {"layout": [[2, 8], [8, 2]], "values": [0.0] * 41},
            {"layout": 3, "values": [0.0] * 42},
            [],
            # a network other than 2-n_hidden-2, of 42 values where that fits
            {"layout": [[2, 4], [4, 4], [4, 2]], "values": [0.0] * 42},
            {"layout": [[2, 8], [4, 2]], "values": [0.0] * 42},
            {"layout": [[3, 8], [8, 2]], "values": [0.0] * 50},
            {"layout": [[2, 8], [8, 3]], "values": [0.0] * 51},
            {"layout": [[2, 8.0], [8.0, 2]], "values": [0.0] * 42},
            {"layout": [[2, 8]], "values": [0.0] * 24},
            {"layout": [], "values": []},
        ],
    )
    def test_malformed_model_errors_naming_the_file(self, tmp_path, capsys, doc):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert main(["boundary", "--model", str(model), "--out", str(tmp_path / "g.csv")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoError"
        assert str(model) in err["detail"]


def test_boundary_grid_defaults_are_gridspecs():
    args = build_parser().parse_args(["boundary", "--model", "m.json", "--out", "g.csv"])
    assert GridSpec(args.xmin, args.xmax, args.ymin, args.ymax, args.steps) == GridSpec()


def test_default_config_is_full_scale():
    cfg = default_config()
    assert len(cfg.clients) == 2
    assert sum(c.count for c in cfg.clients[0].clusters) == 40000
    assert cfg.batch_size == 8 and cfg.epochs == 1 and cfg.learning_rate == 0.003
    assert cfg.rounds == 50


def test_readme_config_example_loads():
    """The README's JSON config example names only fields that exist and passes validation."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [example] = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    cfg = config_from_dict(json.loads(example))
    cfg.validate()
    assert (cfg.encryption, cfg.rounds, len(cfg.clients)) == ("he_dp", 20, 2)
