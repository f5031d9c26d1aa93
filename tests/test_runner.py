import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fedboost
from fedboost import nn, paillier, protocol, runner
from fedboost.config import (
    ClientSpec,
    ExperimentConfig,
    GridSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    two_client_noniid,
)
from fedboost.errors import ConfigError, IoError
from fedboost.runner import (
    build_splits,
    export_boundary,
    export_metrics,
    load_model,
    run_experiment,
    save_model,
)


def desk_config(**overrides) -> ExperimentConfig:
    base = dict(
        clients=two_client_noniid(400, master_seed=5),
        rounds=3,
        master_seed=5,
        aggregator="fedboosting",
        encryption="none",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigError, match="rounds"):
            run_experiment(desk_config(rounds=0))

    def test_he_dp_requires_fedboosting(self):
        with pytest.raises(ConfigError, match="encryption"):
            desk_config(aggregator="fedavg", encryption="he_dp").validate()

    def test_centralized_cannot_encrypt(self):
        with pytest.raises(ConfigError, match="encryption"):
            desk_config(aggregator="centralized", encryption="he").validate()

    def test_fedboosting_needs_two_clients(self):
        cfg = desk_config()
        cfg.clients = cfg.clients[:1]
        with pytest.raises(ConfigError, match="clients"):
            cfg.validate()

    def test_unknown_aggregator(self):
        with pytest.raises(ConfigError, match="aggregator"):
            desk_config(aggregator="fedprox").validate()

    def test_tcp_needs_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ConfigError, match="^transport: tcp forks"):
            desk_config(transport="tcp").validate()

    def test_poison_fraction_bounds(self):
        cfg = desk_config()
        bad = ClientSpec(clusters=cfg.clients[0].clusters, seed=1, poison_flip_frac=1.5)
        cfg.clients = (bad, cfg.clients[1])
        with pytest.raises(ConfigError, match="poison_flip_frac"):
            cfg.validate()

    def test_json_roundtrip(self, tmp_path):
        cfg = desk_config(encryption="he_dp", out_dir=str(tmp_path / "out"))
        data = config_to_dict(cfg)
        assert config_from_dict(json.loads(json.dumps(data))) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="gpu_count"):
            config_from_dict({"gpu_count": 4})
        # a config.json written before dp_jitter was deleted
        old = json.loads(json.dumps(config_to_dict(desk_config())))
        with pytest.raises(ConfigError, match="^dp_jitter: unknown field$") as info:
            config_from_dict({**old, "dp_jitter": 0.0})
        assert info.value.field == "dp_jitter"
        # a misspelt nested key would otherwise leave its field at the default
        poisoned = json.loads(json.dumps(old))
        poisoned["clients"][1]["poison_frac"] = 0.5
        quant = {**old, "quant": {**old["quant"], "scale_exp": 3}}
        lable = json.loads(json.dumps(old))
        lable["clients"][0]["clusters"][1]["lable"] = 1
        for data, field in (
            (poisoned, "clients[1].poison_frac"),
            (quant, "quant.scale_exp"),
            (lable, "clients[0].clusters[1].lable"),
        ):
            with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: unknown field$") as info:
                config_from_dict(data)
            assert info.value.field == field

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))


class TestSplits:
    def test_poisoning_applied_to_train_only(self):
        cfg = desk_config()
        poisoned_cfg = desk_config(
            clients=two_client_noniid(400, master_seed=5, poison_client=2, poison_flip_frac=0.5)
        )
        clean = build_splits(cfg)[1]
        poisoned = build_splits(poisoned_cfg)[1]
        flips = (clean.train.y != poisoned.train.y).sum()
        assert flips == int(round(0.5 * len(clean.train)))
        assert np.array_equal(clean.validation.y, poisoned.validation.y)
        assert np.array_equal(clean.test.y, poisoned.test.y)


class TestRunExperiment:
    def test_fedboosting_records_have_weights_and_matrix(self):
        result = run_experiment(desk_config())
        assert len(result.records) == 3
        for rec in result.records:
            assert rec.weights is not None and abs(sum(rec.weights) - 1.0) < 1e-12
            assert np.array(rec.validation).shape == (2, 2)
            assert 0.0 <= rec.global_test_acc <= 1.0

    def test_fedavg_records_have_no_weights(self):
        result = run_experiment(desk_config(aggregator="fedavg"))
        for rec in result.records:
            assert rec.weights is None and rec.validation is None

    def test_boost_weights_leave_uniform_on_noniid_data(self):
        result = run_experiment(desk_config())
        weights = np.array([rec.weights for rec in result.records])
        assert np.abs(weights - 0.5).max() > 1e-6

    def test_centralized_runs_and_reports(self):
        result = run_experiment(desk_config(aggregator="centralized"))
        assert len(result.records) == 3
        assert len(result.records[0].train_losses) == 1
        assert result.final_test_acc > 0.5

    def test_single_round_he_fedavg_within_merge_bound_of_plaintext(self):
        from fedboost.protocol import derive_seed

        cfg = desk_config(aggregator="fedavg", rounds=1)
        plain = run_experiment(cfg)
        enc = run_experiment(desk_config(aggregator="fedavg", rounds=1, encryption="he"))
        # both runs share the round-1 gradients; only the merge path differs
        initial = nn.init_params(derive_seed(cfg.master_seed, "init"), cfg.layout)
        grads = [
            nn.train_local(
                initial,
                split_part,
                cfg.batch_size,
                cfg.epochs,
                cfg.learning_rate,
                derive_seed(cfg.master_seed, "shuffle", 1, cid),
            ).gradient
            for cid, split_part in enumerate(build_splits(cfg), start=1)
        ]
        P, S = cfg.quant.pieces, cfg.quant.scale
        bound = sum(np.abs(g) for g in grads) / (2 * P) + len(grads) * P / (2 * S)
        diff = np.abs(enc.final_params.values - plain.final_params.values)
        assert np.all(diff <= bound)

    def test_reproducible_final_model(self):
        a = run_experiment(desk_config(encryption="he_dp"))
        b = run_experiment(desk_config(encryption="he_dp"))
        assert np.array_equal(a.final_params.values, b.final_params.values)

    def test_transports_yield_identical_transcripts(self, monkeypatch):
        transcripts = []
        serve = runner.server_run

        def recorded(settings, endpoints, transcript=None):
            transcripts.append([])
            return serve(settings, endpoints, transcripts[-1])

        monkeypatch.setattr(runner, "server_run", recorded)
        cfg = dict(
            clients=two_client_noniid(200, master_seed=6),
            rounds=2,
            master_seed=6,
            aggregator="fedboosting",
            encryption="he_dp",
        )
        loop = run_experiment(ExperimentConfig(**cfg, transport="loopback"))
        tcp = run_experiment(ExperimentConfig(**cfg, transport="tcp"))
        [loop_frames, tcp_frames] = transcripts
        assert loop_frames and loop_frames == tcp_frames
        assert np.array_equal(loop.final_params.values, tcp.final_params.values)

    @pytest.mark.parametrize("encryption", ["none", "he"])
    def test_tcp_clients_score_their_own_upload_as_in_thread_ones(self, monkeypatch, encryption):
        """No client is sent its own upload under none and he: a TCP client
        scores it from what it uploaded, with its own copy of the key pair,
        and the run's frames are those of the in-thread cohort."""
        transcripts = []
        serve = runner.server_run

        def recorded(settings, endpoints, transcript=None):
            transcripts.append([])
            return serve(settings, endpoints, transcripts[-1])

        monkeypatch.setattr(runner, "server_run", recorded)
        cfg = dict(
            clients=two_client_noniid(200, master_seed=6),
            rounds=2,
            master_seed=6,
            aggregator="fedboosting",
            encryption=encryption,
        )
        loop = run_experiment(ExperimentConfig(**cfg, transport="loopback"))
        tcp = run_experiment(ExperimentConfig(**cfg, transport="tcp"))
        [loop_frames, tcp_frames] = transcripts
        assert loop_frames and loop_frames == tcp_frames
        assert [r.validation for r in loop.records] == [r.validation for r in tcp.records]
        assert np.array_equal(loop.final_params.values, tcp.final_params.values)

    def test_packed_keys_write_identical_artifacts(self, tmp_path):
        # 512-bit keys pack 4 entries per ciphertext, 128-bit keys one; packed
        # arithmetic is exact, so every artifact but the timings is the same
        outputs = {}
        for transport in ("loopback", "tcp"):
            for key_bits in (128, 512):
                out = tmp_path / f"{transport}{key_bits}"
                cfg = ExperimentConfig(
                    clients=two_client_noniid(200, master_seed=4),
                    rounds=2,
                    master_seed=4,
                    aggregator="fedboosting",
                    encryption="he_dp",
                    key_bits=key_bits,
                    transport=transport,
                    out_dir=str(out),
                )
                run_experiment(cfg)
                records = json.loads((out / "records.json").read_text())
                for rec in records:
                    del rec["durations"]
                outputs[transport, key_bits] = (
                    (out / "metrics.csv").read_bytes(),
                    (out / "model.json").read_bytes(),
                    records,
                )
        reference = outputs["loopback", 128]
        for key, artifacts in outputs.items():
            assert artifacts == reference, key

    def test_loopback_scores_rounds_with_the_client_key(self, monkeypatch):
        calls = []
        real_keygen = paillier.keygen
        monkeypatch.setattr(paillier, "keygen", lambda *a: calls.append(a) or real_keygen(*a))
        run_experiment(desk_config(rounds=1, encryption="he"))
        assert len(calls) == 1
        # one key generation per run on either transport: TCP's client 1 gets the runner's key
        run_experiment(desk_config(rounds=1, encryption="he", transport="tcp"))
        assert len(calls) == 2

    @pytest.mark.parametrize("encryption", ["none", "he", "he_dp"])
    def test_every_client_holds_the_cohort_key_pair(self, encryption, monkeypatch):
        seen = []
        cohort = runner.InThreadCohort

        def recorded(sessions):
            seen.append(sessions)
            return cohort(sessions)

        monkeypatch.setattr(runner, "InThreadCohort", recorded)
        cfg = desk_config(rounds=1, encryption=encryption)
        run_experiment(cfg)
        [sessions] = seen
        assert [s.client_id for s in sessions] == [1, 2]
        if not cfg.encrypted:
            assert [s.keypair for s in sessions] == [None, None]
            return
        expected = paillier.keygen(cfg.key_bits, protocol.derive_seed(cfg.master_seed, "keygen"))
        assert all(s.keypair == expected for s in sessions)

    @pytest.mark.parametrize("client_id", [1, 2])
    def test_sessions_start_from_the_model_that_scores_round_one(self, client_id):
        cfg = desk_config(rounds=1)
        splits = build_splits(cfg)
        start = protocol.ClientSession(cfg, client_id, splits[client_id - 1]).weights
        # a zero merged gradient leaves round 1's scored model where the trajectory starts
        zero = protocol.gradient_to_payload(np.zeros(cfg.layout.size))
        record = protocol.RoundRecord(round=1, train_losses=[0.0, 0.0], validation=None, weights=None)
        run = protocol.ServerRunResult(start, [record], [zero])
        test = runner.combined_test_set(splits)
        # the runner also refuses a final model off that trajectory
        [scored] = runner._protocol_records(cfg, run, test, None)
        assert (scored.global_test_loss, scored.global_test_acc) == nn.evaluate(start, test)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_a_run_starts_no_thread(self, monkeypatch, transport):
        # a TCP run forks its clients, which is safe only while it runs no other thread
        def refuse(*args, **kwargs):
            raise AssertionError(f"a {transport} run started a thread")

        before = threading.active_count()
        monkeypatch.setattr(threading, "Thread", refuse)
        result = run_experiment(desk_config(rounds=2, encryption="he", transport=transport))
        assert len(result.records) == 2
        assert threading.active_count() == before

    def test_loopback_times_training_in_every_round(self, tmp_path, monkeypatch):
        # the cohort trains in the server's first recv after the broadcast,
        # so the train phase must span the broadcast and every recv
        spent = []
        train_cohort = nn.train_cohort

        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return train_cohort(*args, **kwargs)
            finally:
                spent.append(time.monotonic() - start)

        monkeypatch.setattr(nn, "train_cohort", timed)
        artifacts = []
        for run in ("a", "b"):
            spent.clear()
            out = tmp_path / run
            result = run_experiment(desk_config(out_dir=str(out)))
            # one stacked call per round trains both clients
            assert len(spent) == len(result.records)
            for rec, cohort in zip(result.records, spent):
                assert rec.durations["train"] >= cohort > 0
            # timings go to records.json only
            artifacts.append(((out / "metrics.csv").read_bytes(), (out / "model.json").read_bytes()))
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("aggregator", ["fedboosting", "fedavg", "centralized"])
    def test_records_json_has_one_schema(self, tmp_path, aggregator):
        run_experiment(desk_config(rounds=2, aggregator=aggregator, out_dir=str(tmp_path)))
        records = json.loads((tmp_path / "records.json").read_text())
        keys = {"round", "train_losses", "validation", "weights", "durations"}
        keys |= {"global_test_loss", "global_test_acc"}
        assert [set(r) for r in records] == [keys, keys]

    def test_one_round_record_type(self):
        assert fedboost.RoundRecord is protocol.RoundRecord

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(desk_config(rounds=2, out_dir=str(out)))
        assert (out / "metrics.csv").exists()
        assert (out / "model.json").exists()
        assert (out / "records.json").exists()
        assert (out / "config.json").exists()
        params = load_model(out / "model.json")
        assert params.values.shape == (42,)

    def test_an_unguarded_script_completes_a_tcp_run(self, tmp_path):
        # A forked client starts in the runner's state and runs only its own
        # session, so a script without a __main__ guard is not run again.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from fedboost.config import ExperimentConfig, two_client_noniid\n"
            "from fedboost.runner import run_experiment\n"
            "result = run_experiment(ExperimentConfig(clients=two_client_noniid(100, master_seed=1),"
            " rounds=1, master_seed=1, transport='tcp', timeout_s=30.0))\n"
            "print('rounds', len(result.records))\n"
        )
        src = Path(fedboost.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert time.monotonic() - start < 10.0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rounds 1\n", "")

    def test_tcp_launch_at_full_scale_fails_fast_when_a_client_dies(self):
        # Client 1 is killed as soon as it is forked, with 40,000 rows per
        # client in the splits the clients inherit; the server finds it at its
        # first exchange, and the subprocess time limit turns any hang into a
        # failure.
        script = (
            "import multiprocessing.context\n"
            "from fedboost.config import ExperimentConfig, two_client_noniid\n"
            "from fedboost.runner import run_experiment\n"
            "fork_start = multiprocessing.context.ForkProcess.start\n"
            "started = []\n"
            "def start_then_kill_client_1(proc):\n"
            "    fork_start(proc)\n"
            "    started.append(proc)\n"
            "    if len(started) == 1:  # started in id order\n"
            "        proc.kill()\n"
            "multiprocessing.context.ForkProcess.start = start_then_kill_client_1\n"
            "run_experiment(ExperimentConfig(clients=two_client_noniid(40000, master_seed=1),"
            " rounds=1, master_seed=1, transport='tcp', timeout_s=5.0))\n"
        )
        src = Path(fedboost.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30
        )
        assert time.monotonic() - start < 10.0
        assert proc.returncode != 0
        found = r"RoundAborted: .*\bclient 1 in round 1: .+; client 1 exited with code -9$"
        assert re.search(found, proc.stderr, re.MULTILINE)


class TestExportMetrics:
    def test_row_count_and_header(self, tmp_path):
        result = run_experiment(desk_config())
        path = tmp_path / "metrics.csv"
        export_metrics(result.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,client,train_loss,weight,global_test_loss,global_test_acc"
        assert len(lines) == 1 + 3 * 2

    def test_reexport_is_byte_identical(self, tmp_path):
        result = run_experiment(desk_config(rounds=2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_metrics(result.records, a)
        export_metrics(result.records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_weight_column_sums_to_one_per_round(self, tmp_path):
        result = run_experiment(desk_config())
        path = tmp_path / "metrics.csv"
        export_metrics(result.records, path)
        per_round = {}
        for line in path.read_text().splitlines()[1:]:
            parts = line.split(",")
            per_round.setdefault(parts[0], 0.0)
            per_round[parts[0]] += float(parts[3])
        assert all(abs(total - 1.0) < 1e-9 for total in per_round.values())

    def test_unwritable_path(self, tmp_path):
        result = run_experiment(desk_config(rounds=2))
        with pytest.raises(IoError):
            export_metrics(result.records, tmp_path / "missing-dir" / "metrics.csv")


class TestExportBoundary:
    def test_two_steps_gives_four_rows(self, tmp_path):
        params = nn.init_params(0, nn.Layout(8))
        path = tmp_path / "grid.csv"
        export_boundary(params, GridSpec(steps=2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,p_class1"
        assert len(lines) == 1 + 4

    def test_zero_params_give_half_everywhere(self, tmp_path):
        params = nn.ModelParams(np.zeros(42), nn.Layout(8))
        path = tmp_path / "grid.csv"
        export_boundary(params, GridSpec(steps=3), path)
        for line in path.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.5

    def test_grid_matches_forward_pointwise(self, tmp_path):
        params = nn.init_params(3, nn.Layout(8))
        path = tmp_path / "grid.csv"
        export_boundary(params, GridSpec(xmin=-1, xmax=1, ymin=-1, ymax=1, steps=4), path)
        for line in path.read_text().splitlines()[1:]:
            x, y, p = (float(v) for v in line.split(","))
            assert p == nn.forward(params, (x, y))[1]

    def test_degenerate_grid_rejected(self, tmp_path):
        params = nn.init_params(0, nn.Layout(8))
        with pytest.raises(ConfigError):
            export_boundary(params, GridSpec(steps=1), tmp_path / "g.csv")
        with pytest.raises(ConfigError):
            export_boundary(params, GridSpec(xmin=2.0, xmax=-2.0), tmp_path / "g.csv")


class TestModelRoundtrip:
    def test_save_load_bit_exact(self, tmp_path):
        params = nn.init_params(11, nn.Layout(8))
        path = tmp_path / "model.json"
        save_model(params, path)
        restored = load_model(path)
        assert np.array_equal(restored.values, params.values)
        assert restored.layout == params.layout

    def test_layout_bytes_are_the_two_layer_pairs(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(nn.init_params(0, nn.Layout(3)), path)
        assert json.loads(path.read_text())["layout"] == [[2, 3], [3, 2]]
