"""Experiment configuration: dataclasses, validation, JSON (de)serialization."""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from dataclasses import dataclass, field, asdict

from .aggregate import SLOT_BITS, fusion_weights, slots_per_ciphertext
from .datasets import GaussianSpec
from .errors import ConfigError, InvalidWeight
from .nn import Layout
from .quantize import QuantConfig

AGGREGATORS = ("fedavg", "fedboosting", "centralized")
ENCRYPTIONS = ("none", "he", "he_dp")
WEIGHTING_MODES = ("literal", "score")
TRANSPORTS = ("loopback", "tcp")
# Every frame carries its round in 4 bytes
MAX_ROUNDS = 2**32 - 1


@dataclass(frozen=True)
class ClientSpec:
    """One client's data source: cluster mixture, sampling seed, and an
    optional label-poisoning fraction applied to its training part."""

    clusters: tuple[GaussianSpec, ...]
    seed: int
    poison_flip_frac: float = 0.0


@dataclass(frozen=True)
class GridSpec:
    xmin: float = -6.0
    xmax: float = 6.0
    ymin: float = -6.0
    ymax: float = 6.0
    steps: int = 101


@dataclass
class ExperimentConfig:
    aggregator: str = "fedboosting"
    encryption: str = "none"
    weighting_mode: str = "score"
    rounds: int = 50
    epochs: int = 1
    batch_size: int = 8
    learning_rate: float = 0.003
    clients: tuple[ClientSpec, ...] = ()
    quant: QuantConfig = field(default_factory=QuantConfig)
    key_bits: int = 128
    p_hat: float = 0.9
    n_hidden: int = 8
    timeout_s: float = 60.0
    transport: str = "loopback"
    out_dir: str | None = None
    master_seed: int = 0

    def validate(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ConfigError("aggregator", f"must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if self.encryption not in ENCRYPTIONS:
            raise ConfigError("encryption", f"must be one of {ENCRYPTIONS}, got {self.encryption!r}")
        if self.weighting_mode not in WEIGHTING_MODES:
            raise ConfigError(
                "weighting_mode", f"must be one of {WEIGHTING_MODES}, got {self.weighting_mode!r}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigError("transport", f"must be one of {TRANSPORTS}, got {self.transport!r}")
        if self.transport == "tcp" and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError("transport", "tcp forks its clients, which this platform cannot")
        if not (1 <= self.rounds <= MAX_ROUNDS):
            raise ConfigError("rounds", f"must lie in [1, {MAX_ROUNDS}], got {self.rounds}")
        if self.epochs < 1:
            raise ConfigError("epochs", f"must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not (0 < self.learning_rate < math.inf):
            raise ConfigError("learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if not self.clients:
            raise ConfigError("clients", "at least one client is required")
        n = len(self.clients)
        if self.aggregator == "fedboosting" and n < 2:
            raise ConfigError("clients", f"cross-validation needs >= 2 clients, got {n}")
        if self.encryption == "he_dp" and self.aggregator != "fedboosting":
            raise ConfigError(
                "encryption", "he_dp perturbs cross-validation models, so it requires fedboosting"
            )
        if self.aggregator == "centralized" and self.encryption != "none":
            raise ConfigError("encryption", "centralized training has no gradients to encrypt")
        if self.encryption != "none" and (self.key_bits < 64 or self.key_bits % 2):
            raise ConfigError("key_bits", f"must be even and >= 64, got {self.key_bits}")
        # quantize.check_capacity's rule for an entry of magnitude 1, under the smallest key_bits-bit n
        slot_bits = self.key_bits - 1 if slots_per_ciphertext(self.key_bits) == 1 else SLOT_BITS
        if self.encrypted and 2 * n * self.quant.scale >= 2**slot_bits:
            too_big = f"scale 10^{self.quant.scale_exponent} overflows a {slot_bits}-bit plaintext slot"
            raise ConfigError("quant", f"{too_big} for N={n} at {self.key_bits}-bit keys")
        if self.encryption == "he_dp":
            try:
                fusion_weights(self.p_hat, n, self.quant.pieces)
            except InvalidWeight as exc:
                raise ConfigError("p_hat", str(exc)) from exc
        if self.n_hidden < 1:
            raise ConfigError("n_hidden", f"must be >= 1, got {self.n_hidden}")
        if not (0 < self.timeout_s < math.inf):
            raise ConfigError("timeout_s", f"must be finite and > 0, got {self.timeout_s}")
        for i, client in enumerate(self.clients):
            if not client.clusters:
                raise ConfigError(f"clients[{i}].clusters", "must not be empty")
            if not (0 <= client.poison_flip_frac <= 1):
                raise ConfigError(
                    f"clients[{i}].poison_flip_frac",
                    f"must lie in [0, 1], got {client.poison_flip_frac}",
                )

    @property
    def n_clients(self) -> int:
        """Trainers in the cohort: one for centralized, which pools every
        client's training data."""
        return 1 if self.aggregator == "centralized" else len(self.clients)

    @property
    def layout(self) -> Layout:
        return Layout(self.n_hidden)

    @property
    def optimizer(self) -> float:
        """Alias of ``learning_rate``, the optimizer's one setting, under the
        name tests/test_acceptance.py passes to ``nn.train_local``."""
        return self.learning_rate

    @property
    def encrypted(self) -> bool:
        return self.encryption in ("he", "he_dp")


def two_client_noniid(
    samples_per_client: int = 40000,
    master_seed: int = 0,
    poison_client: int | None = None,
    poison_flip_frac: float = 0.5,
) -> tuple[ClientSpec, ClientSpec]:
    """Default Non-IID pair: horizontally separated unit-covariance clusters for
    client 1, vertically separated anisotropic clusters for client 2."""
    half = samples_per_client // 2
    # one row per client: its label-0 and label-1 cluster means, and the covariance both share
    rows = (
        ((-2.0, 0.0), (2.0, 0.0), ((1.0, 0.0), (0.0, 1.0))),
        ((0.0, -2.0), (0.0, 2.0), ((1.5, 0.0), (0.0, 0.5))),
    )
    return tuple(
        ClientSpec(
            clusters=(
                GaussianSpec(mean_0, covariance, 0, half),
                GaussianSpec(mean_1, covariance, 1, samples_per_client - half),
            ),
            seed=master_seed * 7919 + cid,
            poison_flip_frac=poison_flip_frac if poison_client == cid else 0.0,
        )
        for cid, (mean_0, mean_1, covariance) in enumerate(rows, 1)
    )


def default_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(clients=two_client_noniid(), **overrides)


# --- JSON (de)serialization ---------------------------------------------------


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


# Fields that hold config objects, by name: the class of one, and what a
# ConfigError calls one its class refuses. A tuple field holds a list of them.
_NESTED = {
    "quant": (QuantConfig, "quantization config"),
    "clients": (ClientSpec, "client spec"),
    "clusters": (GaussianSpec, "cluster spec"),
}
# The JSON values each scalar field takes, by the field's annotation
_JSON_KINDS = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def _frozen(value):
    """A JSON value with every list made a tuple."""
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _from_dict(cls, data, path: str, what: str):
    """``cls`` built from the JSON object ``data`` found at ``path``. A
    ConfigError names ``path.field`` for the first key that is no field of
    ``cls``, else for the first field whose value is not of its kind, else
    ``path`` when ``cls`` refuses the values."""
    if not isinstance(data, dict):
        raise ConfigError(path, f"must be a JSON object, got {data!r}")
    at = f"{path}." if path else ""
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(at + sorted(unknown)[0], "unknown field")
    kwargs = {}
    for name, f in cls.__dataclass_fields__.items():
        if name not in data:
            continue
        value, where = data[name], at + name
        if name in _NESTED:
            sub, called = _NESTED[name]
            if not f.type.startswith("tuple["):
                value = _from_dict(sub, value, where, called)
            elif isinstance(value, (list, tuple)):
                value = tuple(_from_dict(sub, v, f"{where}[{i}]", called) for i, v in enumerate(value))
            else:
                raise ConfigError(where, f"must be a list, got {value!r}")
        elif f.type in _JSON_KINDS:
            if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[f.type]):
                raise ConfigError(where, f"must be {f.type}, got {value!r}")
            # json reads integers of any size
            if f.type == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ConfigError(where, "must lie within float range")
        kwargs[name] = _frozen(value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"bad {what}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON document describes; a ConfigError names the first
    unknown, mistyped or unusable field."""
    return _from_dict(ExperimentConfig, data, "", "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
