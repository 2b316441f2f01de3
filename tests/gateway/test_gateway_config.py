"""GatewayConfig: validation, JSON round-trip, did-you-mean."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.gateway import GatewayConfig


class TestGatewayConfig:
    def test_defaults_valid(self):
        config = GatewayConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 0
        assert config.workers >= 1

    def test_json_round_trip_exact(self):
        config = GatewayConfig(
            host="0.0.0.0", port=8422, workers=7, queue_depth=9,
            artifact_root="/tmp/x", artifact_ttl_s=12.5,
            callback_retries=5, callback_backoff_s=0.25,
            callback_backoff_factor=3.0, callback_timeout_s=2.0,
            service_workers=3,
            session_idle_timeout_s=30.0,
            reap_interval_s=0.5, max_body_bytes=1024,
            max_updates_kept=16,
        )
        wire = json.loads(json.dumps(config.to_dict()))
        assert GatewayConfig.from_dict(wire) == config

    @pytest.mark.parametrize("data, match", [
        ({"worker": 3}, "did you mean"),
        # Deployments configure no prior-fit store: every fit is cold.
        ({"zoo_path": "/tmp/fits"}, "unknown GatewayConfig field 'zoo_path'"),
    ], ids=["typo", "zoo_path"])
    def test_unknown_field_did_you_mean(self, data, match):
        with pytest.raises(ConfigurationError, match=match):
            GatewayConfig.from_dict(data)

    @pytest.mark.parametrize("data", [[("workers", 2)], "workers=2"],
                             ids=["list", "str"])
    def test_from_dict_needs_a_mapping(self, data):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            GatewayConfig.from_dict(data)

    def test_frozen(self):
        with pytest.raises(Exception):
            GatewayConfig().port = 80

    @pytest.mark.parametrize("bad", [
        {"host": ""},
        {"port": -1},
        {"port": 65536},
        {"port": True},
        {"workers": 0},
        {"queue_depth": 0},
        {"artifact_ttl_s": 0.0},
        {"callback_retries": 0},
        {"callback_backoff_s": -1.0},
        {"session_idle_timeout_s": 0.0},
        {"reap_interval_s": 0.0},
        {"max_body_bytes": 0},
        {"max_updates_kept": 0},
        {"artifact_root": 3},
        {"artifact_root": None},
        {"host": 5},
        {"callback_backoff_factor": 0.0},
        {"callback_timeout_s": -1.0},
        {"service_workers": -1},
        {"service_workers": True},
        {"service_workers": 2.5},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigurationError):
            GatewayConfig(**bad)

    def test_replace_keeps_validation(self):
        config = GatewayConfig()
        assert config.replace(port=9000).port == 9000
        with pytest.raises(ConfigurationError):
            config.replace(workers=-2)

    def test_defaults_keep_worker_services_serial(self):
        config = GatewayConfig()
        assert config.service_workers == 0

    def test_executor_field_is_gone(self):
        # service_workers > 1 always means process shards.
        with pytest.raises(ConfigurationError, match="executor"):
            GatewayConfig.from_dict({"executor": "process"})
