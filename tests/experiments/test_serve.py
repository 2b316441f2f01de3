"""The ``serve`` command's config loading (no gateway is started)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.serve import build_parser, load_config, main
from repro.gateway import GatewayConfig


def config_from(argv):
    return load_config(build_parser().parse_args(argv))


def test_no_config_is_the_default():
    assert config_from([]) == GatewayConfig()


def test_inline_config():
    config = config_from(["--config", '{"workers": 3, "queue_depth": 5}'])
    assert (config.workers, config.queue_depth) == (3, 5)


def test_config_file(tmp_path):
    path = tmp_path / "gateway.json"
    path.write_text(json.dumps({"port": 8422, "artifact_ttl_s": 60.0}))
    config = config_from(["--config", f"@{path}"])
    assert (config.port, config.artifact_ttl_s) == (8422, 60.0)


def test_flags_override_the_config():
    config = config_from([
        "--config", '{"host": "10.0.0.1", "port": 1, "workers": 2}',
        "--host", "0.0.0.0", "--port", "9000", "--workers", "5",
    ])
    assert (config.host, config.port, config.workers) == \
        ("0.0.0.0", 9000, 5)


def test_removed_zoo_path_is_refused(tmp_path):
    """A deployment config still naming the prior-fit store fails."""
    path = tmp_path / "gateway.json"
    path.write_text(json.dumps({"workers": 2, "zoo_path": "/srv/fits"}))
    with pytest.raises(ConfigurationError,
                       match="unknown GatewayConfig field 'zoo_path'"):
        config_from(["--config", f"@{path}"])


@pytest.mark.parametrize("raw, match", [
    ("@/nonexistent/gateway.json", "cannot be read"),
    ("{workers: 2}", "not valid JSON"),
    ("[2]", "must be a JSON object"),
], ids=["missing-file", "bad-json", "not-an-object"])
def test_bad_config_argument_raises(raw, match):
    with pytest.raises(ConfigurationError, match=match):
        config_from(["--config", raw])


def test_client_helpers_need_a_url():
    with pytest.raises(ConfigurationError, match="--url"):
        main(["--status", "job-000001"])
