"""``POST /reload`` against a stored model that has gone bad.

A reload that cannot read the model must answer 503 with
``{"reloaded": false}`` and leave the previous bundle serving.
"""

from __future__ import annotations

import json

import pytest

from repro.core.store import save_model
from repro.serve import AdmissionController, Router, ServeState

from tests.serve.conftest import base_serve_config


def _break_version(payload: dict) -> None:
    payload["format_version"] = 999


def _unknown_setting(payload: dict) -> None:
    payload["settings"]["not_a_setting"] = True


@pytest.mark.parametrize(
    "corrupt", [_break_version, _unknown_setting], ids=["version", "settings_key"]
)
def test_bad_stored_model_keeps_old_bundle(serve_state, tmp_path, corrupt):
    path = save_model(serve_state.current().model, tmp_path / "model.json")
    config = base_serve_config(model_path=str(path))
    state = ServeState.load(config)
    router = Router(state, AdmissionController(config), config)
    before = router.route("GET", "/query", {"c": ["Make=Ford"], "k": ["3"]})
    assert before.status == 200

    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    response = router.route("POST", "/reload")

    assert response.status == 503
    assert response.json()["reloaded"] is False
    assert state.current().generation == 1
    after = router.route("GET", "/query", {"c": ["Make=Ford"], "k": ["3"]})
    assert after.status == 200
    assert after.json() == before.json()
