"""``/config/execution``: typed input, every field honoured, all or nothing."""

import pytest

from repro.core.mdm import MDM
from repro.service.api import MdmService


@pytest.fixture
def service():
    return MdmService(MDM(result_cache_size=4, wrapper_cache_size=4))


def post(service, body):
    return service.request("POST", "/config/execution", body)


REJECTED = {
    "string flag": {"optimize": "false"},
    "integer flag": {"pushdown": 0},
    "string validate_plans": {"validate_plans": "no"},
    "bad gate after a good flag": {"optimize": False, "impact_gate": "nope"},
    "zero workers": {"max_fetch_workers": 0},
    "string workers": {"max_fetch_workers": "8"},
    "negative capacity after a good one": {
        "result_cache_size": 16,
        "wrapper_cache_size": -1,
    },
    "string capacity": {"result_cache_size": "16"},
    "bad flag after a resize": {"wrapper_cache_size": 16, "optimize": "yes"},
    "unknown key": {"optimize": False, "optimise": False},
    "read-only key": {"generation": 5},
    "retry not an object": {"retry": 3},
    "retry bad attempts": {"pushdown": False, "retry": {"attempts": 0}},
    "retry fractional attempts": {"retry": {"attempts": 2.5}},
    "retry unknown key": {"retry": {"sleep": 0}},
    "retry string timeout": {"retry": {"timeout_s": "2"}},
    "not an object": ["optimize", False],
}


@pytest.mark.parametrize("body", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_update_is_400_and_changes_nothing(service, body):
    before_body = service.request("GET", "/config/execution").body
    before = service.mdm.config
    response = post(service, body)
    assert response.status == 400, response.body
    assert service.mdm.config is before
    assert service.request("GET", "/config/execution").body == before_body


def test_every_field_is_honoured(service):
    response = post(
        service,
        {
            "max_fetch_workers": 2,
            "optimize": False,
            "pushdown": False,
            "impact_gate": "advisory",
            "result_cache_size": 8,
            "wrapper_cache_size": 0,
            "retry": {"attempts": 3, "timeout_s": 1.5},
        },
    )
    assert response.status == 200, response.body
    config = service.mdm.config
    assert (config.max_fetch_workers, config.impact_gate) == (2, "advisory")
    assert not (config.optimize or config.pushdown)
    assert (config.retry_policy.attempts, config.retry_policy.timeout_s) == (3, 1.5)
    assert response.body["pushdown"] is False
    assert response.body["result_cache"]["capacity"] == 8
    assert response.body["wrapper_cache"]["enabled"] is False


def test_retry_merges_into_the_current_policy(service):
    assert post(service, {"retry": {"timeout_s": 2.0}}).status == 200
    body = post(service, {"retry": {"attempts": 4}}).body
    assert body["retry"]["attempts"] == 4
    assert body["retry"]["timeout_s"] == 2.0


def test_null_keeps_the_current_value(service):
    before = service.mdm.config
    assert post(service, {"optimize": None, "retry": None}).status == 200
    assert service.mdm.config == before
