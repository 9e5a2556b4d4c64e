"""The answer-body contract: stored detail documents change no byte.

A cached plan encodes its ``to_payload`` document once and every later
detail answer splices those stored bytes in.  Whatever the transport,
an answer body must still be exactly ``json.dumps(out, sort_keys=True)``
of the fully materialised answer dict: the one
``plan_response_payload`` built for that delivery, with the plan's
``to_payload()`` document in place of the plan.  The dicts are captured
as the transports render them, so per-delivery fields (``elapsed_ms``,
``trace_id``, ``timing``, an echoed ``"id"``) are compared exactly too.
"""

import asyncio
import json

import pytest
from test_service_http import FAST, _json, _registry, _request, _Server

import repro.service.__main__ as cli
import repro.service.http as http
from repro.core.configurator import PipetteResult
from repro.obs import TRACER
from repro.service import PlanGateway

PLAN = {"model": "gpt-toy", "global_batch": 32, "cluster": "alpha"}


@pytest.fixture
def rendered(monkeypatch):
    """Every answer dict a transport renders, captured by reference.

    The reference is kept, so fields a transport adds after
    ``plan_response_payload`` returns (the echoed ``"id"``) are seen.
    """
    seen = []
    for module in (http, cli):
        original = module.plan_response_payload

        def capture(*args, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            seen.append(out)
            return out
        monkeypatch.setattr(module, "plan_response_payload", capture)
    return seen


@pytest.fixture
def tracing():
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


def _materialised(out: dict) -> str:
    out = dict(out)
    if isinstance(out.get("result"), PipetteResult):
        out["result"] = out["result"].to_payload()
    return json.dumps(out, sort_keys=True)


def _without_elapsed(body: bytes) -> dict:
    out = _json(body)
    out.pop("elapsed_ms")
    return out


def _ask_all(bodies, registry=None):
    """POST each body in order over HTTP -> [(status, body bytes)]."""
    async def main():
        async with _Server(registry or _registry()) as server:
            answers = []
            for body in bodies:
                status, _, raw = await _request(server.port, "POST",
                                                "/v1/plan", body)
                answers.append((status, raw))
            return answers

    return asyncio.run(main())


class TestHttpBodies:
    def test_miss_hit_detail_and_echoed_id(self, rendered):
        odd_id = {"z": [1, {"b": None, "a": 2.5}], "a": "été"}
        answers = _ask_all([
            dict(PLAN, detail=True),                  # miss, detail
            PLAN,                                     # hit, compact
            dict(PLAN, detail=True),                  # hit, stored doc
            dict(PLAN, detail=True, id=odd_id),       # hit, echoed id
            dict(PLAN, detail=False, id=7),
            {"model": "gpt-toy", "global_batch": 32,  # unpinned fan-out
             "detail": True},
        ])
        assert len(rendered) == len(answers)
        for (status, body), out in zip(answers, rendered):
            assert status == 200
            assert body.decode("utf-8") == _materialised(out)
        statuses = [_json(body)["status"] for _, body in answers]
        assert statuses[:5] == ["miss", "hit", "hit", "hit", "hit"]
        assert _json(answers[3][1])["id"] == odd_id
        assert "result" not in _json(answers[1][1])
        assert "result" not in _json(answers[4][1])
        # Two detail hits of one plan differ in elapsed_ms (and the
        # echoed id) at most.
        echoed = _without_elapsed(answers[3][1])
        del echoed["id"]
        assert _without_elapsed(answers[2][1]) == echoed

    def test_document_is_encoded_once_per_plan(self, monkeypatch):
        calls = []
        original = PipetteResult.to_payload

        def counted(self):
            calls.append(self)
            return original(self)
        monkeypatch.setattr(PipetteResult, "to_payload", counted)
        answers = _ask_all([dict(PLAN, detail=True)] * 4)
        assert [status for status, _ in answers] == [200] * 4
        # One plan, four detail answers, one document build (an
        # in-memory cache has no durable store to write through).
        assert len(calls) == 1

    def test_traced_detail_answers_are_per_delivery(self, rendered,
                                                    tracing):
        answers = _ask_all([dict(PLAN, detail=True)] * 2)
        assert len(rendered) == 2
        for (status, body), out in zip(answers, rendered):
            assert status == 200
            assert body.decode("utf-8") == _materialised(out)
        first, second = (_json(body) for _, body in answers)
        assert first["trace_id"] != second["trace_id"]
        assert first["timing"] != second["timing"]
        assert first["result"] == second["result"]

    def test_epoch_roll_answers_the_new_plans_document(self):
        registry = _registry()

        async def main():
            async with _Server(registry) as server:
                _, _, before = await _request(server.port, "POST",
                                              "/v1/plan",
                                              dict(PLAN, detail=True))
                old = registry.service("alpha").cache.entries()[0][2]
                status, _, event = await _request(
                    server.port, "POST", "/v1/events/bandwidth",
                    {"cluster": "alpha", "scale": 0.5})
                assert status == 200 and _json(event)["retired"] == 1
                _, _, after = await _request(server.port, "POST",
                                             "/v1/plan",
                                             dict(PLAN, detail=True))
                new = registry.service("alpha").cache.entries()[0][2]
                return before, old, after, new

        before, old, after, new = asyncio.run(main())
        assert new is not old
        assert _json(before)["result"] == json.loads(old.payload_json())
        assert _json(after)["status"] == "miss"
        assert _json(after)["result"] == new.to_payload()
        assert _json(after)["result"] != _json(before)["result"]


class TestStdinLines:
    def test_lines_are_the_materialised_dicts(self, rendered):
        lines = [json.dumps(dict(PLAN, detail=True)),
                 json.dumps(dict(PLAN, detail=True, id=["job", 3])),
                 json.dumps(PLAN),
                 json.dumps(dict(PLAN, detail="yes"))]
        registry = _registry()
        written = []

        async def write_line(text):
            written.append(text)

        async def main():
            async with PlanGateway(registry) as gateway:
                for i, line in enumerate(lines):
                    await cli._handle_line(gateway, FAST, line, i + 1,
                                           write_line)

        asyncio.run(main())
        assert len(written) == 4 and len(rendered) == 3
        for text, out in zip(written, rendered):
            assert text == _materialised(out)
        assert [json.loads(t)["id"] for t in written] == \
            [1, ["job", 3], 3, 4]
        error = json.loads(written[3])
        assert error["status"] == "error" and "detail" in error["error"]
        assert written[3] == json.dumps(error, sort_keys=True)
