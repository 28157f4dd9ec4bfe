"""Cross-process observability: the span wire format."""

import pytest

from repro.obs.trace import NULL_TRACER, Span, Tracer


def _finished_tracer():
    """A tracer with a small finished span tree carrying tags."""
    tracer = Tracer()
    with tracer.span("task", pair=3) as outer:
        with tracer.span("merge"):
            pass
        with tracer.span("refine", candidates=7):
            pass
        outer.tag("results", 2)
    return tracer


class TestSpanWire:
    def test_round_trip_preserves_structure(self):
        tracer = _finished_tracer()
        payload = tracer.export_wire()
        assert len(payload) == 1

        rebuilt = Span.from_wire(payload[0])
        original = tracer.roots[0]
        assert rebuilt.name == original.name
        assert rebuilt.tags == original.tags
        assert [c.name for c in rebuilt.children] == ["merge", "refine"]
        assert rebuilt.children[1].tags == {"candidates": 7}
        # Durations survive exactly; absolute times became epoch-relative.
        assert rebuilt.cpu_s == pytest.approx(original.cpu_s)
        assert rebuilt.end <= original.end

    def test_wire_is_json_ready(self):
        import json

        payload = _finished_tracer().export_wire()
        assert json.loads(json.dumps(payload)) == payload

    def test_adopt_wire_reanchors_to_at(self):
        payload = _finished_tracer().export_wire()
        coordinator = Tracer()
        adopted = coordinator.adopt_wire(payload, at=100.0, worker=42)

        assert len(adopted) == 1
        root = adopted[0]
        assert root.end == pytest.approx(100.0)
        assert root.tags["worker"] == 42
        # Children keep their offsets inside the re-anchored root.
        for child in root.children:
            assert root.start <= child.start <= child.end <= root.end
        assert coordinator.find("task") == [root]

    def test_adopt_wire_lands_under_open_span(self):
        payload = _finished_tracer().export_wire()
        coordinator = Tracer()
        with coordinator.span("execute") as execute:
            coordinator.adopt_wire(payload, worker=1)
        assert [c.name for c in execute.children] == ["task"]

    def test_adopt_empty_payload(self):
        coordinator = Tracer()
        assert coordinator.adopt_wire([]) == []
        assert coordinator.roots == []

    def test_null_tracer_wire_noops(self):
        assert NULL_TRACER.export_wire() == []
        assert NULL_TRACER.adopt_wire([{"name": "x"}]) == []
