"""Spans, trace-event capture, and trace-file validation."""

import json
import threading

import pytest

from repro.obs import (
    REGISTRY,
    drain_events,
    set_tracing,
    span,
    tracing_enabled,
    validate_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.tracing import _stack


class TestSpanTimers:
    def test_span_feeds_phase_timer_even_without_tracing(self):
        assert not tracing_enabled()
        with span("t-quiet"):
            pass
        t = REGISTRY.timer("phase.t-quiet")
        assert t.count == 1
        assert t.total_s >= 0
        assert drain_events() == []

    def test_span_records_event_when_tracing(self):
        set_tracing(True)
        try:
            with span("t-loud", router="R3", n=4):
                pass
        finally:
            set_tracing(False)
        events = drain_events()
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "t-loud"
        assert event["ph"] == "X"
        assert event["args"] == {"router": "R3", "n": "4"}
        assert event["dur"] >= 0

    def test_span_stack_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("t-boom"):
                raise RuntimeError("inner failure")
        assert _stack() == []
        # The phase timer still observed the failed span.
        assert REGISTRY.timer("phase.t-boom").count == 1

    def test_nested_spans_each_get_their_own_timer(self):
        with span("t-outer"):
            with span("t-inner"):
                pass
        assert REGISTRY.timer("phase.t-outer").count == 1
        assert REGISTRY.timer("phase.t-inner").count == 1

    def test_concurrent_spans_do_not_corrupt_the_buffer(self):
        set_tracing(True)
        try:
            def work():
                for _ in range(50):
                    with span("t-thread"):
                        pass

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            set_tracing(False)
        events = drain_events()
        assert len(events) == 200
        # Thread idents may be reused once a thread exits, so only a
        # lower bound on distinct tracks is stable.
        assert len({e["tid"] for e in events}) >= 1


class TestTraceFiles:
    def test_write_and_validate_roundtrip(self, tmp_path):
        set_tracing(True)
        try:
            with span("t-file-outer"):
                with span("t-file-inner"):
                    pass
        finally:
            set_tracing(False)
        path = tmp_path / "trace.json"
        write_trace(str(path), drain_events())
        n_events, n_tracks = validate_trace_file(str(path))
        assert (n_events, n_tracks) == (2, 1)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_trace([{"name": "x", "ph": "X"}])

    def test_validate_rejects_non_complete_phases(self):
        event = {"name": "x", "ph": "B", "ts": 0, "dur": 1,
                 "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_trace([event])

    def test_validate_rejects_partial_overlap(self):
        a = {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1}
        b = {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="without nesting"):
            validate_trace([a, b])

    def test_validate_accepts_shared_start_nesting(self):
        outer = {"name": "o", "ph": "X", "ts": 0, "dur": 10,
                 "pid": 1, "tid": 1}
        inner = {"name": "i", "ph": "X", "ts": 0, "dur": 4,
                 "pid": 1, "tid": 1}
        assert validate_trace([inner, outer]) == (2, 1)

    def test_validate_separates_tracks_by_pid_tid(self):
        a = {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1}
        b = {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 2, "tid": 1}
        assert validate_trace([a, b]) == (2, 2)

    def test_cli_validator(self, tmp_path, capsys):
        from repro.obs.tracing import _main

        path = tmp_path / "trace.json"
        write_trace(str(path), [])
        assert _main([str(path)]) == 0
        assert "OK (0 events, 0 tracks)" in capsys.readouterr().out
        assert _main([]) == 2
