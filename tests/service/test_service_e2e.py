"""End-to-end campaign service: HTTP API, worker death, restarts.

The acceptance bar for the service: a journaled grid survives one
SIGKILLed worker AND a full service restart, and the merged
``--report`` output stays byte-identical to what the batch CLI
produces — at any worker count.

Worker death is injected deterministically through the spec's
``chaos_kill_key``: the worker SIGKILLs itself immediately before
executing the named scenario (mid-shard), which exercises exactly the
death-detection → resubmit path without racing an external signal
against a fast grid.
"""

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.experiments.campaign import build_grid, run_campaign
from repro.service import CampaignService, ServiceClient, ServiceError
from repro.service.httpapi import serve

GRID_ARGS = dict(families=["chain", "star"], sizes=[4], seeds=2)
SPEC = {"families": ["chain", "star"], "sizes": [4], "seeds": 2}


def _grid():
    return build_grid(**GRID_ARGS)


class _RunningService:
    """A CampaignService + HTTP API on an ephemeral port, driven from a
    background thread so tests stay synchronous."""

    def __init__(self, state_dir, **service_kwargs):
        service_kwargs.setdefault("workers", 2)
        # Liveness checks catch hard death; the stall reaper is off by
        # default so a slow CI box cannot kill a merely busy worker.
        service_kwargs.setdefault("stall_timeout_s", None)
        self.service = CampaignService(state_dir, **service_kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._drive, daemon=True)
        self.client = None

    def _drive(self):
        async def amain():
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            task = asyncio.ensure_future(
                serve(self.service, port=0, ready=ready)
            )
            _host, port = await ready
            self.url = f"http://127.0.0.1:{port}"
            self._ready.set()
            await task

        asyncio.run(amain())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(30), "service did not come up"
        self.client = ServiceClient(self.url)
        self.client.wait_healthy()
        return self

    def __exit__(self, *exc_info):
        try:
            self.client.shutdown()
        except (ServiceError, OSError):
            pass
        self._thread.join(30)
        assert not self._thread.is_alive(), "service did not stop"


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The uninterrupted batch run every service result must match."""
    tmp_path = tmp_path_factory.mktemp("baseline")
    summary = run_campaign(_grid(), workers=1)
    path = summary.write_json(tmp_path / "baseline.json")
    return path.read_bytes()


def _result_json_bytes(client, campaign_id):
    payload = client.result(campaign_id)
    return (
        json.dumps(payload["summary"], indent=2) + "\n"
    ).encode("utf-8"), payload


class TestHappyPath:
    def test_submit_wait_result_is_byte_identical(
        self, tmp_path, baseline
    ):
        with _RunningService(tmp_path / "state") as running:
            accepted = running.client.submit(dict(SPEC, shard_size=2))
            assert accepted["total"] == len(_grid())
            assert accepted["units"] == 2
            status = running.client.wait(accepted["id"], timeout_s=120)
            assert status["state"] == "done"
            assert status["completed"] == status["total"] == len(_grid())
            assert status["retries"] == 0
            result, payload = _result_json_bytes(running.client, accepted["id"])
            assert payload["complete"]
            assert result == baseline

    def test_healthz_and_status_shape(self, tmp_path):
        with _RunningService(tmp_path / "state") as running:
            health = running.client.health()
            assert health["ok"]
            assert len(health["workers"]) == 2
            assert all(w["alive"] for w in health["workers"])
            accepted = running.client.submit(dict(SPEC, shard_size=2))
            status = running.client.status(accepted["id"])
            assert {u["unit"] for u in status["units"]} == {0, 1}
            assert status["state"] in ("running", "done")
            running.client.wait(accepted["id"], timeout_s=120)

    def test_bad_spec_is_a_client_error(self, tmp_path):
        with _RunningService(tmp_path / "state") as running:
            with pytest.raises(ServiceError) as excinfo:
                running.client.submit({"familes": ["star"]})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                running.client.submit({"seeds": "2"})
            assert excinfo.value.status == 400
            assert "seeds" in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                running.client.status("c9999")
            assert excinfo.value.status == 404


class TestWorkerDeath:
    def test_sigkilled_worker_mid_shard_is_resubmitted(
        self, tmp_path, baseline
    ):
        """A worker SIGKILLed mid-unit forfeits exactly that unit; the
        scheduler respawns the slot, resubmits the unit with the
        already-journaled scenarios in its skip set, and the merged
        report is byte-identical to the uninterrupted batch run."""
        victim = _grid()[3].key()  # unit 1, second scenario: mid-shard
        with _RunningService(tmp_path / "state") as running:
            accepted = running.client.submit(
                dict(SPEC, shard_size=2, chaos_kill_key=victim)
            )
            status = running.client.wait(accepted["id"], timeout_s=120)
            assert status["state"] == "done"
            assert status["retries"] >= 1
            respawned = [
                w for w in running.client.health()["workers"]
                if w["generation"] >= 2
            ]
            assert respawned, "no worker slot was ever respawned"
            result, _payload = _result_json_bytes(running.client, accepted["id"])
            assert result == baseline

    def test_retry_budget_exhaustion_fails_the_unit_not_the_grid(
        self, tmp_path
    ):
        """chaos_always re-kills on every attempt: the unit burns its
        retry budget and fails, while the untouched unit still
        completes and stays journaled (partial result, no hang)."""
        victim = _grid()[3].key()
        with _RunningService(tmp_path / "state", retry_limit=1) as running:
            accepted = running.client.submit(
                dict(SPEC, shard_size=2,
                     chaos_kill_key=victim, chaos_always=True)
            )
            status = running.client.wait(accepted["id"], timeout_s=120)
            assert status["state"] == "failed"
            by_unit = {u["unit"]: u for u in status["units"]}
            assert by_unit[0]["state"] == "done"
            assert by_unit[1]["state"] == "failed"
            payload = running.client.result(accepted["id"])
            assert not payload["complete"]
            # everything journaled before the failure is still served
            assert payload["scenarios"] >= 2


class TestRestartSurvival:
    def test_full_service_restart_resumes_and_matches_batch(
        self, tmp_path, baseline
    ):
        """Stop the whole service with a failed unit on disk; a fresh
        service over the same state dir folds the shard journals,
        re-runs only the missing scenarios, and converges to the
        batch-identical artifact."""
        victim = _grid()[3].key()
        state_dir = tmp_path / "state"
        with _RunningService(state_dir, retry_limit=0) as running:
            accepted = running.client.submit(
                dict(SPEC, shard_size=2, chaos_kill_key=victim)
            )
            campaign_id = accepted["id"]
            # retry_limit=0: the chaos kill immediately fails unit 1
            status = running.client.wait(campaign_id, timeout_s=120)
            assert status["state"] == "failed"
            assert 0 < status["completed"] < len(_grid())

        with _RunningService(state_dir) as running:
            status = running.client.wait(campaign_id, timeout_s=120)
            assert status["state"] == "done"
            assert status["resumed"] > 0  # folded from the shard journals
            result, payload = _result_json_bytes(running.client, campaign_id)
            assert payload["complete"]
            assert result == baseline

    def test_offline_report_of_the_campaign_dir_matches(
        self, tmp_path, baseline, capsys
    ):
        """``repro campaign --report <campaign dir>`` merges manifest +
        shards without the service running."""
        state_dir = tmp_path / "state"
        with _RunningService(state_dir) as running:
            accepted = running.client.submit(dict(SPEC, shard_size=2))
            running.client.wait(accepted["id"], timeout_s=120)
            campaign_dir = state_dir / accepted["id"]

        out_json = tmp_path / "report.json"
        code = main([
            "campaign", "--report", str(campaign_dir),
            "--json", str(out_json),
        ])
        assert code == 0
        assert out_json.read_bytes() == baseline

    def test_report_rejects_a_non_service_directory(self, tmp_path, capsys):
        (tmp_path / "not-a-campaign").mkdir()
        code = main([
            "campaign", "--report", str(tmp_path / "not-a-campaign"),
            "--json", "-",
        ])
        assert code == 2
        assert "manifest" in capsys.readouterr().err


class TestResultCli:
    def test_result_json_flag_writes_batch_identical_bytes(
        self, tmp_path, baseline, capsys
    ):
        with _RunningService(tmp_path / "state") as running:
            accepted = running.client.submit(dict(SPEC, shard_size=2))
            running.client.wait(accepted["id"], timeout_s=120)
            out_json = tmp_path / "cli.json"
            code = main([
                "result", accepted["id"], "--url", running.url,
                "--json", str(out_json),
            ])
            assert code == 0
            assert out_json.read_bytes() == baseline
            out = capsys.readouterr().out
            assert "complete" in out

    @pytest.mark.parametrize("command", ["status", "result"])
    def test_id_is_one_path_segment(self, tmp_path, capsys, command):
        # Unquoted, '?' would request /campaigns/ (another route's
        # payload) and end in a traceback instead of a clean error.
        with _RunningService(tmp_path / "state", workers=1) as running:
            code = main([command, "?", "--url", running.url])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_status_cli_renders_units(self, tmp_path, capsys):
        with _RunningService(tmp_path / "state") as running:
            accepted = running.client.submit(dict(SPEC, shard_size=2))
            code = main([
                "status", accepted["id"], "--url", running.url, "--wait",
                "--wait-timeout", "120",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "done" in out and "unit" in out
