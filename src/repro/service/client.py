"""A small stdlib client for the campaign service's HTTP API.

Used by the ``repro submit`` / ``status`` / ``result`` CLI commands,
the service tests, and the CI smoke job.  ``urllib`` only — the
container bakes no HTTP libraries, and none are needed for a
JSON-over-HTTP API this small.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional
from urllib.parse import quote

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP error from the service, carrying its JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service returned {status}: {message}")
        self.status = status


class ServiceClient:
    def __init__(self, base_url: str, timeout_s: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
                message = payload.get("error", "")
            except Exception:
                message = exc.reason
            raise ServiceError(exc.code, message) from None

    # -- API -------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus text of ``GET /metrics``."""
        request = urllib.request.Request(
            self.base_url + "/metrics", method="GET"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, exc.reason) from None

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/campaigns", body=spec)

    def campaigns(self) -> Dict[str, Any]:
        return self._request("GET", "/campaigns")

    def status(self, campaign_id: str) -> Dict[str, Any]:
        path = "/campaigns/" + quote(campaign_id, safe="")
        return self._request("GET", path)

    def result(self, campaign_id: str) -> Dict[str, Any]:
        path = "/campaigns/" + quote(campaign_id, safe="")
        return self._request("GET", path + "/result")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")

    def wait(
        self,
        campaign_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the campaign settles (done or failed)."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(campaign_id)
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {status['state']} "
                    f"({status['completed']}/{status['total']}) after "
                    f"{timeout_s:g}s"
                )
            time.sleep(poll_s)

    def wait_healthy(self, timeout_s: float = 30.0, poll_s: float = 0.2) -> None:
        """Block until the service answers /healthz (startup barrier)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.health()
                return
            except (ServiceError, OSError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.base_url} not healthy after "
                        f"{timeout_s:g}s"
                    ) from None
                time.sleep(poll_s)
