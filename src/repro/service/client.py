"""A small stdlib HTTP client for the assurance service API.

Used by the ``python -m repro.service`` subcommands and by tests; any
HTTP client works against the API, this one just keeps the repo
dependency-free.  :meth:`ServiceClient.watch` is the streaming consumer:
it long-polls the events endpoint with a byte-offset cursor and yields
decoded event dicts until the job settles.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..jsonutil import dumps as strict_dumps
from .jobs import TERMINAL_STATES


class ServiceError(Exception):
    """A non-2xx API response."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    def __init__(self, url: str, timeout: float = 60.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        #: Event lines :meth:`events` skipped as unparseable, e.g. a torn
        #: line left by a server killed mid-append.
        self.corrupt_lines = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[Dict[str, str], bytes]:
        data = None
        headers = {}
        if body is not None:
            data = strict_dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            raise ServiceError(exc.code, detail) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.url}: {exc.reason}") from None

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        _, blob = self._request(method, path, body, timeout)
        return json.loads(blob) if blob else {}

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def metrics(self) -> str:
        """Raw Prometheus text exposition from ``GET /v1/metrics``."""
        _, blob = self._request("GET", "/v1/metrics")
        return blob.decode("utf-8")

    def submit(
        self,
        kind: str,
        spec: Optional[Dict[str, Any]] = None,
        *,
        priority: int = 0,
        jobs: int = 1,
    ) -> Dict[str, Any]:
        return self._json(
            "POST",
            "/v1/jobs",
            {"kind": kind, "spec": spec or {}, "priority": priority, "jobs": jobs},
        )

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}/results")

    def events(
        self, job_id: str, offset: int = 0, wait: float = 0.0
    ) -> Tuple[List[Dict[str, Any]], int, str]:
        """One events poll; returns (events, next_offset, job_state)."""
        headers, blob = self._request(
            "GET",
            f"/v1/jobs/{job_id}/events?offset={offset}&wait={wait}",
            timeout=max(self.timeout, wait + 10.0),
        )
        events = []
        for line in blob.decode("utf-8").splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                self.corrupt_lines += 1
        next_offset = int(headers.get("X-Next-Offset", offset))
        state = headers.get("X-Job-State", "")
        return events, next_offset, state

    def watch(self, job_id: str, wait: float = 15.0) -> Iterator[Dict[str, Any]]:
        """Yield the job's events as they land, until it settles."""
        offset = 0
        while True:
            events, offset, state = self.events(job_id, offset=offset, wait=wait)
            for event in events:
                yield event
            if state in TERMINAL_STATES and not events:
                return

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, Any]:
        """Block until the job settles; returns the final record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout:.0f} s"
                )
            time.sleep(0.2)
