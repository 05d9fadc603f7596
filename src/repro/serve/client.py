"""Stdlib HTTP client for a running ``repro-serve`` daemon.

The bundled counterpart of :mod:`repro.serve.app`: tests, benchmarks,
``examples/serving.py`` and the CI smoke job all drive a live daemon
through this class, so the client *is* the reference consumer of the HTTP
API.  ``http.client`` only — the serving stack adds no dependencies on
either side of the socket.

Error mapping mirrors the server's backpressure semantics:

* ``429`` raises :class:`Backpressure` carrying the server's
  ``Retry-After`` estimate, so callers can sleep-and-retry honestly;
* other 4xx/5xx raise :class:`ServeError` with the decoded error payload;
* a job that terminates ``failed``/``cancelled`` while :meth:`wait`-ing
  raises :class:`JobFailed` with the job's error string.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["ServeClient", "ServeError", "Backpressure", "JobFailed"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: Dict):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload


class Backpressure(ServeError):
    """``429``: the admission queue is full; honor :attr:`retry_after_s`."""

    def __init__(self, status: int, payload: Dict, retry_after_s: float):
        super().__init__(status, payload)
        self.retry_after_s = retry_after_s


class JobFailed(RuntimeError):
    """A waited-on job reached ``failed`` or ``cancelled``."""

    def __init__(self, job: Dict):
        super().__init__(
            f"job {job.get('id')} {job.get('state')}: {job.get('error') or 'no error recorded'}"
        )
        self.job = job


class ServeClient:
    """A thin, connection-per-request client (the server closes anyway)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        base_url: Optional[str] = None,
        timeout_s: float = 30.0,
        client_id: Optional[str] = None,
    ):
        if base_url is not None:
            base_url = base_url.rstrip("/")
            if base_url.startswith("http://"):
                base_url = base_url[len("http://"):]
            host, _, port_text = base_url.partition(":")
            port = int(port_text) if port_text else 80
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        #: stamped on every submission (per-client queue fairness key)
        self.client_id = client_id

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Tuple[int, Dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = {"error": raw.decode("utf-8", "replace")}
            status = response.status
            if status == 429:
                retry_after = float(
                    response.getheader("Retry-After")
                    or decoded.get("retry_after_s")
                    or 1.0
                )
                raise Backpressure(status, decoded, retry_after)
            if status >= 400:
                raise ServeError(status, decoded)
            return status, decoded
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    def submit(
        self,
        source: str,
        config: Optional[object] = None,
        session: Optional[object] = None,
        analyze: Optional[List] = None,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        client: Optional[str] = None,
    ) -> Dict:
        """``POST /v1/jobs``; returns the acceptance payload (``job`` + ``dedup``).

        ``config`` may be a :class:`~repro.core.config.ReconstructionConfig`
        or its ``to_dict`` form; passing a :class:`~repro.core.session.Session`
        as ``session`` uses its config (fluent-pipeline friendly).  Exactly
        one of the two must be given.  ``analyze`` sends op specs for the
        analysis pipeline applied to the finished run.
        """
        if (config is None) == (session is None):
            raise ValueError("pass exactly one of config= or session=")
        if session is not None:
            config = session.config
        config_dict = config.to_dict() if hasattr(config, "to_dict") else dict(config)
        body: Dict = {"source": {"path": str(source)}, "config": config_dict}
        if analyze is not None:
            body["analyze"] = [list(spec) if isinstance(spec, tuple) else spec for spec in analyze]
        if priority:
            body["priority"] = int(priority)
        if timeout_s is not None:
            body["timeout_s"] = float(timeout_s)
        resolved_client = client or self.client_id
        if resolved_client:
            body["client"] = resolved_client
        _status, payload = self._request("POST", "/v1/jobs", body)
        return payload

    def status(self, job_id: str) -> Dict:
        _status, payload = self._request("GET", f"/v1/jobs/{job_id}")
        return payload["job"]

    def result(self, job_id: str) -> Optional[Dict]:
        """The result record, or ``None`` while the job is still pending."""
        status, payload = self._request("GET", f"/v1/jobs/{job_id}/result")
        if status == 202:
            return None
        return payload["result"]

    def cancel(self, job_id: str) -> Dict:
        _status, payload = self._request("DELETE", f"/v1/jobs/{job_id}")
        return payload["job"]

    def metrics(self) -> Dict:
        _status, payload = self._request("GET", "/metrics")
        return payload

    def health(self) -> Dict:
        _status, payload = self._request("GET", "/healthz")
        return payload

    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, timeout_s: float = 120.0, poll_s: float = 0.05) -> Dict:
        """Poll until the job is terminal; return its result record.

        Raises :class:`JobFailed` for ``failed``/``cancelled`` jobs and
        ``TimeoutError`` if the deadline passes first.  Polling backs off
        geometrically from ``poll_s`` to ~1s.
        """
        deadline = time.monotonic() + timeout_s
        delay = poll_s
        while True:
            job = self.status(job_id)
            state = job["state"]
            if state == "done":
                result = self.result(job_id)
                assert result is not None
                return result
            if state in ("failed", "cancelled"):
                raise JobFailed(job)
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {state} after {timeout_s:.1f}s")
            time.sleep(delay)
            delay = min(delay * 1.5, 1.0)

    def submit_and_wait(self, source: str, timeout_s: float = 120.0, **submit_kwargs) -> Tuple[Dict, Dict]:
        """Submit, wait, and return ``(acceptance payload, result record)``."""
        accepted = self.submit(source, **submit_kwargs)
        job_id = accepted["job"]["id"]
        return accepted, self.wait(job_id, timeout_s=timeout_s)
