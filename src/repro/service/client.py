"""A stdlib ``urllib`` client for the experiment service API.

:class:`ServiceClient` is what the CLI verbs (``repro submit``,
``repro jobs``) and the tests drive the HTTP surface with — one small
class so the wire format lives in exactly two files (here and
:mod:`repro.service.api`).  Error responses raise :class:`ServiceError`
carrying the HTTP status and the server's JSON body, whose ``error``
field is the same eager-validation message the CLI prints for a bad
``--scenario``.

The stream endpoint's server-sent events arrive over chunked transfer
encoding; ``http.client`` de-chunks transparently, so
:meth:`ServiceClient.stream` just parses ``event:``/``data:`` lines off
the response and yields ``(kind, payload)`` pairs until the terminal
event closes the stream.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Iterator

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """An HTTP error response from the service, with its JSON body."""

    def __init__(self, message: str, status: int = 0, payload: dict | None = None):
        super().__init__(message)
        self.status = int(status)
        self.payload = payload if payload is not None else {}


class ServiceClient:
    """Talk to one service at ``base_url`` (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _open(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                payload = {"error": raw.decode(errors="replace")}
            raise ServiceError(
                payload.get("error", f"HTTP {exc.code}"),
                status=exc.code,
                payload=payload,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self.base_url}: {exc.reason}") from None

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        with self._open(method, path, body) as response:
            return json.loads(response.read().decode())

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(self, spec: str) -> tuple[dict, bool]:
        """Submit a scenario spec; returns ``(job, created)``.  An invalid
        spec raises :class:`ServiceError` with the validation message."""
        payload = self._request("POST", "/jobs", {"spec": spec})
        return payload["job"], bool(payload["created"])

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def jobs(self, state: str | None = None) -> list[dict]:
        path = "/jobs" if state is None else f"/jobs?state={state}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def stream(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[tuple[str, dict]]:
        """Yield ``(kind, payload)`` for each server-sent event of a job,
        replaying history then tailing until a terminal event (``done`` /
        ``failed`` / ``cancelled``) or the server-side ``timeout``."""
        path = f"/jobs/{job_id}/stream"
        read_timeout = None
        if timeout is not None:
            path += f"?timeout={timeout}"
            # The server may stay quiet for the whole tail bound.
            read_timeout = self.timeout + timeout
        with self._open("GET", path, timeout=read_timeout) as response:
            kind, data_lines = None, []
            for raw in response:
                line = raw.decode().rstrip("\r\n")
                if line.startswith("event:"):
                    kind = line[len("event:") :].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:") :].strip())
                elif not line and kind is not None:
                    yield kind, json.loads("\n".join(data_lines) or "{}")
                    kind, data_lines = None, []

    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Follow the job's stream to its terminal event; returns the job."""
        for kind, payload in self.stream(job_id, timeout=timeout):
            if kind == "timeout":
                raise ServiceError(
                    f"job {job_id} still {payload['state']!r} after {timeout}s"
                )
        return self.job(job_id)
