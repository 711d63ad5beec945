"""HTTP frontend vs in-process client: one API, two transports."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import InsightServer, LocalClient, QueryCache, QueryEngine
from repro.stream import EpochStore

from tests.serve.corpus import make_consumer, make_pairs


@pytest.fixture(scope="module")
def engine():
    """One engine over the fully drained shared corpus."""
    epochs = EpochStore(history=None)
    make_consumer(make_pairs(), epochs=epochs).run()
    return QueryEngine(epochs, cache=QueryCache())


@pytest.fixture()
def server(engine):
    """A running HTTP server on an ephemeral port."""
    with InsightServer(engine, port=0) as server:
        yield server


def _post(server, path, payload):
    """POST JSON; returns (status, body) without raising on 4xx."""
    request = urllib.request.Request(
        f"http://{server.host}:{server.port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(server, path):
    """GET; returns (status, body) without raising on 4xx."""
    try:
        with urllib.request.urlopen(
            f"http://{server.host}:{server.port}{path}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestTransportParity:
    """HTTP and LocalClient return byte-equal JSON bodies."""

    def test_query_bodies_match(self, engine, server):
        """Same payload, same body over both transports."""
        payload = {"kind": "assoc2d", "rows": ["field", "city"],
                   "cols": ["field", "car"]}
        local = LocalClient(engine)
        local.query(payload)  # warm the cache so both reads are cached
        status, http_body = _post(server, "/query", payload)
        assert status == 200
        assert http_body == local.query(payload)

    def test_status_bodies_match(self, engine, server):
        """The health view is identical over both transports."""
        status, http_body = _get(server, "/status")
        assert status == 200
        local_body = LocalClient(engine).status()
        assert http_body["result"]["documents"] == (
            local_body["result"]["documents"]
        )
        assert http_body["epoch"] == local_body["epoch"]

    def test_healthz_aliases_status(self, engine, server):
        """/healthz serves the same view as /status."""
        _, healthz = _get(server, "/healthz")
        _, status = _get(server, "/status")
        assert healthz["result"] == status["result"]

    def test_response_carries_epoch_stamp(self, engine, server):
        """Every HTTP answer reports the epoch it was computed at."""
        status, body = _post(
            server, "/query",
            {"kind": "trends", "key": ["field", "car", "suv"]},
        )
        assert status == 200
        assert body["epoch"] == engine.epochs.current().epoch


class TestErrorMapping:
    """Spec errors map to 400, unknown routes to 404."""

    def test_unknown_kind_is_400(self, engine, server):
        """QueryError surfaces as a 400 with the message."""
        status, body = _post(server, "/query", {"kind": "nope"})
        assert status == 400
        assert "unknown query kind" in body["error"]

    def test_invalid_json_is_400(self, engine, server):
        """A non-JSON body is rejected before planning."""
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"not json {",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_json_body_is_structured(self, engine, server):
        """The 400 body carries both prose and a machine code."""
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"{ torn",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        body = json.loads(excinfo.value.read())
        assert body["code"] == "invalid-json"
        assert body["error"]

    def test_empty_body_is_400_with_code(self, engine, server):
        """A bodyless POST answers a coded 400, not a parse crash."""
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/query",
            data=b"",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["code"] == "empty-body"

    def test_unknown_kind_body_carries_code(self, engine, server):
        """Spec rejections are branchable without parsing prose."""
        status, body = _post(server, "/query", {"kind": "nope"})
        assert status == 400
        assert body["code"] == "bad-request"

    def test_oversized_body_is_413(self, engine, server):
        """A body past the 1 MiB cap is refused before being read.

        The server answers from the declared Content-Length without
        consuming the payload, so the upload may be cut off mid-write
        — the client must still find the 413 waiting.
        """
        import http.client

        payload = json.dumps(
            {"kind": "status", "pad": "x" * (1 << 20)}
        ).encode("utf-8")
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(len(payload)))
            connection.endheaders()
            try:
                connection.send(payload)
            except (BrokenPipeError, ConnectionResetError):
                pass  # refused mid-upload; the 413 is already queued
            response = connection.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["code"] == (
                "body-too-large"
            )
        finally:
            connection.close()

    def test_unknown_route_is_404(self, engine, server):
        """Unrouted paths answer 404 on both verbs."""
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/nope", {})[0] == 404

    def test_unpublished_store_is_503(self):
        """A warming server (no epoch yet) answers 503."""
        engine = QueryEngine(EpochStore())
        with InsightServer(engine, port=0) as server:
            status, body = _get(server, "/status")
        assert status == 503
        assert "no epoch" in body["error"]

    def test_local_client_raises_matching_errors(self, engine):
        """LocalClient maps 400/503 back onto the engine exceptions."""
        from repro.serve import QueryError

        client = LocalClient(engine)
        with pytest.raises(QueryError):
            client.query({"kind": "nope"})
        with pytest.raises(LookupError):
            LocalClient(QueryEngine(EpochStore())).status()


class TestShutdown:
    """POST /shutdown signals the owner; stop() drains and frees."""

    def test_shutdown_signals_owner_and_port_is_freed(self, engine):
        """The shutdown round-trip completes and the port closes."""
        server = InsightServer(engine, port=0).start()
        port = server.port
        assert not server.wait(timeout=0)
        status, body = _post(server, "/shutdown", {})
        assert status == 200 and body == {"stopping": True}
        assert server.wait(timeout=10)
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/status", timeout=2
            )

    def test_stop_is_idempotent(self, engine):
        """Calling stop twice (or before start) never raises."""
        server = InsightServer(engine, port=0)
        server.stop()
        running = InsightServer(engine, port=0).start()
        running.stop()
        running.stop()
