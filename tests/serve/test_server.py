"""Tests for the TCP front end and its line protocol."""

import socket
import threading
import time

import pytest

from repro.serve.server import MAX_LINE_BYTES, ServeClient, ZServeServer
from repro.serve.service import ServeConfig, ZServeCache


@pytest.fixture()
def server():
    cache = ZServeCache(ServeConfig(num_shards=2, lines_per_way=32))
    srv = ZServeServer(cache, port=0)
    srv.serve_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServeClient(host, port) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        assert client.ping() is True

    def test_put_get_roundtrip(self, client):
        client.put("k1", "v1")
        assert client.get("k1") == "v1"
        assert client.get("missing") is None

    def test_delete(self, client):
        client.put("k", "v")
        assert client.delete("k") is True
        assert client.delete("k") is False
        assert client.get("k") is None

    def test_stats(self, client):
        client.put("k", "v")
        client.get("k")
        stats = client.stats()
        assert stats["shards"] == 2
        assert stats["hits"] >= 1

    def test_bad_requests_get_err(self, client):
        assert client.request("BOGUS").startswith("ERR")
        assert client.request("GET too many args").startswith("ERR")
        assert client.request("") == "ERR empty request"
        # The connection survives a bad request.
        assert client.ping() is True

    def test_oversized_line_gets_err_and_hangs_up(self, server):
        host, port = server.address
        with ServeClient(host, port) as c:
            reply = c.request("GET " + "k" * MAX_LINE_BYTES)
            assert reply == "ERR line too long"
            with pytest.raises(ConnectionError):
                c.request("PING")
        # The server itself is unharmed: a fresh connection is served.
        with ServeClient(host, port) as fresh:
            assert fresh.request("PING") == "PONG"

    def test_line_at_the_limit_is_served(self, client):
        line = "PUT k " + "v" * (MAX_LINE_BYTES - len("PUT k ") - 1)
        assert client.request(line) == "OK"
        assert client.ping() is True

    def test_dispatch_without_socket(self):
        # The protocol logic is testable without any networking.
        cache = ZServeCache(ServeConfig(num_shards=1, lines_per_way=16))
        srv = ZServeServer.__new__(ZServeServer)
        srv.cache = cache
        assert srv.dispatch("PING") == "PONG"
        assert srv.dispatch("PUT a 1") == "OK"
        assert srv.dispatch("GET a") == "HIT 1"
        assert srv.dispatch("DEL a") == "OK 1"
        assert srv.dispatch("GET a") == "MISS"
        assert srv.dispatch("") == "ERR empty request"


class _FailingCache:
    """A cache stub whose ``get`` raises, as a bug inside it would."""

    def get(self, key):
        raise KeyError(key)


class TestInternalErrors:
    def test_exception_in_dispatch_gets_err_and_keeps_connection(self):
        srv = ZServeServer(_FailingCache(), port=0)
        srv.serve_in_background()
        try:
            host, port = srv.address
            with ServeClient(host, port) as c:
                assert c.request("GET k") == "ERR internal: KeyError"
                assert c.request("PING") == "PONG"
        finally:
            srv.shutdown()
            srv.server_close()


class TestIdleTimeout:
    @pytest.fixture()
    def short_timeout(self, monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 0.2)

    def test_silent_client_is_hung_up_on(self, short_timeout, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            assert sock.recv(1) == b""  # EOF, no reply

    def test_talking_client_is_still_served(self, short_timeout, server):
        host, port = server.address
        with ServeClient(host, port) as c:
            for _ in range(8):  # 0.4 s in all, twice the timeout
                time.sleep(0.05)
                assert c.ping() is True


class TestConcurrentClients:
    def test_parallel_connections(self, server):
        host, port = server.address
        errors = []

        def hammer(base):
            try:
                with ServeClient(host, port) as c:
                    for i in range(150):
                        key = f"k{(base * 37 + i) % 500}"
                        c.put(key, f"v{i}")
                        c.get(key)
                    assert c.ping()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        server.cache.check_consistency()


class TestClientLifecycle:
    def test_close_is_idempotent(self, server):
        host, port = server.address
        client = ServeClient(host, port)
        assert client.ping() is True
        client.close()
        client.close()  # second close must be a no-op, not EBADF

    def test_context_manager_after_manual_close(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.put("k", "v")
            client.close()
        # __exit__ closed an already-closed client without raising.

    def test_server_closing_the_connection_raises_connection_error(self):
        # A stub that answers one request and hangs up: the client's
        # next read sees EOF and must surface the typed error, not an
        # empty-reply ValueError. (ZServeServer hangs up first only
        # after an oversized line, so the stub is the simplest
        # deterministic way onto this path.)
        lsock = socket.socket()
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(1)
        host, port = lsock.getsockname()

        def serve_once():
            conn, _ = lsock.accept()
            rfile = conn.makefile("rwb")
            rfile.readline()
            rfile.write(b"PONG\n")
            rfile.flush()
            conn.close()

        threading.Thread(target=serve_once, daemon=True).start()
        client = ServeClient(host, port)
        try:
            assert client.ping() is True
            with pytest.raises(ConnectionError, match="server closed"):
                client.request("PING")
        finally:
            client.close()
            lsock.close()
