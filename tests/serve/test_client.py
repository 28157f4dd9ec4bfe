"""ServeClient transport resilience: bounded retries, timeout discipline."""

import json
import socket
import threading

import pytest

from repro.serve import ServeClient


class FlakyServer(threading.Thread):
    """A line server that drops the first ``drops`` requests mid-read.

    Each dropped request sees its connection closed without a response —
    the client observes a mid-request ``ConnectionResetError``.  Requests
    past the budget are answered ``{"ok": true, "echo": ...}``.  With
    ``mute=True`` it accepts and reads but never responds (a wedged,
    living server).
    """

    def __init__(self, drops=0, mute=False):
        super().__init__(daemon=True)
        self.drops = drops
        self.mute = mute
        self.connections = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self._stopping = threading.Event()
        self._conn = None

    def run(self):
        while not self._stopping.is_set():
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            self._conn = conn
            self.connections += 1
            with conn:
                if self._stopping.is_set():
                    return  # stop() raced this accept and missed the conn
                rfile = conn.makefile("r", encoding="utf-8", newline="\n")
                for line in rfile:
                    if self.mute:
                        continue  # read forever, answer never
                    if self.drops > 0:
                        self.drops -= 1
                        break  # close without responding
                    response = {"ok": True, "echo": json.loads(line)}
                    conn.sendall(
                        (json.dumps(response) + "\n").encode("utf-8")
                    )
                rfile.close()  # makefile holds the fd: close it too,
                try:           # or the peer never sees our EOF
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def stop(self):
        """Die completely: no new connections, and the one already
        accepted is cut too (a thread still serving it after ``stop()``
        would answer the client this harness claims to have killed)."""
        self._stopping.set()
        for sock in (self.listener, self._conn):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked thread
                except OSError:
                    pass
        self.listener.close()
        self.join(timeout=5.0)
        assert not self.is_alive(), "FlakyServer thread outlived stop()"


@pytest.fixture
def flaky():
    servers = []

    def factory(**kwargs):
        server = FlakyServer(**kwargs)
        server.start()
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.stop()


class TestRetries:
    def test_mid_request_reset_is_retried_transparently(self, flaky):
        server = flaky(drops=2)
        with ServeClient(
            "127.0.0.1", server.port, retries=2, retry_backoff_s=0.01
        ) as client:
            response = client.request({"op": "ping"})
        assert response["ok"]
        # Two drops burned two reconnects: three connections total.
        assert server.connections == 3

    def test_retry_budget_is_bounded(self, flaky):
        server = flaky(drops=5)
        with ServeClient(
            "127.0.0.1", server.port, retries=1, retry_backoff_s=0.01
        ) as client:
            with pytest.raises(ConnectionError):
                client.request({"op": "ping"})
        assert server.connections == 2  # initial + exactly one retry

    def test_zero_retries_surfaces_the_first_reset(self, flaky):
        server = flaky(drops=1)
        with ServeClient("127.0.0.1", server.port, retries=0) as client:
            with pytest.raises(ConnectionResetError):
                client.request({"op": "ping"})

    def test_refused_reconnect_burns_attempts_not_forever(self, flaky):
        # The server dies completely after accepting the client: the
        # retry loop's reconnects hit ECONNREFUSED, which must consume
        # the bounded budget and surface, not spin.
        server = flaky(drops=0)
        client = ServeClient(
            "127.0.0.1", server.port, retries=2, retry_backoff_s=0.01
        )
        server.stop()
        with client:
            with pytest.raises(ConnectionError):
                client.request({"op": "ping"})

    def test_timeout_is_never_retried(self, flaky):
        # Silence is not evidence the server is gone: a read timeout
        # propagates immediately so the deadline machinery owns it.
        server = flaky(mute=True)
        with ServeClient(
            "127.0.0.1", server.port, timeout=0.2, retries=3
        ) as client:
            with pytest.raises(socket.timeout):
                client.request({"op": "ping"})
        assert server.connections == 1  # no reconnect happened

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, retries=-1)
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, retry_backoff_s=-0.5)
