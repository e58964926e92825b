from __future__ import annotations

import pytest

from chatserver import ChatServer


@pytest.fixture
def chat_server():
    server = ChatServer().start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def no_network(monkeypatch):
    """Make any outgoing HTTP connection attempt blow up loudly.

    The client sends through ``urllib.request``, which opens every connection,
    HTTPS included, with ``http.client.HTTPConnection.connect``.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("network I/O attempted")

    monkeypatch.setattr("http.client.HTTPConnection.connect", forbidden)
