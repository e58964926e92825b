"""Tiny in-process chat-completions server for exercising the HTTP client."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion(text: str, finish_reason: str = "stop") -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text},
                     "finish_reason": finish_reason}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 5},
    }


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        payload = json.loads(raw) if length else {}
        with self.server.state_lock:
            # headers stay a message, so a lookup ignores the case of the name
            self.server.seen.append({"path": self.path, "payload": payload,
                                     "body": raw, "headers": self.headers})
        status, body, *extra = self.server.responder(payload)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.state_lock = threading.Lock()
        self.seen: list[dict] = []
        # payload -> (status, body) or (status, body, extra response headers)
        self.responder = self.echo

    @staticmethod
    def echo(payload: dict) -> tuple[int, dict]:
        content = payload.get("messages", [{}])[-1].get("content", "")
        return 200, completion(f"echo: {content}")

    @property
    def base_url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    def start(self):
        # shutdown() waits for the serve loop's next poll; the default 0.5 s
        # poll would make every test that uses the server wait that long
        thread = threading.Thread(target=self.serve_forever, args=(0.05,),
                                  daemon=True)
        thread.start()
        return self
