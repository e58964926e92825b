"""Run the CLI in process and capture what it writes.

``CliRunner().invoke(main, args)`` calls ``main(args=args)``, which always
ends in ``SystemExit``, and returns its exit code with the text written to
stdout (``output``) and to stderr (``stderr``).
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    output: str
    stderr: str


class CliRunner:
    def invoke(self, main, args, catch_exceptions: bool = False) -> Result:
        """An exception other than ``SystemExit`` propagates, unless
        ``catch_exceptions``: then it reads as exit code 1."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(args=[str(arg) for arg in args])
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                if not catch_exceptions:
                    raise
                code = 1
        return Result(code, out.getvalue(), err.getvalue())
