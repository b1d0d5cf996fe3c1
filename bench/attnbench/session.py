"""Runs attnalign commands in-process, one at a time, and records them."""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import sys
import time
import traceback
from dataclasses import dataclass

from attnalign import cli


@dataclass
class Command:
    stage: str  # the attnalign subcommand
    seconds: float
    rc: int
    stdout: str
    ok: bool = True


class _LogTally(logging.Handler):
    """Counts batches the trainer skipped; echoes errors to stderr."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.skipped_batches = 0

    def emit(self, record):
        if record.levelno < logging.WARNING:
            return
        msg = record.getMessage()
        if record.name == "attnalign.training" and "batch skipped" in msg:
            self.skipped_batches += 1
        if record.levelno >= logging.ERROR:
            print(f"{record.levelname} {record.name}: {msg}", file=sys.stderr)


class Session:
    """Closed loop with one client: each command starts after the last ends.

    While a session is open the root logger has its handler, so the
    ``logging.basicConfig`` call in ``cli.main`` adds no stderr handler and
    the INFO records the CLI emits are built but not printed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.commands = []
        self.other_failures = []
        self.train_batches = 0
        self._tally = _LogTally()
        root = logging.getLogger()
        root.addHandler(self._tally)
        root.setLevel(logging.INFO)

    def close(self):
        logging.getLogger().removeHandler(self._tally)

    def run(self, stage, args):
        """Run ``attnalign <stage> <args>``; a failure is recorded, not raised."""
        if self.tracer is not None:
            self.tracer.command += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([stage, *map(str, args)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = 1
        seconds = time.perf_counter() - start
        cmd = Command(stage, seconds, rc, out.getvalue())
        self.commands.append(cmd)
        if rc != 0:
            self.fail(f"exit status {rc}", cmd)
        return cmd

    def fail(self, message, cmd=None):
        """Count a failed check against ``cmd``, or as an operation of its own."""
        where = cmd.stage if cmd is not None else "run"
        print(f"check failed: {where}: {message}", file=sys.stderr)
        if cmd is None:
            self.other_failures.append(message)
        else:
            cmd.ok = False

    @property
    def attempted(self):
        return len(self.commands) + self.train_batches + len(self.other_failures)

    @property
    def failed(self):
        bad = sum(not c.ok for c in self.commands)
        return bad + self._tally.skipped_batches + len(self.other_failures)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
