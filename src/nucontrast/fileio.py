"""All-or-nothing text file writes."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path):
    """Open ``path`` for writing UTF-8 text with LF newlines, all or nothing.

    The text goes to a new temporary file in the same directory, which
    replaces ``path`` with ``os.replace`` only when the block exits cleanly.
    If the block raises, the temporary file is removed and whatever was at
    ``path`` is left as it was. There is no fsync: this guards against a
    process that dies mid-write, not against power loss.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
