"""Artifact writes that never leave a partial file at the target path.

Every artifact (checkpoints, training logs, CSVs, JSON reports) is
written to a temporary file next to its target and moved into place
with ``os.replace``, which is atomic when both paths are on one file
system.  A writer that raises, or a process killed mid-write, leaves
the previous file, or no file, at the target; a raised error also
removes the temporary file.  Files are not fsynced: the guarantee
covers an aborted process, not a power loss.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """File object writing ``path``; the file appears only when the block completes.

    Text mode is UTF-8 with no newline translation.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
