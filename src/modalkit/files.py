"""The one rule for replacing a whole file: datasets, manifests, fixtures."""

from __future__ import annotations

import os
import stat
from typing import Iterable


def replace_file(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the text chunks, in order and as UTF-8, as the whole of path.

    A missing or regular-file target (through a symlink at path, as open()
    would) is written to a temporary file beside it, which takes the old
    file's mode and is renamed over it; any failure, one raised while the
    chunks are produced included, removes the temporary file and leaves
    the target as it was.  The new file does not keep the old one's owner
    or hard links.  Nothing is fsynced: readers see the old or the whole
    new file, but a power loss may keep neither.  Any other target (a
    FIFO, a device, /dev/stdout) is written directly, so a failure may
    leave part of the output in it."""
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path) if os.path.islink(path) else path  # realpath lstats each part
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
