"""Durable filesystem primitives for the streaming result sink.

POSIX gives three separate durability obligations for "this file now exists
with these bytes, even after a power loss":

1. the file's *data* must be flushed (``os.fsync`` on the file descriptor);
2. an atomic rename makes the content *visible* under the final name
   (``os.replace``);
3. the *directory entry* itself must be flushed (``os.fsync`` on a
   descriptor of the containing directory), or the rename may vanish with
   the directory's dirty metadata.

Skipping (1) can leave a zero-length or torn file under the final name after
a crash; skipping (3) can lose the file entirely.  The streaming sink's
manifest goes through :func:`atomic_write_text`, which performs all three;
segment appends fsync their own descriptor on the sink's cadence.

Directory fsync is not supported everywhere (notably some network and
Windows filesystems return ``EINVAL``/``EBADF``); :func:`fsync_dir` treats
that as best-effort rather than an error, matching the usual practice of
databases shipping on those platforms.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["fsync_fileobj", "fsync_dir", "atomic_write_text"]

PathLike = Union[str, Path]


def fsync_fileobj(handle) -> None:
    """Flush Python buffers and fsync the OS file descriptor."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(directory: PathLike) -> None:
    """Flush the directory entry table so renames/creates survive a crash.

    Best-effort: filesystems that cannot fsync a directory descriptor
    (``EINVAL``, ``EBADF``, ``EACCES`` on some mounts) are silently
    tolerated — there is nothing more a portable program can do there.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str, durable: bool = True) -> Path:
    """Atomically (and, by default, durably) replace ``path`` with ``text``.

    Writes to ``<path>.tmp`` in the same directory, fsyncs the temp file
    (when ``durable``), renames it over ``path``, then fsyncs the directory
    (when ``durable``).  On any failure the temp file is removed so no
    half-written litter survives; the destination is either the old content
    or the complete new content, never a mix.
    """
    destination = Path(path)
    temporary = destination.with_name(destination.name + ".tmp")
    try:
        with temporary.open("w") as handle:
            handle.write(text)
            if durable:
                fsync_fileobj(handle)
        os.replace(temporary, destination)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    if durable:
        fsync_dir(destination.parent)
    return destination
