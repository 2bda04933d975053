"""Experiment report assembly: one JSON document per CLI run.

Everything under "results" and "config" is a pure function of the
resolved configuration, so re-running a command reproduces those payloads
byte for byte; wall-clock timestamps live in their own key and are the
only non-deterministic content.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import os
import stat
import sys
from datetime import datetime, timezone

from . import __version__

SCHEMA_RESOURCE = "report.schema.json"


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def make_report(command: str, config: dict, results: dict, started: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "results": results,
        "timestamps": {"started": started, "finished": utc_now()},
    }


def canonical_payload(report: dict) -> bytes:
    """The deterministic part of a report, canonically serialized."""
    payload = {"command": report["command"], "version": report["version"],
               "config": report["config"], "results": report["results"]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def dump_report(report: dict, path: str | None) -> None:
    """The report as key-sorted, indented JSON and a newline, to path or stdout.

    json.dump writes the text chunk by chunk, so the whole text is never held:
    json.dumps would build it at several times its size first.
    """
    def write(f):
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    if path is None:
        write(sys.stdout)
    else:
        _write(path, write)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    _write(path, lambda f: csv.writer(f).writerows([header, *rows]))


def _write(path: str, write) -> None:
    """write(f) on a text file (no newline translation) that ends up at path.

    Where path is missing or a regular file, the text is written beside it
    under a temporary name and renamed over it when complete, so a write
    that raises leaves path as it was and no temporary file behind; a
    symbolic link at path is followed, so the link stays.  Anything else (a
    device such as /dev/null, a FIFO, a terminal), and a file the renamed
    one could not stand in for, is opened and written in place, as a plain
    open would.
    """
    replacement = _open_replacement(path)
    if replacement is None:
        with open(path, "w", newline="") as f:
            write(f)
        return
    f, tmp, target = replacement
    try:
        with f:
            write(f)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _open_replacement(path: str):
    """(file, its name, target): a new file to be renamed over path's target.

    None where the rename would not leave the same file under the same names:
    the target exists and is not a regular file, has other hard links, or
    has an owner or group the new file cannot take, or its directory
    refuses a new file (a writable report in a read-only directory), or a
    file or link already has the temporary name.  The new file is created
    with a plain open's mode (0o666 less the umask), then takes the replaced
    file's mode, owner and group.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        return None
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        # O_EXCL: a file or link already at tmp is never opened or followed
        f = os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w",
                      newline="")
    except OSError:
        return None
    if st is not None:
        try:
            own = os.fstat(f.fileno())
            if (own.st_uid, own.st_gid) != (st.st_uid, st.st_gid):
                os.chown(tmp, st.st_uid, st.st_gid)
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        except OSError:
            f.close()
            os.unlink(tmp)
            return None
    return f, tmp, target


def load_schema() -> dict:
    ref = importlib.resources.files("cocyclelab") / "schemas" / SCHEMA_RESOURCE
    return json.loads(ref.read_text())

