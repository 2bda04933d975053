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
    if path is None:
        _write_report(report, sys.stdout)
    else:
        with open(path, "w") as f:
            _write_report(report, f)


def _write_report(report: dict, f) -> None:
    json.dump(report, f, sort_keys=True, indent=2)
    f.write("\n")


def load_schema() -> dict:
    ref = importlib.resources.files("cocyclelab") / "schemas" / SCHEMA_RESOURCE
    return json.loads(ref.read_text())


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
