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
    text = json.dumps(report, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        # two writes, not text + "\n": one copy of a report's text is held, not two;
        # json.dump would make one write per chunk
        with open(path, "w") as f:
            f.write(text)
            f.write("\n")


def load_schema() -> dict:
    ref = importlib.resources.files("cocyclelab") / "schemas" / SCHEMA_RESOURCE
    return json.loads(ref.read_text())


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
