"""Report containers and their JSON form.

Reports are the only values that cross the CLI boundary. Timing is kept
out of the canonical JSON so that repeated runs (and runs with different
worker counts) emit byte-identical output; callers that want wall-clock
numbers read them from the ``elapsed`` attribute or pass
``include_timings=True``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

import jsonschema

TOOL_VERSION = "0.1.0"


@dataclass
class CiReport:
    subject: dict[str, Any]
    verdict: bool
    method: str
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    elapsed: Optional[float] = None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "subject": self.subject,
            "verdict": self.verdict,
            "method": self.method,
            "witnesses": self.witnesses,
            "stats": self.stats,
            "notes": self.notes,
        }
        if include_timings and self.elapsed is not None:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        return out


@dataclass
class ReportBundle:
    command: str
    config: dict[str, Any]
    reports: list[dict[str, Any]]
    elapsed: Optional[float] = None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "config": self.config,
            "reports": self.reports,
        }
        if include_timings and self.elapsed is not None:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        return out


CI_REPORT_SCHEMA = {
    "type": "object",
    "required": ["subject", "verdict", "method", "witnesses", "stats", "notes"],
    "properties": {
        "subject": {"type": "object"},
        "verdict": {"type": "boolean"},
        "method": {"type": "string"},
        "witnesses": {"type": "array", "items": {"type": "object"}},
        "stats": {"type": "object"},
        "notes": {"type": "object"},
        "elapsed_seconds": {"type": "number"},
    },
    "additionalProperties": False,
}

BUNDLE_SCHEMA = {
    "type": "object",
    "required": ["tool_version", "command", "config", "reports"],
    "properties": {
        "tool_version": {"type": "string"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "reports": {"type": "array", "items": CI_REPORT_SCHEMA},
        "elapsed_seconds": {"type": "number"},
    },
    "additionalProperties": False,
}


def validate_bundle_dict(data: dict) -> None:
    jsonschema.validate(data, BUNDLE_SCHEMA)


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
