"""Report containers and their JSON form.

Reports are the only values that cross the CLI boundary. Timing is kept
out of the canonical JSON so that repeated runs (and runs with different
worker counts) emit byte-identical output; callers that want wall-clock
numbers read them from the ``elapsed`` attribute or pass
``include_timings=True``.

``validate_bundle_dict`` checks each bundle before it is printed: every
field of the bundle and of each report is present with its JSON type, no
other field appears but a numeric ``elapsed_seconds``, and every witness
is an object. Only bundles cimlab built itself are checked, so a failure
is an internal error: ``RuntimeError``, exit 3 at the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

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


# required field -> type; ``elapsed_seconds`` is the only optional field
REPORT_FIELDS = {"subject": dict, "verdict": bool, "method": str, "witnesses": list,
                 "stats": dict, "notes": dict}
BUNDLE_FIELDS = {"tool_version": str, "command": str, "config": dict, "reports": list}


def _check_fields(data: Any, fields: dict[str, type], where: str) -> None:
    if not isinstance(data, dict):
        raise RuntimeError(f"{where} is {type(data).__name__}, not an object")
    extra = data.keys() - fields.keys() - {"elapsed_seconds"}
    if extra:
        raise RuntimeError(f"{where} has unexpected fields {', '.join(sorted(map(repr, extra)))}")
    for key, kind in fields.items():
        if not isinstance(data.get(key), kind):
            raise RuntimeError(f"{where}.{key} is missing or not {kind.__name__}")
    seconds = data.get("elapsed_seconds", 0)
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
        raise RuntimeError(f"{where}.elapsed_seconds is not a number")


def validate_bundle_dict(data: dict) -> None:
    _check_fields(data, BUNDLE_FIELDS, "bundle")
    for i, report in enumerate(data["reports"]):
        _check_fields(report, REPORT_FIELDS, f"reports[{i}]")
        if not all(isinstance(w, dict) for w in report["witnesses"]):
            raise RuntimeError(f"reports[{i}] has a witness that is not an object")


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
