"""Warning reports produced by the static and dynamic checkers.

DeepMC "will create a detailed report of warnings, which shows the line
numbers of the bugs" (§4.3). Warnings are deduplicated by (rule, location)
across traces; the report renders grouped by file, matching the layout of
the paper's bug tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..ir.sourceloc import SourceLoc
from ..models import CATEGORY_PERFORMANCE, CATEGORY_VIOLATION, SPECS_BY_ID


@dataclass(frozen=True)
class Warning_:
    """One reported potential persistency bug."""

    rule_id: str
    loc: SourceLoc
    fn: str
    message: str
    #: "static" or "dynamic"
    source: str = "static"

    @property
    def category(self) -> str:
        return SPECS_BY_ID[self.rule_id].category

    @property
    def title(self) -> str:
        return SPECS_BY_ID[self.rule_id].title

    def key(self) -> Tuple[str, str, int]:
        return (self.rule_id, self.loc.file, self.loc.line)

    def render(self) -> str:
        tag = "VIOLATION" if self.category == CATEGORY_VIOLATION else "PERF"
        return f"WARNING [{tag}] {self.loc}: {self.title} — {self.message} (in @{self.fn}, {self.rule_id}, {self.source})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "category": self.category,
            "title": self.title,
            "file": self.loc.file,
            "line": self.loc.line,
            "fn": self.fn,
            "message": self.message,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Warning_":
        """Inverse of :meth:`to_dict` (category/title are derived)."""
        return cls(
            rule_id=data["rule"],
            loc=SourceLoc(data["file"], data["line"], data.get("col", 0)),
            fn=data.get("fn", ""),
            message=data.get("message", ""),
            source=data.get("source", "static"),
        )


class Report:
    """A deduplicated collection of warnings."""

    def __init__(self, module_name: str = "", model: str = ""):
        self.module_name = module_name
        self.model = model
        self._warnings: Dict[Tuple[str, str, int], Warning_] = {}

    def add(self, warning: Warning_) -> None:
        self._warnings.setdefault(warning.key(), warning)

    def extend(self, warnings: Iterable[Warning_]) -> None:
        for w in warnings:
            self.add(w)

    def merge(self, other: "Report") -> None:
        self.extend(other.warnings())

    def warnings(self) -> List[Warning_]:
        return sorted(
            self._warnings.values(),
            key=lambda w: (w.loc.file, w.loc.line, w.rule_id),
        )

    def violations(self) -> List[Warning_]:
        return [w for w in self.warnings() if w.category == CATEGORY_VIOLATION]

    def performance(self) -> List[Warning_]:
        return [w for w in self.warnings() if w.category == CATEGORY_PERFORMANCE]

    def by_file(self) -> Dict[str, List[Warning_]]:
        out: Dict[str, List[Warning_]] = {}
        for w in self.warnings():
            out.setdefault(w.loc.file, []).append(w)
        return out

    def has(self, rule_id: str, file: str, line: int) -> bool:
        return (rule_id, file, line) in self._warnings

    def at(self, file: str, line: int) -> List[Warning_]:
        return [
            w for w in self.warnings()
            if w.loc.file == file and w.loc.line == line
        ]

    def __len__(self) -> int:
        return len(self._warnings)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable view: the ``--format json`` payload that CI
        and scripts consume instead of screen-scraping :meth:`render`."""
        return {
            "module": self.module_name,
            "model": self.model,
            "count": len(self),
            "violations": len(self.violations()),
            "performance": len(self.performance()),
            "warnings": [w.to_dict() for w in self.warnings()],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        # sorted like every other machine-readable surface (fuzz, chaos,
        # crashsim, bench), so the byte layout never depends on dict
        # construction order
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Report":
        """Inverse of :meth:`to_dict` — how cached and worker-produced
        reports are rehydrated in the parent process."""
        report = cls(data.get("module", ""), data.get("model", ""))
        report.extend(Warning_.from_dict(w) for w in data.get("warnings", ()))
        return report

    def render(self) -> str:
        lines = [
            f"DeepMC report for module {self.module_name!r} "
            f"(model: {self.model}) — {len(self)} warning(s)"
        ]
        for file, warnings in sorted(self.by_file().items()):
            lines.append(f"\n{file}:")
            for w in warnings:
                lines.append(f"  {w.render()}")
        return "\n".join(lines)
