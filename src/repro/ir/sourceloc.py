"""Source locations attached to IR instructions.

DeepMC's warning reports are keyed by ``file:line`` (Tables 3 and 8 in the
paper list every bug that way), so every instruction can carry a
:class:`SourceLoc`. Corpus programs set these to the coordinates the paper
records for the original C code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SourceLoc:
    """An immutable (file, line, column) source coordinate."""

    file: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        if self.col:
            return f"{self.file}:{self.line}:{self.col}"
        return f"{self.file}:{self.line}"


#: Placeholder for IR constructed without source information.
UNKNOWN_LOC = SourceLoc("<unknown>", 0)
