"""Exception hierarchy.

Everything a caller can provoke with bad input derives from
:class:`CallpathError`; the CLI maps those to exit code 1. Internal
invariant violations (broken predecessor chains and the like) derive
from :class:`InternalSearchError`, which is a ``RuntimeError``: hitting
one is a bug, not a user error.
"""

from __future__ import annotations


class CallpathError(Exception):
    """Base class for user-facing errors."""


class InvalidNodeError(CallpathError):
    """A node id is outside the graph's ``[0, node_count)`` range."""

    def __init__(self, node: int, node_count: int):
        super().__init__(f"node id {node} out of range (graph has {node_count} nodes)")
        self.node = node
        self.node_count = node_count


class NameNotFoundError(CallpathError):
    """No node matches a qualified ``Class.method`` name."""

    def __init__(self, name: str):
        super().__init__(f"no node named {name!r}")
        self.name = name


class AmbiguousNameError(CallpathError):
    """A qualified name maps to several imported nodes (collapsed overloads)."""

    def __init__(self, name: str, candidates: list[int]):
        ids = ", ".join(str(c) for c in candidates)
        super().__init__(f"name {name!r} is ambiguous: node ids [{ids}]")
        self.name = name
        self.candidates = list(candidates)


class JsonlFormatError(CallpathError):
    """A graph JSONL stream is malformed; carries the offending line number
    and, when the stream has one, the file name (``source``)."""

    def __init__(self, lineno: int, message: str, source: str | None = None):
        where = f"line {lineno}" if source is None else f"{source}: line {lineno}"
        super().__init__(f"{where}: {message}")
        self.lineno = lineno
        self.detail = message


class SyntheticSpecError(CallpathError):
    """A synthetic-graph spec is inconsistent or infeasible."""


class StoreError(CallpathError):
    """Base class for graph-store file problems."""


class StoreFormatError(StoreError):
    """Bad magic, unsupported version, or inconsistent section layout."""


class StoreLimitError(StoreError):
    """The graph exceeds the store format's fixed-width limits."""


class ChecksumError(StoreError):
    """A store section failed verification; names the damaged section."""

    def __init__(self, section: str, detail: str):
        super().__init__(f"section {section!r} damaged: {detail}")
        self.section = section

    @classmethod
    def mismatch(cls, section: str, expected: int, actual: int) -> "ChecksumError":
        return cls(section, f"expected CRC {expected:#010x}, got {actual:#010x}")


class ScenarioError(CallpathError):
    """A benchmark scenario fails to resolve or violates its contract."""


class InternalSearchError(RuntimeError):
    """Search bookkeeping invariant violated; indicates a bug, never bad input."""
