"""Flat key-value run reports: one ``record.field=value`` line per fact.

Field names are stable; values use shortest-roundtrip float repr so a
report is both human-readable and machine-parseable with ``parse``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunReport", "parse"]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class RunReport:
    def __init__(self) -> None:
        self._lines: list[str] = []

    def add(self, record: str, **fields) -> None:
        for key, value in fields.items():
            self._lines.append(f"{record}.{key}={_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")


def parse(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out
