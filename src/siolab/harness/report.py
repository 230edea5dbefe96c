"""Scenario reports and CSV emission.

CSV files are RFC-4180 style (CRLF line endings, ``.`` decimal
separator) with floats printed to 17 significant digits so values round
trip exactly.  Verdicts are derived only from the recorded metrics, so
a report can be re-checked from its CSV alone.  Runtime goes to the
text report, never into a CSV, keeping CSV bytes reproducible.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field


def fmt_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[list]


@dataclass
class ScenarioReport:
    scenario: str
    config_echo: dict[str, str]
    tables: list[Table] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_table(self, name: str, header: list[str], rows: list[list]) -> None:
        self.tables.append(Table(name, header, rows))

    def add_verdict(self, name: str, passed: bool, detail: str = "") -> None:
        self.verdicts.append(Verdict(name, passed, detail))

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def write(self, out_dir) -> list[str]:
        """Write one CSV per table plus a text report; returns the paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for table in self.tables:
            path = os.path.join(out_dir, f"{self.scenario}_{table.name}.csv")
            write_csv(path, table.header, table.rows)
            paths.append(path)
        report_path = os.path.join(out_dir, f"{self.scenario}_report.txt")
        with open(report_path, "w") as fh:
            fh.write(self.to_text())
        paths.append(report_path)
        return paths

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"runtime_seconds: {self.runtime_seconds:.3f}")
        lines.append("")
        lines.append("[verdicts]")
        for v in self.verdicts:
            status = "PASS" if v.passed else "FAIL"
            detail = f"  ({v.detail})" if v.detail else ""
            lines.append(f"{v.name}: {status}{detail}")
        lines.append("")
        lines.append("[effective config]")
        for key in sorted(self.config_echo):
            lines.append(f"{key} = {self.config_echo[key]}")
        lines.append("")
        return "\n".join(lines)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC 4180: CRLF terminator by default
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])

