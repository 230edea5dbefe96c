"""Output checks against the reference outputs in ``reference.json``.

A run's CSVs are compared cell by cell, never byte by byte: a change
may move CSV bytes (a new summation order, say) as long as every value
stays within the tolerance pinned for it.

* ``max_ratio`` (criteria 7 and 9) and the other derived floats (the
  Carleson norms, the LemmaL2 constants, eps schedules): relative
  1e-12, the tolerance criterion 3 pins on the maximal transform and
  the tightest relative one in the suite.
* ``worst_relative_slack`` (criterion 5): absolute 1e-9, the slack
  below which criterion 5 counts a violation.
* Pair-sum values (DoubleIntegral, WeakPairing): absolute, the
  scenario's own cancellation bound pairs x 2^-50 x max|term| stored
  with the reference.  The DoubleIntegral values on the affine graph
  are pure cancellation noise (about 1e-21), so only this bound fits.
* Everything else (sizes, counts, p, names, violations) must match
  exactly.

Columns marked seeded change with the seed.  At a seed without stored
reference outputs they are only checked to be finite; all other
columns are still compared with the default seed's reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

REL_T_STAR = 1e-12
SLACK_ABS = 1e-9
NOISE = "noise"  # absolute tolerance read from the reference's noise bound

# (csv file, column) -> (kind, tolerance, seeded); other columns: exact
COLUMNS = {
    ("separated_boundedness_ratios.csv", "max_ratio"): ("rel", REL_T_STAR, True),
    ("lemma_l2_metrics.csv", "worst_relative_slack"): ("abs", SLACK_ABS, True),
    ("lemma_l2_metrics.csv", "d1"): ("rel", REL_T_STAR, False),
    ("lemma_l2_metrics.csv", "d2"): ("rel", REL_T_STAR, False),
    ("lemma_l2_metrics.csv", "c_n"): ("rel", REL_T_STAR, False),
    ("double_integral_trace.csv", "eps"): ("rel", REL_T_STAR, False),
    ("double_integral_trace.csv", "value"): ("abs", NOISE, False),
    ("double_integral_trace.csv", "mirror_value"): ("abs", NOISE, False),
    ("weak_pairing_trace.csv", "eps"): ("rel", REL_T_STAR, False),
    **{("weak_pairing_trace.csv", c): ("abs", NOISE, False) for c in ("value", "i1", "i2", "i3", "i4")},
    **{("carleson_metrics.csv", c): ("rel", REL_T_STAR, False) for c in ("lhs", "rhs", "ratio")},
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_csvs(reference: dict, run: str, seed: int, seeded: bool):
    """(stored CSV texts, exact seed match) for one scenario run."""
    entry = reference["runs"][run]
    if not seeded:
        return entry["any_seed"], True
    if str(seed) in entry["seeds"]:
        return entry["seeds"][str(seed)], True
    return entry["seeds"][str(reference["default_seed"])], False


def _rows(text: str):
    return list(csv.reader(io.StringIO(text, newline="")))


def _off(kind, tol, got: str, want: str):
    """How far ``got`` is from ``want`` and the allowance, or None if within."""
    if kind == "exact":
        return None if got == want else (math.inf, 0.0)
    g, w = float(got), float(want)
    if math.isnan(g) and math.isnan(w):
        return None
    diff = abs(g - w)
    allowed = tol * abs(w) if kind == "rel" else tol
    return None if diff <= allowed else (diff, allowed)


def compare_run(run: str, produced: dict[str, bytes], expected: dict[str, str], exact_seed: bool,
                noise: float | None) -> list[str]:
    """Problems found in one scenario run's CSVs, as readable lines."""
    problems = []
    if sorted(produced) != sorted(expected):
        return [f"{run}: CSV files {sorted(produced)} != reference {sorted(expected)}"]
    for fname, want_text in expected.items():
        got = _rows(produced[fname].decode())
        want = _rows(want_text)
        if got[:1] != want[:1] or len(got) != len(want):
            problems.append(f"{run}/{fname}: header or row count differs from the reference")
            continue
        header = want[0]
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            for col, g, w in zip(header, g_row, w_row):
                kind, tol, seeded = COLUMNS.get((fname, col), ("exact", 0.0, False))
                try:
                    if seeded and not exact_seed:
                        if not math.isfinite(float(g)):
                            problems.append(f"{run}/{fname} row {i} {col}: {g} is not finite")
                        continue
                    off = _off(kind, noise if tol == NOISE else tol, g, w)
                except ValueError:
                    off = (math.inf, 0.0)
                if off is not None:
                    problems.append(
                        f"{run}/{fname} row {i} {col}: got {g}, reference {w}, "
                        f"off by {off[0]:.3e} > allowed {off[1]:.3e} ({kind})"
                    )
    return problems


def identical_csvs(produced: dict[str, bytes], expected: dict[str, str]) -> int:
    """Number of produced CSVs byte-equal to the stored reference."""
    return sum(1 for f, text in expected.items() if produced.get(f) == text.encode())
