"""The CSV schema table, and the reports and charts drawn from campaign CSVs.

``SCHEMAS`` holds one ``Schema`` record per CSV layout: its header, its
``report`` summary and its chart, if any. ``runner`` writes each CSV under
its schema and draws the chart from the rows it wrote; ``report`` knows a
file by its header (naming a deviating column) and draws the same chart from
the rows it reads. A new CSV layout means one new record.

``cells`` and ``cell_stats`` are the one rule from campaign rows to per-cell
statistics, for the CSV rows report reads and the rows a campaign returns.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import svgplot


@dataclass(frozen=True)
class Schema:
    header: list
    summary: Callable  # rows -> report lines
    chart: Callable | None = None  # (CSV stem, rows) -> {SVG stem: SVG text}


class ReportError(RuntimeError):
    pass


def _read_csv(path: Path):
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise ReportError(f"{path.name}: {err}") from None
    if not rows:
        raise ReportError(f"{path.name}: empty CSV")
    return rows[0], rows[1:]


def _classify(path: Path, header):
    for name, schema in SCHEMAS.items():
        if header == schema.header:
            return name
    same_width = [s.header for s in SCHEMAS.values() if len(s.header) == len(header)]
    if same_width:  # name the first mismatch of the closest layout
        closest = max(same_width, key=lambda want: sum(map(str.__eq__, header, want)))
        got, want = next((g, w) for g, w in zip(header, closest) if g != w)
        raise ReportError(f"{path.name}: unexpected column '{got}' (expected '{want}')")
    raise ReportError(f"{path.name}: unrecognized schema {header}")


def cell_stats(values):
    """(mean, deviation) of one cell's values: the sequential ``sum(values) / n``
    and the population deviation (over n). report's text depends on both."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def cells(rows, key_idx, value_idx):
    """{key: cell_stats of its values}, sorted by key, where a row's key is the
    tuple of its ``key_idx`` entries and its value is ``float(row[value_idx])``.
    A value that is "" (a NaN the runner wrote) is skipped, a zero is not, and
    a non-finite one is a ValueError."""
    groups = defaultdict(list)
    for row in rows:
        if row[value_idx] != "":
            value = float(row[value_idx])
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {row[value_idx]!r}")
            groups[tuple(row[k] for k in key_idx)].append(value)
    return {k: cell_stats(v) for k, v in sorted(groups.items())}


def report(directory, write_svg: bool = True) -> str:
    """Summarize every known CSV in a run directory; returns the text table."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise ReportError(f"no CSV files in {directory}")
    lines = []
    for path in paths:
        header, rows = _read_csv(path)
        name = _classify(path, header)
        lines.append(f"== {path.name} ({name}, {len(rows)} rows)")
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ReportError(f"{path.name}: line {line}: {len(row)} cells, "
                                  f"expected {len(header)}")
        if not rows:  # e.g. the history of a run that trained no epoch
            continue
        try:
            lines.extend(SCHEMAS[name].summary(rows))
            if write_svg and SCHEMAS[name].chart:
                for stem, svg in SCHEMAS[name].chart(path.stem, rows).items():
                    (directory / f"report_{stem}.svg").write_text(svg)
        except ValueError as err:  # a cell that does not parse, or cannot be drawn
            raise ReportError(f"{path.name}: {err}") from None
    return "\n".join(lines)


def _drops(key_idx, value_idx, where):
    """Summary: the mean and spread of a drop column per key, named by ``where``."""
    return lambda rows: [f"   {where(*key)}: drop {mean:+.3f} ± {std:.3f} pp"
                         for key, (mean, std) in cells(rows, key_idx, value_idx).items()]


def _drop_chart(rows, label, x_idx, drop_idx, title, xlabel):
    """Mean drop (pp) against column ``x_idx``, one line per value of column 1,
    named by ``label`` and the value."""
    series = defaultdict(list)
    for (key, x), (mean, _) in cells(rows, (1, x_idx), drop_idx).items():
        series[label + key].append((float(x), mean))
    return svgplot.line_chart({k: sorted(v) for k, v in series.items()}, title,
                              xlabel, "mean drop (pp)")


def _bit_flip_chart(stem, rows):
    if any(r[2] for r in rows):
        x_idx, title, xlabel = 2, "weight-matrix column", "column"
    else:
        x_idx, title, xlabel = 3, "fault count", "faults per layer"
    return {stem: _drop_chart(rows, "bit ", x_idx, 6, f"Accuracy drop vs {title}",
                              xlabel)}


def _sweep_chart(stem, rows):
    return {stem: _drop_chart(rows, "K=", 2, 5,
                              f"Accuracy drop vs fault rate ({rows[0][0]})",
                              "fault rate (%)")}


def _fault_train_summary(rows):
    before, after = (cells(rows, (), col).get((), (math.nan,))[0]
                     for col in (4, 5))
    return [f"   normalized loss {before:.4f} -> {after:.4f} over {len(rows)} seeds"]


def _endurance_cells(rows):
    """(n, {(row, col): (temperature, endurance)}) of a square map."""
    by_cell = {(int(r[0]), int(r[1])): (float(r[3]), float(r[4])) for r in rows}
    n = max(max(i, j) for i, j in by_cell) + 1
    if set(by_cell) != {(i, j) for i in range(n) for j in range(n)}:
        raise ValueError(f"the cells do not fill a {n}x{n} map")
    return n, by_cell


def _endurance_summary(rows):
    n, by_cell = _endurance_cells(rows)
    return [f"   {n}x{n} map, endurance {by_cell[(0, 0)][1]:.3g} (driver corner) "
            f"to {by_cell[(n - 1, n - 1)][1]:.3g} (far corner)"]


def _endurance_chart(stem, rows):
    n, by_cell = _endurance_cells(rows)

    def grid(k):
        return [[by_cell[(i, j)][k] for j in range(n)] for i in range(n)]

    return {
        stem: svgplot.heatmap(grid(1), f"Endurance map ({n}x{n}, log10 cycles)"),
        "temperature": svgplot.heatmap(
            grid(0), f"Self-heating temperature ({n}x{n}, K)", log_scale=False),
    }


def _mapping_summary(rows):
    lifetimes = [float(r[6]) for r in rows if r[6]]
    if not lifetimes:
        return [f"   {len(rows)} synapses mapped, all idle"]
    return [f"   {len(rows)} synapses mapped, "
            f"min lifetime {min(lifetimes):.4g} windows"]


SCHEMAS = {
    "dram": Schema(["campaign", "bit_pos", "column", "fault_count", "run_seed",
                    "accuracy", "drop_pp"],
                   _drops((0, 1, 2, 3), 6, lambda campaign, bit, col, count:
                          f"{campaign} bit {bit} "
                          + (f"column {col}" if col else f"count {count}")),
                   _bit_flip_chart),
    "sweep": Schema(["format", "k", "fr", "seed", "accuracy", "drop_pp"],
                    _drops((0, 1, 2), 5, lambda fmt, k, fr: f"{fmt} K={k} FR={fr}%"),
                    _sweep_chart),
    "fault_train": Schema(["run_seed", "baseline_accuracy", "faulty_accuracy",
                           "retrained_accuracy", "loss_before", "loss_after",
                           "relative_reduction"], _fault_train_summary),
    "deactivate": Schema(["run_seed", "stage", "accuracy", "drop_pp", "active_pes",
                          "active_faulty"], _drops((1,), 3, lambda stage: stage)),
    "endurance": Schema(["row", "col", "path_segments", "temperature_k",
                         "endurance_cycles"], _endurance_summary, _endurance_chart),
    "history": Schema(["epoch", "accuracy"], lambda rows: [
        f"   {len(rows)} epochs, final accuracy {float(rows[-1][1]):.4f}"]),
    "metrics": Schema(["metric", "value"],
                      lambda rows: [f"   {r[0]} = {r[1]}" for r in rows]),
    "mapping": Schema(["cluster", "tile", "synapse", "cell_row", "cell_col",
                       "endurance", "lifetime"], _mapping_summary),
}
