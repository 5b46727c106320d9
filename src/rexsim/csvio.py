"""CSV emission and ingestion for traces.

Every file starts with '#'-prefixed metadata (tool version, subcommand and
one `# param name = value` line per metadata entry, the seed of a Monte
Carlo trace among them) followed by a single header row. Numbers are written
with repr(), the shortest round-trip decimal form, and nothing else enters a
file, so reruns with identical parameters and seed are byte-identical.
"""

import io

import numpy as np

from . import __version__
from .errors import ValidationError
from .trace import TimeTrace


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_trace_csv(trace: TimeTrace, subcommand: str) -> str:
    """Render a trace (and its extra columns) to CSV text."""
    out = io.StringIO()
    out.write(f"# rexsim {__version__}\n")
    out.write(f"# subcommand: {subcommand}\n")
    for name in sorted(trace.metadata):
        out.write(f"# param {name} = {_format(trace.metadata[name])}\n")
    columns = [f"{trace.x_name}_{trace.x_unit}", f"{trace.y_name}_{trace.y_unit}"]
    columns += list(trace.extra)
    out.write(",".join(columns) + "\n")
    extras = [trace.extra[name] for name in trace.extra]
    for i in range(len(trace)):
        row = [repr(float(trace.x[i])), repr(float(trace.y[i]))]
        row += [repr(float(col[i])) for col in extras]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def write_trace_csv(path: str, trace: TimeTrace, subcommand: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_trace_csv(trace, subcommand))


def read_trace_csv(path: str) -> TimeTrace:
    """Read back a trace written by write_trace_csv, including metadata params."""
    metadata = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8-sig", errors="replace") as handle:  # a BOM is dropped
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("param "):
                    name, _, value = body[len("param "):].partition("=")
                    metadata[name.strip()] = _parse_meta_value(value.strip())
                continue
            cells = line.split(",")
            if header is None:
                if len(cells) < 2:
                    raise ValidationError(f"{path}: line {lineno}: header needs an x and a y column")
                header = cells
                continue
            if len(cells) != len(header):
                raise ValidationError(
                    f"{path}: line {lineno}: {len(cells)} cells, the header has {len(header)}"
                )
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric cell in '{line}'") from None
    if header is None or not rows:
        raise ValidationError(f"no data rows found in {path}")
    data = np.asarray(rows, dtype=float)
    x_name, _, x_unit = header[0].rpartition("_")
    y_name, _, y_unit = header[1].rpartition("_")
    extra = {name: data[:, 2 + i] for i, name in enumerate(header[2:])}
    return TimeTrace(
        x=data[:, 0],
        y=data[:, 1],
        x_name=x_name or header[0],
        x_unit=x_unit,
        y_name=y_name or header[1],
        y_unit=y_unit,
        metadata=metadata,
        extra=extra,
    )


def _parse_meta_value(text: str):
    if text == "None":
        return None
    try:
        number = float(text)
    except ValueError:
        return text
    if number.is_integer() and "." not in text and "e" not in text.lower():
        return int(number)
    return number

