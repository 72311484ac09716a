"""Tables of `oemsim.sweep.render_table` as text, read back, and the [sweep] sections that make them."""
import io

from oemsim.errors import OK, STATUS_ERRORS
from oemsim.sweep import NO_ERROR, render_table


def render_text(result, fmt="csv", timestamp=True):
    """The whole `render_table` output as one string."""
    stream = io.StringIO()
    render_table(result, stream, fmt=fmt, timestamp=timestamp)
    return stream.getvalue()


def table_rows(result):
    """The rows of a sweep result as tuples of Python numbers, error slug last."""
    slugs = [NO_ERROR if code == OK else STATUS_ERRORS[code].__name__.removesuffix("Error")
             for code in result.status.tolist()]
    return list(zip(*result.values.tolist(), slugs))


def read_sweep_csv(path):
    """Read back an emitted table: (config_text, columns, rows)."""
    config_lines: list[str] = []
    columns: tuple[str, ...] = ()
    rows = []
    in_config = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# config-begin"):
                in_config = True
                continue
            if line.startswith("# config-end"):
                in_config = False
                continue
            if in_config:
                config_lines.append(line[2:] if line.startswith("# ") else line)
                continue
            if line.startswith("# columns: "):
                columns = tuple(line[len("# columns: ") :].split(","))
                continue
            if line.startswith("#") or not line.strip():
                continue
            parts = line.split(",") if "," in line else line.split()
            if parts == list(columns):
                continue
            values = [parts[i] if columns[i] == "error" else float(parts[i]) for i in range(len(parts))]
            rows.append(tuple(values))
    return "\n".join(config_lines) + "\n", columns, rows


def sweep_section(scenario, *axes, convention=None):
    """A config's [sweep] section; each axis is (name, min, max, points[, spacing]), each bound a
    number in dimensionless units or text with its unit."""
    lines = ["[sweep]", f"scenario = {scenario}"]
    if convention:
        lines.append(f"convention = {convention}")
    for idx, (name, lo, hi, points, *spacing) in enumerate(axes, start=1):
        lo, hi = (x if isinstance(x, str) else f"{x} dimensionless" for x in (lo, hi))
        lines += [f"axis{idx} = {name}", f"axis{idx}_min = {lo}", f"axis{idx}_max = {hi}",
                  f"axis{idx}_points = {points}"] + [f"axis{idx}_spacing = {s}" for s in spacing]
    return "\n".join(lines) + "\n"
