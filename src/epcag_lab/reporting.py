"""Report files: versioned JSON plus 17-significant-digit CSV.

File names follow ``<command>-<problem>-<stamp>.{csv,json}``.  Content is
deterministic for a fixed config and seed (timestamps appear only in the
file name), so byte-identical reruns are byte-identical files.
"""

import json
import time
from importlib import resources
from pathlib import Path

SCHEMA_VERSION = "epcag-lab/1"


def fmt(x):
    """Render a float with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def default_stamp():
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else fmt(c) for c in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def emit_report(outdir, command, problem, results, params=None, seed=None,
                csv_header=None, csv_rows=None, stamp=None, extra_csv=None):
    """Write the JSON report (and optional CSV tables) for one command.

    ``extra_csv`` maps a name suffix to (header, rows) for auxiliary
    tables such as per-point trajectories.  Returns the written paths.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stamp = stamp or default_stamp()
    base = f"{command}-{problem}-{stamp}"
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "problem": problem,
        "seed": seed,
        "params": _jsonable(params or {}),
        "results": _jsonable(results),
    }
    paths = {}
    json_path = outdir / f"{base}.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths["json"] = json_path
    if csv_rows is not None:
        paths["csv"] = Path(write_csv(outdir / f"{base}.csv", csv_header, csv_rows))
    for suffix, (header, rows) in (extra_csv or {}).items():
        paths[suffix] = Path(write_csv(outdir / f"{base}-{suffix}.csv", header, rows))
    return payload, paths


def load_schema():
    with resources.files("epcag_lab").joinpath("report.schema.json").open() as fh:
        return json.load(fh)
