"""Trace persistence: CSV for requests, JSON for function specs.

The on-disk layout mirrors how public FaaS traces ship (per-invocation CSV
plus per-function metadata), so users with access to the real Azure
Functions dataset can convert it into this format and replay it through
the same harness:

* ``<name>.functions.json`` — list of function spec dicts;
* ``<name>.requests.csv``   — ``func,arrival_ms,exec_ms`` rows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.sim.function import FunctionSpec
from repro.sim.request import Request
from repro.traces.schema import Trace

PathLike = Union[str, Path]


def save_trace(trace: Trace, directory: PathLike) -> None:
    """Write ``trace`` into ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    functions = [
        {
            "name": f.name,
            "memory_mb": f.memory_mb,
            "cold_start_ms": f.cold_start_ms,
            "runtime": f.runtime,
            "app": f.app,
        }
        for f in trace.functions
    ]
    meta = {"name": trace.name, "functions": functions}
    with open(directory / f"{trace.name}.functions.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    with open(directory / f"{trace.name}.requests.csv", "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["func", "arrival_ms", "exec_ms"])
        for req in trace.requests:
            writer.writerow([req.func, repr(req.arrival_ms),
                             repr(req.exec_ms)])


def load_trace(directory: PathLike, name: str) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    directory = Path(directory)
    with open(directory / f"{name}.functions.json") as fh:
        meta = json.load(fh)
    functions = [
        FunctionSpec(
            name=f["name"],
            memory_mb=float(f["memory_mb"]),
            cold_start_ms=float(f["cold_start_ms"]),
            runtime=f.get("runtime", "python3.8"),
            app=f.get("app", ""),
        )
        for f in meta["functions"]
    ]
    known = {f.name for f in functions}
    requests = []
    path = directory / f"{name}.requests.csv"
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                func = row["func"]
                if func not in known:
                    raise ValueError(
                        f"request targets unknown function {func!r}")
                requests.append(Request(func, float(row["arrival_ms"]),
                                        float(row["exec_ms"])))
            except KeyError as exc:
                raise KeyError(f"{path}, line {reader.line_num}: no "
                               f"{exc.args[0]!r} column") from exc
            except (TypeError, ValueError) as exc:
                # A short row reads its missing fields as None.
                raise ValueError(
                    f"{path}, line {reader.line_num}: {exc}") from exc
    return Trace(meta["name"], functions, requests)
