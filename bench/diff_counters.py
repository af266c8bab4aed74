"""Compare the per-layer results of two traced benchmark runs.

    python3 bench/diff_counters.py A.json B.json

Each file is a report written by ``bench/run.py --out FILE`` (all
workloads, or one ``--workload`` with ``--trace 1``). For every workload
in both files, lists each per-layer count that differs (counts are
deterministic, so any difference is a real change in work done) and the
self-time delta of each layer (times are loose: read them next to the
benchmark's measured spread). Exits 1 when any count differs.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def traced_sections(report: dict) -> Dict[str, dict]:
    """workload -> traced result, from either report shape."""
    if "workloads" in report:
        return {name: parts["layers"]
                for name, parts in report["workloads"].items()
                if "layers" in parts}
    if report.get("trace"):
        return {report["workload"]: report}
    return {}


def layer_times(times: Dict[str, float]) -> Dict[str, float]:
    """Self time summed per layer (the name before the first dot)."""
    out: Dict[str, float] = {}
    for name, value in times.items():
        if name == "engine.replay_s":
            continue
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    out["replay (total)"] = times.get("engine.replay_s", 0.0)
    return out


def diff(a: dict, b: dict) -> List[str]:
    """Human-readable lines; count differences are prefixed with '!'."""
    lines: List[str] = []
    sa, sb = traced_sections(a), traced_sections(b)
    for name in sorted(set(sa) & set(sb)):
        ca, cb = sa[name]["counts"], sb[name]["counts"]
        lines.append(f"== {name}")
        changed = [k for k in sorted(set(ca) | set(cb))
                   if ca.get(k) != cb.get(k)]
        if not changed:
            lines.append("  counts: all identical")
        for key in changed:
            va, vb = ca.get(key), cb.get(key)
            delta = (f"{vb - va:+d}" if isinstance(va, int)
                     and isinstance(vb, int) else "")
            lines.append(f"! {key:44s} {va!s:>12} -> {vb!s:>12} {delta}")
        ta = layer_times(sa[name]["times_s"])
        tb = layer_times(sb[name]["times_s"])
        lines.append("  self time by layer (s):")
        for layer in sorted(set(ta) | set(tb)):
            va, vb = ta.get(layer, 0.0), tb.get(layer, 0.0)
            if va:
                pct = f"{(vb - va) / va * 100:+.1f}%"
            else:
                pct = "new" if vb else ""
            lines.append(f"  {layer:16s} {va:10.4f} -> {vb:10.4f}  "
                         f"{vb - va:+.4f}  {pct}")
    for name in sorted(set(sa) ^ set(sb)):
        lines.append(f"== {name}: only in {'A' if name in sa else 'B'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines = diff(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
