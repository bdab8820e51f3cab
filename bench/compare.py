"""``python -m bench compare A.json B.json``: one verdict per (workload,
end-to-end metric), A being the base.

``same`` / ``regressed`` / ``improved`` by the metric's bound; ``unresolved``
when either side's trial spread (inter-quartile, as a share of the median)
exceeds the bound, its workload was flagged noisy, or the two sides'
reference-loop stamps differ by more than 15 % — a difference smaller than
the noise is not evidence either way.  Counts and simulated-time
metrics repeat exactly per seed, so any change in them is reported, and on
one commit it is an error.
"""

import json
from pathlib import Path

from bench import spec


def bounds():
    """Bound per end-to-end metric: ``BENCHMARK.json`` where it lists the
    metric, the spec table for the four it has no place for."""
    table = {m.name: m.bound for m in spec.END_TO_END}
    manifest = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    table.update({m["name"]: m["bound"] for m in manifest["end_to_end"]})
    return table


def verdict(metric, a, b, bound, noisy=False):
    """``(verdict, worsening)`` for one metric; ``a`` and ``b`` are result
    entries (``value`` plus optional ``q1``/``q3``).  ``worsening`` is
    positive when B is worse: a share of A's value for ``rel`` metrics, an
    absolute step for ``abs`` ones."""
    base, new = a["value"], b["value"]
    step = new - base if metric.better == "lower" else base - new
    worsening = step if metric.kind == "abs" else (step / base if base else float(step != 0))
    if metric.timing:
        if noisy:
            return "unresolved", worsening
        for side in (a, b):
            if "q1" in side and side["value"]:
                if (side["q3"] - side["q1"]) / side["value"] > bound:
                    return "unresolved", worsening
    if worsening > bound:
        return "regressed", worsening
    if worsening < -bound:
        return "improved", worsening
    return "same", worsening


def ref_drift(wa, wb):
    """Relative gap between the two sides' machine-speed stamps: runs taken
    at different machine speeds resolve nothing about the program."""
    ra, rb = min(wa["ref_loop_ns"]), min(wb["ref_loop_ns"])
    return abs(ra - rb) / min(ra, rb)


def compare(a, b, bound_table):
    """All rows: ``(workload, metric name, verdict, worsening, a entry, b entry)``."""
    rows = []
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        noisy = wa["noisy"] or wb["noisy"] or ref_drift(wa, wb) > spec.NOISY_REF_DRIFT
        for metric in spec.END_TO_END:
            ea, eb = wa["end_to_end"].get(metric.name), wb["end_to_end"].get(metric.name)
            if ea is None or eb is None:
                continue
            result, worsening = verdict(metric, ea, eb, bound_table[metric.name], noisy)
            rows.append((name, metric, result, worsening, ea, eb))
    return rows


def changed_counts(a, b):
    """Deterministic metrics (end-to-end and per-layer) whose values differ."""
    out = []
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in spec.END_TO_END:
            if metric.timing or metric.name == "peak_rss_mb":
                continue
            ea, eb = wa["end_to_end"].get(metric.name), wb["end_to_end"].get(metric.name)
            if ea is not None and eb is not None and ea["value"] != eb["value"]:
                out.append((name, metric.name, ea["value"], eb["value"]))
        for key in spec.DETERMINISTIC_LAYER:
            va, vb = wa["per_layer"].get(key), wb["per_layer"].get(key)
            if va is not None and vb is not None and va != vb:
                out.append((name, key, va, vb))
    return out


def main(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for label, run in (("A", a), ("B", b)):
        if run["stamp"]["quick"]:
            print(f"{label} is a --quick result: one short trial is not comparable")
            return 2
    for key in ("seed", "seconds"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"A and B differ in {key}: {a['stamp'][key]} vs {b['stamp'][key]}")
            return 2
    bound_table = bounds()
    rows = compare(a, b, bound_table)
    tally = {}
    current = None
    for name, metric, result, worsening, ea, eb in rows:
        if name != current:
            current = name
            print(name)
        tally[result] = tally.get(result, 0) + 1
        bound = bound_table[metric.name]
        if metric.kind == "abs":
            change = f"{worsening:+.6g} {metric.unit} worse, base {ea['value']:.6g}"
            limit = f"bound {bound:g} abs"
        else:
            change = f"{worsening:+.2%} worse of {ea['value']:.6g}"
            limit = f"bound {bound:.0%}"
        print(f"  {metric.name:<22}{result:<11}{ea['value']:>12.6g} -> {eb['value']:<12.6g}"
              f"{metric.unit:<6} ({change}, {limit})")
    same_commit = a["stamp"]["commit"] == b["stamp"]["commit"] != "unknown"
    changed = changed_counts(a, b)
    for name, key, va, vb in changed:
        print(f"count changed: {name} {key}: {va!r} -> {vb!r}")
    print("deterministic metrics identical: " + ("no" if changed else "yes"))
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    if tally.get("regressed") or (same_commit and changed):
        return 1
    return 0
