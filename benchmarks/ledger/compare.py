"""Compare two ledger files (``run.py --compare A.json B.json``).

A is the parent, B the change; for an A/A check both come from one
commit.  Timings are judged against the bounds in ``schema``; digests,
simulated results and work counters must be identical, because the
simulator is deterministic for a commit and seed — a difference there
is a model change, not a performance change.
"""

from __future__ import annotations

import json
import statistics

import schema


def incomparable(a: dict, b: dict) -> str:
    """Why two ledgers cannot be compared or merged ('' when they can)."""
    def minor(ledger: dict) -> str:
        return ".".join(ledger["env"]["python"].split(".")[:2])

    for what, left, right in (
            ("schema", a.get("schema"), b.get("schema")),
            ("--seed", a["seed"], b["seed"]),
            ("--seconds", a["seconds"], b["seconds"]),
            ("env.core_kind", a["env"]["core_kind"], b["env"]["core_kind"]),
            ("Python minor version", minor(a), minor(b))):
        if left != right:
            return f"{what} differs ({left!r} vs {right!r})"
    return ""


def _spread_pct(timed: dict, name: str) -> float:
    """Within-run IQR of a timing as a share of its median (0 for a
    metric sampled once per run)."""
    info = timed["info"]
    if name == "host_us_per_op":
        return info["host_us_per_op_iqr_pct"]
    if name == "setup_s":
        q1, median, q3 = statistics.quantiles(
            [p["setup_s"] for p in info["setup_probes"]], n=4)
        return 100.0 * (q3 - q1) / median
    return 0.0


def _exact_diffs(name: str, a: dict, b: dict) -> list[str]:
    """Exact values of one workload that differ between the ledgers."""
    diffs = []
    for section in ("timed", "traced"):
        left, right = a.get(section), b.get(section)
        if left is None or right is None:
            continue
        pairs = [("digest", left["info"]["digest"], right["info"]["digest"])]
        pairs += [(k, v, right["info"]["counters"].get(k))
                  for k, v in left["info"]["counters"].items()]
        diffs += [f"{name} {section} {key}: {lv!r} vs {rv!r}"
                  for key, lv, rv in pairs if lv != rv]
    return diffs


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    reason = incomparable(a, b)
    if reason:
        print(f"refusing to compare: {reason}")
        return 2

    print(f"{'workload':<16} {'metric':<15} {'A':>12} {'B':>12} {'unit':<7} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    counts = {"same": 0, "worse": 0, "unresolved": 0, "differs": 0}
    exact_diffs: list[str] = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        exact_diffs += _exact_diffs(name, wa, wb)
        if "timed" not in wa or "timed" not in wb:
            continue
        for metric, unit, better, bound in schema.END_TO_END:
            va = wa["timed"]["end_to_end"][metric]
            vb = wb["timed"]["end_to_end"][metric]
            worse_by = (vb - va) / va if better == "lower" else (va - vb) / va
            if metric in schema.EXACT_END_TO_END:
                verdict = "same" if va == vb else "differs"
                shown_bound = "exact"
            else:
                spread = max(_spread_pct(wa["timed"], metric),
                             _spread_pct(wb["timed"], metric))
                if spread > 100.0 * bound:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worse_by > bound else "same"
                shown_bound = f"{100.0 * bound:.0f}%"
            counts[verdict] += 1
            print(f"{name:<16} {metric:<15} {va:>12.4f} {vb:>12.4f} {unit:<7} "
                  f"{100.0 * worse_by:>+8.2f}% {shown_bound:>6}  {verdict}")
    for diff in exact_diffs:
        print(f"exact value differs: {diff}")
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items())
          + f"; {len(exact_diffs)} exact value(s) differ")
    return 1 if counts["worse"] or counts["differs"] or exact_diffs else 0
