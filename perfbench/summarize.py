"""Fold the result files of finished runs into one trajectory point.

    python3 perfbench/summarize.py [LABEL]

Reads every .perfbench_work/*/result.json (one per workload, seed and trace
setting, written by run.py) and prints a JSON trajectory point: per workload,
the median and quartiles of each metric over the seeds run, the seeds, the
run context and the median time of each ROADMAP baseline row. Append the
output to perfbench/trajectory.json to record a commit's numbers.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(label):
    runs = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench_work", "*",
                                              "result.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        ctx = rec["context"]
        runs.setdefault((ctx["workload"], ctx["trace"]), []).append(rec)
    point = {"label": label, "workloads": {}}
    for (workload, trace), recs in sorted(runs.items()):
        ctx = recs[0]["context"]
        point.setdefault("context", {k: ctx[k] for k in (
            "git_revision", "source_sha256", "python", "nproc")})
        entry = point["workloads"].setdefault(workload, {
            "instances": ctx["instances"], "cert_tail": ctx.get("cert_tail")})
        entry["traced_seeds" if trace else "untraced_seeds"] = sorted(
            r["context"]["seed"] for r in recs)
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
            entry.setdefault("metrics", {})[name] = {
                "median": statistics.median(values), "q1": q[0], "q3": q[2],
                "unit": recs[0]["metrics"][name]["unit"], "runs": len(values)}
        if not trace:
            rows = {}
            for r in recs:
                for row, info in r["roadmap_rows"].items():
                    rows.setdefault(row, (info["id"], []))[1].append(info["ms"])
            entry["roadmap_rows_ms"] = {
                row: {"id": iid, "median_ms": statistics.median(ms)}
                for row, (iid, ms) in sorted(rows.items())}
    return point


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1] if len(sys.argv) > 1 else ""),
                     indent=1, sort_keys=True))
