"""Summarize result records into one JSON document per machine and code state.

    python3 perfbench/summarize.py [perfbench/out] > summary.json

For every workload and end-to-end metric: the run count, seeds, median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median. For every per-layer metric: the median over the
traced runs. Machine facts come from the first record.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path) -> dict:
    with open(path) as f:
        return json.load(f)


def summarize(out_dir) -> dict:
    records = [_load(p) for p in sorted(glob.glob(os.path.join(out_dir, "result-*.json")))]
    if not records:
        raise SystemExit(f"no result records under {out_dir}")
    doc = {"machine": records[0]["machine"], "workloads": {}}
    for rec in records:
        w = doc["workloads"].setdefault(
            rec["workload"], {"input": rec["input"], "end_to_end": {}, "per_layer": {}, "report": {}}
        )
        kind = "per_layer" if rec["trace"] else "end_to_end"
        for name, m in rec["metrics"].items():
            w[kind].setdefault(name, {"unit": m["unit"], "values": [], "seeds": []})
            w[kind][name]["values"].append(m["value"])
            w[kind][name]["seeds"].append(rec["seed"])
        if not rec["trace"]:
            for name, value in rec["report"].items():
                w["report"].setdefault(name, []).append(value)
    for w in doc["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for m in w[kind].values():
                values = m.pop("values")
                m["n"] = len(values)
                m["median"] = statistics.median(values)
                if kind == "end_to_end" and len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    m.update(q1=q1, q3=q3, spread=(q3 - q1) / m["median"])
        w["report"] = {k: statistics.median(v) for k, v in w["report"].items()}
    return doc


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "out")
    json.dump(summarize(out), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
