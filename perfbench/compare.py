"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds records written by run.py (perfbench/out/results/*.json,
copied aside between commits). Records are grouped by workload and trace
mode. Records from different kernel backends are never paired: the script
exits with code 2 if the two sets mix backends. For every metric it prints
each side's median and quartiles and the change of the medians; for
end-to-end metrics it flags a change worse than the bound in BENCHMARK.json.
It also reports on how many shared seeds the output digests agree.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory of the parent's records")
    parser.add_argument("head", help="directory of the change's records")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(args.base), load(args.head)
    backends = {
        side: {r["stamp"]["backend"] for records in groups.values() for r in records}
        for side, groups in (("base", base), ("head", head))
    }
    if len(backends["base"] | backends["head"]) > 1:
        print(f"error: records from different kernel backends: {backends}", file=sys.stderr)
        return 2

    for workload, trace in sorted(set(base) & set(head)):
        b, h = base[workload, trace], head[workload, trace]
        print(f"{workload} trace={trace}: base {len(b)} runs, head {len(h)} runs")
        for m in spec["per_layer" if trace else "end_to_end"]:
            name = m["name"]
            q1b, mb, q3b = spread([r["metrics"][name]["value"] for r in b])
            q1h, mh, q3h = spread([r["metrics"][name]["value"] for r in h])
            change = (mh - mb) / mb if mb else float("nan")
            verdict = ""
            if "bound" in m:
                worse = change if m["better"] == "lower" else -change
                verdict = "  WORSE THAN BOUND" if worse > m["bound"] else "  within bound"
            print(
                f"  {name:<42} base {mb:.6g} [{q1b:.6g}, {q3b:.6g}]"
                f"  head {mh:.6g} [{q1h:.6g}, {q3h:.6g}]  {change:+.1%}{verdict}"
            )
        digests_b = {r["seed"]: r["digests"] for r in b}
        shared = [r["seed"] for r in h if r["seed"] in digests_b]
        same = sum(digests_b[r["seed"]] == r["digests"] for r in h if r["seed"] in digests_b)
        print(f"  outputs byte-identical on {same}/{len(shared)} shared seeds")
        print(f"  failed: base {sum(r['failed'] for r in b)}, head {sum(r['failed'] for r in h)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
