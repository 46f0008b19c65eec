#!/usr/bin/env python3
"""Compare two sets of perf-ledger runs: parent and change.

A run set is a JSONL file with one line per run:

    {"workload": "fleet-live", "pair": 3, "result": {<the benchmark's JSON>}}

`pair` numbers the alternating parent/change pairs (run pair k of the
parent next to pair k of the change, alternating which side goes first).
`record` appends such a line from a run's output:

    python3 perfledger/run.py --workload fleet-live --seed 7 --seconds 10 \\
        | python3 perfledger/compare.py record fleet-live 7 >> parent.jsonl
    python3 perfledger/compare.py diff parent.jsonl change.jsonl

`diff` prints one row per (workload, metric) and exits 1 when a metric
regressed. For each end-to-end metric of BENCHMARK.json:

  gain        at least MIN_PAIRS pairs, the change wins at least 9/10 of
              them (ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's or the change's spread (IQR over median) is
              wider than the bound, unless every change run beats every
              parent run;
  same        none of the above.

Per-layer metrics have no direction or bound; their rows read "layer".
A run whose result is not correct makes its whole workload "incorrect".
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(path):
    """{workload: {pair: result}} from a JSONL run set."""
    runs = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            try:
                runs.setdefault(rec["workload"], {})[int(rec["pair"])] = rec["result"]
            except (KeyError, TypeError, ValueError) as e:
                raise SystemExit(f"{path}:{n}: not a run record ({e})")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(parent, change, better, bound):
    """Verdict for one end-to-end metric; parent/change map pair -> value."""
    sign = 1.0 if better == "higher" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    q1, q3 = quartiles(p_vals)
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for k in pairs if sign * (change[k] - parent[k]) > 0)
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    dominates = min(sign * v for v in c_vals) > max(sign * v for v in p_vals)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > (q3 - q1)):
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif max(spread(p_vals), spread(c_vals)) > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "same"
    return verdict, p_med, (q1, q3), c_med, quartiles(c_vals), wins, len(pairs)


def diff(parent_path, change_path, benchmark_path=DEFAULT_BENCHMARK, out=sys.stdout):
    with open(benchmark_path) as f:
        bench = json.load(f)
    return compare(load_runs(parent_path), load_runs(change_path), bench, out)


def compare(parent, change, bench, out=sys.stdout):
    """Print the rows; return 1 if any metric regressed (or a run was
    incorrect), else 0. parent/change: {workload: {pair: result}}."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    regressed = False
    out.write("%-14s %-34s %12s %25s %12s %25s %8s %6s %6s  %s\n" % (
        "workload", "metric", "parent", "parent Q1..Q3", "change",
        "change Q1..Q3", "delta", "wins", "bound", "verdict"))
    for wl in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[wl], change[wl]
        if not all(r.get("correct") for r in list(p_runs.values()) + list(c_runs.values())):
            out.write("%-14s %-34s %s\n" % (wl, "*", "incorrect"))
            regressed = True
            continue
        names = set()
        for r in list(p_runs.values()) + list(c_runs.values()):
            names.update(r["metrics"])
        for name in sorted(names, key=lambda n: (n not in e2e, n)):
            p = {k: r["metrics"][name]["value"] for k, r in p_runs.items() if name in r["metrics"]}
            c = {k: r["metrics"][name]["value"] for k, r in c_runs.items() if name in r["metrics"]}
            if not p or not c:
                continue
            if name in e2e:
                verdict, p_med, (q1, q3), c_med, (c1, c3), wins, pairs = judge(
                    p, c, e2e[name]["better"], e2e[name]["bound"])
                bound = "%.2f" % e2e[name]["bound"]
                win_col = "%d/%d" % (wins, pairs)
            else:
                p_med, c_med = statistics.median(p.values()), statistics.median(c.values())
                q1, q3 = quartiles(list(p.values()))
                c1, c3 = quartiles(list(c.values()))
                verdict, bound, win_col = "layer", "-", "-"
            delta = (c_med - p_med) / abs(p_med) * 100 if p_med else 0.0
            regressed |= verdict == "regression"
            out.write("%-14s %-34s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g %+7.1f%% %6s %6s  %s\n" % (
                wl, name, p_med, q1, q3, c_med, c1, c3, delta, win_col, bound, verdict))
    return 1 if regressed else 0


def record(workload, pair, stream=sys.stdin, out=sys.stdout):
    lines = [l for l in stream.read().splitlines() if l.strip()]
    if not lines:
        raise SystemExit("record: no benchmark output on stdin")
    result = json.loads(lines[-1])
    out.write(json.dumps({"workload": workload, "pair": int(pair), "result": result}) + "\n")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "record":
        return record(argv[1], argv[2])
    if len(argv) in (3, 4) and argv[0] == "diff":
        return diff(*argv[1:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
