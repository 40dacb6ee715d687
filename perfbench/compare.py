#!/usr/bin/env python3
"""Compare two sets of perfbench result records, or check one set's spread.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the JSON lines `perfbench --out FILE` appends, one per run;
a side may hold several runs of a workload (for example one per seed).
For every workload and metric a side's figure is the median of its runs'
values, and its spread is the distance between the first and third
quartile of those values (`statistics.quantiles(values, n=4)`) as a share
of that median. A side with a single run falls back to the quartiles of
that run's own samples.

With one file, prints each metric's median, quartiles and spread against
the bound `BENCHMARK.json` fixes for it: "steady" within a third of the
bound, "wide" within the bound, "UNSTEADY" beyond it.

With two files, prints the delta of NEW against BASE. An end-to-end metric
whose spread on either side exceeds its bound is "unresolved" unless every
run of one side beats every run of the other. Otherwise a change worse
than the bound is a "REGRESSION", one better than BASE's spread is
"improved", and anything else is "same". Per-layer rows print alongside
without a verdict, so a regression can be traced to a layer. The exit code
is 1 when any end-to-end metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], e2e, layer


def load_runs(path):
    """{(workload, metric): [record metric entries, one per run]}."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m)
    return runs


def summarize(entries):
    """(median, q1, q3, values) over runs, or a single run's own quartiles."""
    values = [e["value"] for e in entries]
    if len(values) == 1:
        return values[0], entries[0]["q1"], entries[0]["q3"], values
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, values


def spread(med, q1, q3):
    return (q3 - q1) / med if med else 0.0


def fmt(v):
    return f"{v:.6g}"


def report_one(runs, workloads, e2e, layer):
    print(f"{'workload':<12} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'runs':>4} {'spread':>7} {'bound':>6}  status")
    unsteady = False
    for w in workloads:
        for name, spec in list(e2e.items()) + list(layer.items()):
            if (w, name) not in runs:
                continue
            med, q1, q3, values = summarize(runs[(w, name)])
            s = spread(med, q1, q3)
            bound = spec.get("bound")
            if bound is None:
                status = ""
            elif s <= bound / 3:
                status = "steady"
            elif s <= bound or name == "setup_s":
                status = "wide"
            else:
                status = "UNSTEADY"
                unsteady = True
            print(f"{w:<12} {name:<32} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{len(values):>4} {s:>7.3f} {'' if bound is None else bound:>6}  {status}")
    return 1 if unsteady else 0


def verdict(spec, a, b):
    """Verdict of NEW summary `b` against BASE summary `a` for metric `spec`."""
    (am, aq1, aq3, av), (bm, bq1, bq3, bv) = a, b
    lower = spec["better"] == "lower"
    delta = (bm - am) / am if am else 0.0
    worse = delta > 0 if lower else delta < 0
    bound = spec["bound"]
    if spread(am, aq1, aq3) > bound or spread(bm, bq1, bq3) > bound:
        # Too noisy to judge, unless the two sides do not overlap at all.
        if max(bv) < min(av):
            return delta, "improved" if lower else "REGRESSION"
        if min(bv) > max(av):
            return delta, "REGRESSION" if lower else "improved"
        return delta, "unresolved"
    if worse and abs(delta) > bound:
        return delta, "REGRESSION"
    if not worse and abs(delta) > spread(am, aq1, aq3):
        return delta, "improved"
    return delta, "same"


def report_two(base, new, workloads, e2e, layer):
    print(f"{'workload':<12} {'metric':<32} {'base':>12} {'base q1-q3':>25} "
          f"{'new':>12} {'new q1-q3':>25} {'delta':>8}  verdict")
    regressed = False
    for w in workloads:
        for name, spec in list(e2e.items()) + list(layer.items()):
            if (w, name) not in base or (w, name) not in new:
                continue
            a = summarize(base[(w, name)])
            b = summarize(new[(w, name)])
            if name in e2e:
                delta, v = verdict(spec, a, b)
                regressed |= v == "REGRESSION"
            else:
                delta = (b[0] - a[0]) / a[0] if a[0] else 0.0
                v = "(layer)"
            print(f"{w:<12} {name:<32} {fmt(a[0]):>12} {fmt(a[1]) + '-' + fmt(a[2]):>25} "
                  f"{fmt(b[0]):>12} {fmt(b[1]) + '-' + fmt(b[2]):>25} {delta:>+8.1%}  {v}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workloads, e2e, layer = load_spec()
    if len(argv) == 2:
        return report_one(load_runs(argv[1]), workloads, e2e, layer)
    return report_two(load_runs(argv[1]), load_runs(argv[2]), workloads, e2e, layer)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
