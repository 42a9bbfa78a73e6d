"""Plain-Python definitions of the MetricsDatabase queries, computed from
``to_records()`` alone — the reference the columnar store is checked against.

A value or manifest entry counts when ``float()`` accepts it and the result
is finite.  Means are ``np.mean`` over python lists in the documented order,
so a correct store matches bit for bit.
"""

import math
from collections import Counter

import numpy as np

from repro.ci import MetricRecord, MetricsDatabase

DIMENSIONS = ("benchmark", "system", "experiment", "fom_name")


def number(value):
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def flaky(record):
    return MetricsDatabase.is_flaky(MetricRecord(**record))


def query(records, exclude_flaky=False, **wanted):
    return [r for r in records
            if all(v is None or r[k] == v for k, v in wanted.items())
            and not (exclude_flaky and flaky(r))]


def series(records, benchmark, system, fom_name, x_key, exclude_flaky=False):
    pairs = []
    for r in query(records, exclude_flaky, benchmark=benchmark,
                   system=system, fom_name=fom_name):
        x, y = number(r["manifest"].get(x_key)), number(r["value"])
        if x is not None and y is not None:
            pairs.append((x, y))
    return sorted(pairs)


def epoch_series(records, benchmark, system, fom_name, epoch_key="epoch",
                 exclude_flaky=True):
    by_epoch = {}
    for x, y in series(records, benchmark, system, fom_name, epoch_key,
                       exclude_flaky):
        by_epoch.setdefault(x, []).append(y)
    return [(x, float(np.mean(ys))) for x, ys in sorted(by_epoch.items())]


def aggregate(records, fom_name, group_by="system", exclude_flaky=True):
    groups = {}
    for r in query(records, exclude_flaky, fom_name=fom_name):
        y = number(r["value"])
        if y is None:
            continue
        key = (r[group_by] if group_by in DIMENSIONS
               else str(r["manifest"].get(group_by)))
        groups.setdefault(key, []).append(y)
    return {k: {"mean": float(np.mean(v)), "min": float(np.min(v)),
                "max": float(np.max(v)), "count": len(v)}
            for k, v in sorted(groups.items())}


def benchmark_usage(records):
    counts = Counter(r["benchmark"] for r in records)
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
