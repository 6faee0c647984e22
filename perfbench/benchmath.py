"""The benchmark's statistics: percentiles, error rate, span self time and
the Little's-law residual.  Pure functions; test_benchmath.py checks them.
"""

import math
import statistics

# Percentiles the report may use, lowest first.
PERCENTILES = (0.5, 0.9, 0.99, 0.999)

# A percentile is reported only when at least this many samples lie
# beyond it, so that it is not one outlier.
MIN_BEYOND = 10


def percentile(samples, q):
    """Exact percentile of raw samples: linear interpolation between the
    two order statistics around rank q * (n - 1)."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n, q):
    """True when n samples leave at least MIN_BEYOND beyond percentile q."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def highest_percentile(n):
    """The highest of PERCENTILES that n samples support, or None."""
    best = None
    for q in PERCENTILES:
        if supported(n, q):
            best = q
    return best


def error_rate(attempted, failed):
    """Failed operations and checks over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children may overlap, for example on
    worker threads).  spans: iterable of (id, parent, start, end)."""
    spans = list(spans)
    children = {}
    for sid, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, start, end in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if min(e, end) > max(s, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def littles_residual(n_avg, true_occupancy):
    """|n_avg derived by Little's law - true MSHR occupancy| / true."""
    if true_occupancy <= 0:
        raise ValueError("true occupancy must be positive")
    return abs(n_avg - true_occupancy) / true_occupancy


def median(values):
    return statistics.median(values)

