"""Arithmetic the astra-mem benchmark reports with, kept apart from the
process and network plumbing in run.py so it can be tested on its own
(test_measure.py)."""

import math
import statistics

MISS = math.inf
"""Latency of a request that failed, was refused or timed out: it misses
every latency limit, so it sorts above every real sample."""


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as the benchmark's
    consumers compute them (``statistics.quantiles`` with ``n=4``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(samples, p):
    """The ``p``-th percentile (0 < p < 100) by nearest rank.

    A percentile is reported only when at least ten samples lie beyond
    it, so a tail figure always rests on ten observations; with fewer the
    call raises ``ValueError``. Misses (``MISS``) count as samples and
    sort last, so failures push a percentile up, never out.
    """
    n = len(samples)
    beyond = math.floor(n * (100 - p) / 100)
    if beyond < 10:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; at least 10 are needed"
        )
    ordered = sorted(samples)
    rank = math.ceil(n * p / 100)
    return ordered[rank - 1]


def due_latencies(requests):
    """Latency of each request measured from when it was due to be sent.

    ``requests`` holds ``(due, done, ok)`` triples in seconds. Timing
    from the due time, not the send time, charges a stall to every
    request that queued behind it (an open-loop client's view). A
    request that did not succeed is a miss.
    """
    return [(done - due) if ok else MISS for due, done, ok in requests]


def freshness(batches, responses):
    """Delay from each batch's due time to the first response that shows it.

    ``batches`` holds ``(due, covered)`` pairs in append order, where
    ``covered`` is the record count the site holds once the batch is in;
    ``responses`` holds ``(done, count)`` pairs in completion order, where
    ``count`` is the record count the response reports. A batch shows in
    the first response whose count reaches its ``covered``; a batch no
    response shows is a miss.
    """
    delays = []
    i = 0
    for due, covered in batches:
        while i < len(responses) and responses[i][1] < covered:
            i += 1
        delays.append(responses[i][0] - due if i < len(responses) else MISS)
    return delays


def poisson_schedule(rng, rate, start, end):
    """Due times of an open-loop Poisson stream at ``rate`` a second from
    ``start`` up to ``end``: exponential gaps drawn from ``rng`` (a
    ``random.Random``), so the same seed gives the same schedule. Random
    gaps keep the requests from locking onto a phase of the server's own
    periodic loops, which a fixed interval can do for a whole run."""
    dues = []
    t = start + rng.expovariate(rate)
    while t < end:
        dues.append(t)
        t += rng.expovariate(rate)
    return dues


def lateness(due_and_actual):
    """How late a schedule ran: p90 and max of ``actual - due`` in seconds
    (early starts count as zero)."""
    late = sorted(max(0.0, actual - due) for due, actual in due_and_actual)
    rank = math.ceil(len(late) * 0.9)
    return late[rank - 1], late[-1]


def histogram_quantile(bounds, buckets, q):
    """Quantile of a bucketed histogram, interpolated linearly inside the
    bucket that holds the rank (the exporter's own rule), with that
    bucket's bounds: ``(value, lo, hi)``. The value is only known to lie
    between them. ``buckets`` has one more entry than ``bounds``: the last
    is the overflow bucket, read as ending at four times the last bound,
    the buckets' growth factor."""
    total = sum(buckets)
    if total == 0:
        raise ValueError("empty histogram")
    rank = min(max(math.ceil(q * total), 1), total)
    seen = 0
    for i, n in enumerate(buckets):
        if n and seen + n >= rank:
            lo = bounds[i - 1] if i > 0 else 0
            hi = bounds[i] if i < len(bounds) else bounds[-1] * 4
            return lo + (rank - seen) / n * (hi - lo), lo, hi
        seen += n
    raise AssertionError("rank beyond the histogram")
