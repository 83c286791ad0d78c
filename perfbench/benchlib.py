"""Pure helpers of the end-to-end benchmark: order statistics, the wire
parsers (TRACE blocks, END lines, METRICS expositions), the correctness
checks and the metric arithmetic. run.py owns processes and I/O; everything
here is a function of its arguments, so the tests can drive it directly."""

import math
import statistics


# ---- order statistics -------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, n). Below twenty samples that percentile would sit
    at or under the median, so the tail is the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---- wire parsers -----------------------------------------------------------

def parse_fields(line):
    """key=value fields of an END / MUT / TRACE line, numbers as float."""
    out = {}
    for token in line.split()[1:]:
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def parse_trace(lines):
    """A TRACE block (TRACE rows then ENDTRACE) as a list of span dicts.
    Raises ValueError when the block is malformed: rows with different ids,
    or an ENDTRACE whose spans= disagrees with the rows streamed."""
    rows = []
    ids = set()
    ended = False
    for line in lines:
        if line.startswith("TRACE "):
            f = parse_fields(line)
            for key in ("id", "depth", "span", "count", "total_s", "start_s"):
                if key not in f:
                    raise ValueError("TRACE row without %s: %r" % (key, line))
            ids.add(str(f["id"]))
            rows.append({"depth": int(f["depth"]), "span": str(f["span"]),
                         "count": int(f["count"]), "total_s": f["total_s"],
                         "start_s": f["start_s"]})
        elif line.startswith("ENDTRACE "):
            f = parse_fields(line)
            if int(f.get("spans", -1)) != len(rows):
                raise ValueError("ENDTRACE spans=%s but %d rows"
                                 % (f.get("spans"), len(rows)))
            ids.add(str(f.get("id")))
            ended = True
        else:
            raise ValueError("not a TRACE line: %r" % line)
    if not ended:
        raise ValueError("TRACE block without ENDTRACE")
    if len(ids) > 1:
        raise ValueError("TRACE block mixes ids %s" % sorted(ids))
    return rows


def span(rows, name, depth=None):
    """The first row named `name` (at `depth`, when given), or None."""
    for row in rows:
        if row["span"] == name and (depth is None or row["depth"] == depth):
            return row
    return None


def parse_metrics(lines):
    """A Prometheus text exposition as {series: value}; comments skipped."""
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            continue
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def metrics_delta(before, after):
    """after - before for every series in `after` (absent before = 0)."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def histogram_quantile(delta, name, q):
    """Quantile q of histogram `name` from (delta) cumulative buckets, by
    linear interpolation inside the target bucket. 0 when empty."""
    buckets = []
    prefix = name + "_bucket{le=\""
    for series, count in delta.items():
        if series.startswith(prefix):
            le = series[len(prefix):-2]
            bound = math.inf if le == "+Inf" else float(le)
            buckets.append((bound, count))
    buckets.sort()
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    total = buckets[-1][1]
    rank = q * total
    lower, below = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(bound):
                return lower
            inside = cumulative - below
            frac = (rank - below) / inside if inside > 0 else 1.0
            return lower + (bound - lower) * frac
        lower, below = bound, cumulative
    return lower


# ---- correctness ------------------------------------------------------------

def check_query(record, reference):
    """None when a query record is correct, else the reason. `reference`
    maps env -> limit (str) -> {pairs, digest}; a None reference checks only
    the framing (concurrent snapshot reads, whose epoch is unobservable)."""
    if record["status"] != "ok":
        return "%s: %s" % (record["status"], record.get("detail", ""))
    end = parse_fields(record["end_line"])
    if int(end.get("pairs", -1)) != record["pairs"]:
        return "END pairs=%s but %d PAIR lines" % (end.get("pairs"),
                                                    record["pairs"])
    if reference is None:
        limit = record["limit"]
        if limit and record["pairs"] != limit:
            return "limit %d but %d pairs" % (limit, record["pairs"])
        return None
    want = reference[record["env"]][str(record["limit"])]
    if want["pairs"] != record["pairs"]:
        return "%d pairs, reference %d" % (record["pairs"], want["pairs"])
    if want["digest"] != record["digest"]:
        return "digest %s, reference %s" % (record["digest"], want["digest"])
    return None


def check_mutations(records):
    """Failures among mutation records, and the acknowledged count. An op
    counts as acknowledged only with status ok (its MUT carried the right
    epoch); the stream stops at the first failure."""
    failures = [r for r in records if r["status"] != "ok"]
    acked = sum(1 for r in records if r["status"] == "ok")
    return failures, acked


# ---- per-query trace arithmetic ----------------------------------------------

def trace_breakdown(rows, latency_s, engine_threads):
    """The layer times one traced query's span rows imply (seconds)."""
    server = span(rows, "server", 0)
    exec_ = span(rows, "exec", 1)
    out = {}
    if server is None:
        return out
    flush = span(rows, "sink_flush", 1)
    out["server"] = server["total_s"]
    out["wire"] = latency_s - server["total_s"]
    if exec_ is not None:
        out["exec"] = exec_["total_s"]
        out["completion_gap"] = (server["total_s"] - exec_["start_s"]
                                 - exec_["total_s"]
                                 - (flush["total_s"] if flush else 0.0))
        chunks = span(rows, "leaf_chunk", 2)
        out["leaf_chunks"] = chunks["count"] if chunks else 0
        out["leaf_busy"] = chunks["total_s"] if chunks else 0.0
        out["exec_capacity"] = exec_["total_s"] * engine_threads
    for name, key in (("admit", "admit"), ("queue_wait", "queue_wait"),
                      ("snapshot_pin", "snapshot_pin")):
        row = span(rows, name, 1)
        if row is not None:
            out[key] = row["total_s"]
    io = span(rows, "io_wall")
    out["io_wall"] = io["total_s"] if io else 0.0
    proxy = span(rows, "proxy", 0)
    if proxy is not None:
        out["proxy_overhead"] = proxy["total_s"] - server["total_s"]
        dial = span(rows, "proxy.dial", 1)
        out["dial"] = dial["total_s"] if dial else 0.0
    return out
