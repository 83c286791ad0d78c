"""Unit tests of the benchmark's parsers, order statistics and checks.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import benchlib  # noqa: E402

TRACE = [
    "TRACE id=t.1 depth=0 span=server count=1 total_s=0.0205 start_s=0",
    "TRACE id=t.1 depth=1 span=admit count=1 total_s=2e-05 start_s=1e-05",
    "TRACE id=t.1 depth=1 span=queue_wait count=1 total_s=5e-05 start_s=3e-05",
    "TRACE id=t.1 depth=1 span=exec count=1 total_s=0.0017 start_s=0.0003",
    "TRACE id=t.1 depth=2 span=leaf_chunk count=3 total_s=0.0030 "
    "start_s=0.0004",
    "TRACE id=t.1 depth=1 span=sink_flush count=1 total_s=1e-06 "
    "start_s=0.0204",
    "ENDTRACE id=t.1 spans=6",
]


class TraceTest(unittest.TestCase):
    def test_parses_rows(self):
        rows = benchlib.parse_trace(TRACE)
        self.assertEqual(len(rows), 6)
        self.assertEqual(benchlib.span(rows, "leaf_chunk", 2)["count"], 3)
        self.assertIsNone(benchlib.span(rows, "proxy"))

    def test_rejects_wrong_span_count(self):
        bad = TRACE[:-1] + ["ENDTRACE id=t.1 spans=5"]
        with self.assertRaises(ValueError):
            benchlib.parse_trace(bad)

    def test_rejects_mixed_ids_and_missing_end(self):
        with self.assertRaises(ValueError):
            benchlib.parse_trace([TRACE[0].replace("t.1", "t.2")] + TRACE[1:])
        with self.assertRaises(ValueError):
            benchlib.parse_trace(TRACE[:-1])
        with self.assertRaises(ValueError):
            benchlib.parse_trace(["PAIR 1 2 0 0 1 1"] + TRACE)

    def test_breakdown(self):
        b = benchlib.trace_breakdown(benchlib.parse_trace(TRACE), 0.0210, 2)
        # server - (exec start + exec) - sink_flush
        self.assertAlmostEqual(b["completion_gap"], 0.0205 - 0.002 - 1e-06)
        self.assertAlmostEqual(b["wire"], 0.0005)
        self.assertAlmostEqual(b["exec_capacity"], 0.0034)
        self.assertEqual(b["leaf_chunks"], 3)
        self.assertNotIn("proxy_overhead", b)

    def test_breakdown_through_proxy(self):
        rows = benchlib.parse_trace(TRACE[:-1] + [
            "TRACE id=t.1 depth=0 span=proxy count=1 total_s=0.0409 start_s=0",
            "TRACE id=t.1 depth=1 span=proxy.dial count=1 total_s=8e-05 "
            "start_s=7e-06",
            "ENDTRACE id=t.1 spans=8"])
        b = benchlib.trace_breakdown(rows, 0.041, 2)
        self.assertAlmostEqual(b["proxy_overhead"], 0.0204)
        self.assertAlmostEqual(b["dial"], 8e-05)


METRICS_BEFORE = """# TYPE rcj_server_bytes_sent_total counter
rcj_server_bytes_sent_total 1000
rcj_engine_queries_total 4
rcj_wal_sync_seconds_bucket{le="0.001"} 2
rcj_wal_sync_seconds_bucket{le="0.01"} 2
rcj_wal_sync_seconds_bucket{le="+Inf"} 2
rcj_proxy_backend_attempts_total{backend="0"} 1
# slowlog wall_s=1.31 pairs=25000 env=default trace=x ok""".splitlines()

METRICS_AFTER = """rcj_server_bytes_sent_total 10000
rcj_engine_queries_total 14
rcj_wal_sync_seconds_bucket{le="0.001"} 2
rcj_wal_sync_seconds_bucket{le="0.01"} 12
rcj_wal_sync_seconds_bucket{le="+Inf"} 12
rcj_proxy_backend_attempts_total{backend="0"} 5
rcj_proxy_backend_attempts_total{backend="1"} 3""".splitlines()


class MetricsTest(unittest.TestCase):
    def test_delta(self):
        d = benchlib.metrics_delta(benchlib.parse_metrics(METRICS_BEFORE),
                                   benchlib.parse_metrics(METRICS_AFTER))
        self.assertEqual(d["rcj_server_bytes_sent_total"], 9000)
        self.assertEqual(d["rcj_engine_queries_total"], 10)
        self.assertEqual(d['rcj_proxy_backend_attempts_total{backend="0"}'], 4)
        # A series born between the scrapes counts from zero.
        self.assertEqual(d['rcj_proxy_backend_attempts_total{backend="1"}'], 3)

    def test_histogram_quantile(self):
        d = benchlib.metrics_delta(benchlib.parse_metrics(METRICS_BEFORE),
                                   benchlib.parse_metrics(METRICS_AFTER))
        # All ten new observations fell in (0.001, 0.01]: the median is the
        # bucket's midpoint by linear interpolation.
        self.assertAlmostEqual(
            benchlib.histogram_quantile(d, "rcj_wal_sync_seconds", 0.5),
            0.0055)
        self.assertEqual(benchlib.histogram_quantile(d, "absent", 0.5), 0.0)


class StatsTest(unittest.TestCase):
    def test_tail_rule(self):
        self.assertEqual(benchlib.tail([]), (0.0, 0.0, 0))
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0])[:2], (3.0, 100.0))
        values = list(range(1, 301))
        value, pct, n = benchlib.tail(values)
        self.assertEqual(n, 300)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 290 / 300)


def record(**kw):
    r = {"kind": "query", "i": 0, "env": "default", "limit": 10,
         "status": "ok", "detail": "", "pairs": 10, "digest": "ab",
         "end_line": "END pairs=10 candidates=40 results=10"}
    r.update(kw)
    return r


REFERENCE = {"default": {"10": {"pairs": 10, "digest": "ab", "set": "cd"}}}


class CheckTest(unittest.TestCase):
    def test_query_checks(self):
        self.assertIsNone(benchlib.check_query(record(), REFERENCE))
        self.assertIn("digest", benchlib.check_query(record(digest="ac"),
                                                     REFERENCE))
        self.assertIn("pairs", benchlib.check_query(
            record(pairs=9, end_line="END pairs=9"), REFERENCE))
        self.assertIn("END pairs", benchlib.check_query(record(pairs=9),
                                                        REFERENCE))
        self.assertIn("timeout", benchlib.check_query(
            record(status="timeout"), REFERENCE))

    def test_snapshot_read_checks_framing_only(self):
        self.assertIsNone(benchlib.check_query(record(digest="zz"), None))
        self.assertIsNotNone(benchlib.check_query(
            record(pairs=9, end_line="END pairs=9"), None))

    def test_mutation_checks(self):
        ok = {"status": "ok"}
        failures, acked = benchlib.check_mutations([ok, ok, {"status":
                                                             "timeout"}])
        self.assertEqual(acked, 2)
        self.assertEqual(len(failures), 1)


if __name__ == "__main__":
    unittest.main()
