#!/usr/bin/env python3
"""End-to-end serving benchmark of ringjoin's ring-constrained join.

Run from the repository root:

    python3 perfbench/run.py --workload topk_serve --seed 1 --seconds 15 \
        --trace 0

It builds the library, `rcj_tool` and the native load generator
(`perfbench/src`, into `.bench_build/`), generates the workload's inputs
from the seed, starts the real serving stack (`rcj_tool serve`, or
`rcj_tool fleet`), drives it over loopback TCP, checks every response
against an in-process serial reference, and prints a report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the same untraced pass, then replays the schedule with trace=1 on every
query, scrapes METRICS around it, times the in-process ladder
(core -> engine -> service -> shard) on a seeded sample of the same
queries, and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RCJ_TOOL = os.path.join(BUILD, "ringjoin", "rcj_tool")
RCJBENCH = os.path.join(BUILD, "rcjbench")
NPROC = len(os.sched_getaffinity(0))

# The datasets are fixed, like the paper's real datasets: on clustered data
# a top-k query's cost depends on where the serial order starts (a k=100
# Gaussian query measured 2 ms under one dataset seed and 43 ms under
# another), which would swamp every bound. --seed drives the arrival order,
# the request mix order, the mutation stream and the ladder sample.
DATA_SEED = 2008
# Server launches per run; setup_s is their median. Set-up is single-threaded
# CPU work, and launches within one run varied by up to 40% with the host's
# load: over ten seeds the median of three spread up to 0.30, the median of
# nine up to 0.22.
SETUPS = 9
WAL_SYNC_MS = 5       # churn's group-commit window
COMPACT_THRESHOLD = 100
# Share of top-k requests with k = 10^4 (kLargeLimit in src/workload.h).
# Top-k requests arrive at 10/s (kTopkRate).
LARGE_SHARE = 0.1
# A top-k query counts toward goodput within 50 ms. Small-k queries end on
# the server's 20 ms completion ticks (about 21, 42, 63 ms); 50 ms lies
# between the second and third, so it counts the queries that waited at most
# one extra tick and drops those held behind a k = 10^4 query.
TOPK_LATENCY_LIMIT_MS = 50.0
LADDER_SAMPLE = 24
MAX_LATE_MS = 20.0    # the generator fails the run beyond this lateness
MAX_CLIENT_CPU_SHARE = 0.5


# Every workload serves the paper's ring-constrained join (OBJ, the paper's
# best algorithm) and stresses a different slice of the stack.
WORKLOADS = {
    # The paper's real-data join at full size (Table 2: |PP| = 177,983,
    # |SC| = 172,188): kernels, engine chunking, the file-backed storage path
    # and bulk PAIR delivery do nearly all the work; one closed-loop client
    # leaves shard and service idle. The page files are read through mmap:
    # with `--storage file` every buffer miss is an O_DIRECT read from a
    # shared disk, and the join's median spread 0.18 over ten seeds (CPU per
    # op 0.23) against 0.09 (0.09) through mmap.
    "full_join": {
        "files": {"pp.csv": ("pp", 177983), "sc.csv": ("sc", 172188)},
        "envs": [("default", "pp.csv", "sc.csv")],
        "storage": "mmap",
        "mode": "closed",
        "large_share": 0.0,
        "latency_limit_ms": 30000.0,
    },
    # Interactive top-k lookups over four static environments on two shards:
    # per-request fixed costs (connection, admission, queue wait, batch
    # barrier, completion wake-up) dominate; the k = 10^4 minority makes
    # head-of-line blocking visible in the tail.
    "topk_serve": {
        "files": {"uq.csv": ("uniform", 100000), "up.csv": ("uniform", 100000),
                  "gq.csv": ("gaussian", 100000), "gp.csv": ("gaussian", 100000),
                  "ppq.csv": ("pp", 100000), "scp.csv": ("sc", 100000),
                  "lo.csv": ("lo", 100000)},
        # StableHash(name) % 2 places default and ppsc on shard 0 (and on
        # the fleet's backend 0), gaussian and lo_self on shard 1.
        "envs": [("default", "uq.csv", "up.csv"),
                 ("gaussian", "gq.csv", "gp.csv"),
                 ("ppsc", "ppq.csv", "scp.csv"), ("lo_self", "lo.csv", None)],
        "storage": "mem",
        "mode": "open",
        "shards": 2,
        "large_share": LARGE_SHARE,
        "latency_limit_ms": TOPK_LATENCY_LIMIT_MS,
    },
    # Writes beside reads: a journaled live environment takes a closed-loop
    # INSERT/DELETE stream on one batch connection (background compactions
    # every COMPACT_THRESHOLD pending ops) while top-k snapshot reads arrive
    # open loop on up to three connections. One engine thread: with more,
    # the chunks a small-k read runs speculatively past its limit vary from
    # run to run (2 to 10 CPU ticks per worker measured), which swamped the
    # CPU per op (spread 0.33 over five seeds).
    "churn": {
        "threads": 1,
        "files": {"uq.csv": ("uniform", 100000), "up.csv": ("uniform", 100000)},
        "envs": [("default", "uq.csv", "up.csv")],
        "storage": "mem",
        "mode": "churn",
        "large_share": 0.0,
        "latency_limit_ms": 250.0,
    },
    # The topk_serve environments and schedule through `rcj_tool fleet`
    # (proxy + 2 backends, 2 replicas): the only path through FleetProxy's
    # relay, dial and placement. Its difference from topk_serve is the cost
    # of the proxy tier.
    "fleet_topk": {
        "files": None,  # same as topk_serve
        "envs": None,
        "storage": "mem",
        "mode": "open",
        "fleet": True,
        "large_share": LARGE_SHARE,
        "latency_limit_ms": TOPK_LATENCY_LIMIT_MS,
    },
}
WORKLOADS["fleet_topk"]["files"] = WORKLOADS["topk_serve"]["files"]
WORKLOADS["fleet_topk"]["envs"] = WORKLOADS["topk_serve"]["envs"]


# Metric names and units come from BENCHMARK.json, the benchmark's
# contract; each run reports exactly those.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Printed by every untraced pass but not gated: see README for why.
REPORT_UNITS = {
    "op_tail_ms": "ms", "query_p50_ms": "ms", "query_tail_ms": "ms", "first_pair_p50_ms": "ms",
    "pairs_per_s": "1/s", "mutations_per_s": "1/s", "fail_ratio": "ratio",
    "client_cpu_share": "ratio", "late_ms_tail": "ms",
}


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


# ---- build ------------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC)], check=True,
                   stdout=subprocess.DEVNULL)


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            cache = dict(l.strip().split("=", 1) for l in f
                         if "=" in l and not l.startswith(("#", "//")))
        cxx = cache.get("CMAKE_CXX_COMPILER:FILEPATH", "c++")
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout
        compiler = out.splitlines()[0] if out else cxx
        build_type = cache.get("CMAKE_BUILD_TYPE:STRING", "")
    except (OSError, ValueError):
        build_type = ""
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT).stdout.strip()
    if not sha:
        # Not a git checkout: name the code by a digest of its sources.
        h = hashlib.sha1()
        for top in ("src", "tools", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
            for name in files:
                with open(name, "rb") as f:
                    h.update(name[len(ROOT):].encode() + f.read())
        sha = "tree-" + h.hexdigest()[:12]
    with open("/proc/loadavg") as f:
        load = " ".join(f.read().split()[:3])
    return {"nproc": NPROC, "cpu": model, "compiler": compiler,
            "build_type": build_type, "git_sha": sha, "loadavg": load}


# ---- processes --------------------------------------------------------------

class Server:
    """One serving tree (serve, or fleet + its backends) on an ephemeral
    port. Its stdout goes to a log file that is polled for the banner."""

    def __init__(self, argv, log_path, banner):
        self.t0 = time.monotonic()
        self.logf = open(log_path, "w")
        self.proc = subprocess.Popen(argv, stdout=self.logf,
                                     stderr=subprocess.STDOUT, cwd=ROOT)
        self.port = None
        self.pids = [self.proc.pid]
        self.backends = []  # (pid, port) for fleet backends
        deadline = time.monotonic() + 120
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                with open(log_path) as f:
                    fail_setup("server did not start:\n" + f.read())
            time.sleep(0.002)
            with open(log_path) as f:
                for line in f:
                    if line.startswith("backend ") and " pid " in line:
                        parts = line.split()
                        self.backends.append(
                            (int(parts[3]), int(parts[5].rsplit(":", 1)[1])))
                    if line.startswith(banner):
                        self.port = int(line.split()[3 if banner == "fleet"
                                                     else 2].rsplit(":", 1)[1])
                if self.port is None:
                    self.backends = []
        self.pids += [pid for pid, _ in self.backends]

    def cpu_seconds(self):
        tick = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids:
            with open("/proc/%d/stat" % pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / tick

    def peak_rss_mb(self):
        total = 0
        for pid in self.pids:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # The fleet stops its backends itself; kill one only if it is still
        # a live serve process (its pid may not be reused by anyone else).
        for pid, _ in self.backends:
            try:
                with open("/proc/%d/cmdline" % pid, "rb") as f:
                    alive = b"serve" in f.read()
            except OSError:
                alive = False
            if alive:
                os.kill(pid, signal.SIGKILL)
        self.logf.close()


def request(port, line, timeout=30.0):
    """Sends one request line and reads until the connection closes or a
    terminator line; returns the response lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        data = b""
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            data += chunk
            text = data.decode(errors="replace")
            if text.endswith("\n") and any(
                    text.rstrip("\n").rsplit("\n", 1)[-1].startswith(t)
                    for t in ("ENDMETRICS", "EPOCH ", "END ", "ERR ")):
                break
    return data.decode(errors="replace").splitlines()


def scrape(port):
    lines = request(port, "METRICS")
    if not lines or lines[0] != "OK" or not lines[-1].startswith("ENDMETRICS"):
        raise RuntimeError("bad METRICS response from port %d" % port)
    return benchlib.parse_metrics(lines[1:-1])


def run_tool(args):
    proc = subprocess.run([RCJBENCH] + args, capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("rcjbench %s failed: %s" % (args[0], proc.stderr))


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---- one run ----------------------------------------------------------------

class Run:
    def __init__(self, name, seed, seconds, scale, work):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failures = []
        self.report = []
        self.files = {}
        for i, (fname, (kind, n)) in enumerate(sorted(self.w["files"].items())):
            self.files[fname] = (kind, max(200, int(n * scale)),
                                 DATA_SEED * 1000 + i + 1)

    def path(self, name):
        return os.path.join(self.work, name)

    def env_spec(self, q, p):
        """`Q.csv:P.csv`, or `Q.csv:self` for a self-join."""
        return "%s:%s" % (self.path(q), self.path(p) if p else "self")

    def env_args(self):
        out = []
        for name, q, p in self.w["envs"]:
            out += ["--env", "%s=%s" % (name, self.env_spec(q, p))]
        return out

    def storage_args(self):
        if self.w["storage"] == "mem":
            return []
        os.makedirs(self.path("pages"), exist_ok=True)
        return ["--storage", self.w["storage"], "--storage-dir",
                self.path("pages")]

    def threads(self):
        """The server's --threads: the fleet splits nproc across its two
        backends; churn serves from one engine thread (see its entry)."""
        if self.w.get("fleet"):
            return max(1, NPROC // 2)
        return self.w.get("threads", NPROC)

    def engine_threads(self):
        """Worker threads of the engine that runs one query server-side."""
        return max(1, self.threads() // self.w.get("shards", 1))

    def serve_argv(self, index):
        w = self.w
        default = w["envs"][0]
        argv = [RCJ_TOOL, "fleet" if w.get("fleet") else "serve", "--port",
                "0", "--threads", str(self.threads()),
                "--q", self.path(default[1]), "--p", self.path(default[2])]
        extra = ["%s:%s" % (n, self.env_spec(q, p)) for n, q, p in w["envs"][1:]]
        if extra:
            argv += ["--envs", ",".join(extra)]
        if w.get("shards"):
            argv += ["--shards", str(w["shards"])]
        if w.get("fleet"):
            argv += ["--backends", "2", "--replicas", "2",
                     "--log-dir", self.path("fleet-logs-%d" % index)]
        if w["mode"] == "churn":
            argv += ["--live", "--wal-dir", self.path("wal-%d" % index),
                     "--wal-sync-ms", str(WAL_SYNC_MS),
                     "--compact-threshold", str(COMPACT_THRESHOLD)]
        return argv + self.storage_args()

    def start(self, index):
        """Launches the serving tree; returns it with its set-up time: launch
        to the END of the first accepted request."""
        server = Server(self.serve_argv(index), self.path("serve-%d.log" % index),
                        "fleet" if self.w.get("fleet") else "listening")
        lines = request(server.port, "QUERY env=default algo=obj limit=1")
        if not lines or not lines[-1].startswith("END "):
            server.stop()
            fail_setup("first request failed: %r" % lines)
        return server, time.monotonic() - server.t0

    def load(self, port, trace, out):
        w = self.w
        args = ["load", "--port", str(port), "--seconds", str(self.seconds),
                "--seed", str(self.seed), "--trace", "1" if trace else "0",
                "--out", out]
        if w["mode"] == "closed":
            args += ["--mode", "closed", "--envs", "default",
                     "--timeout-ms", "60000"]
        else:
            envs = ",".join(e[0] for e in w["envs"])
            args += ["--mode", w["mode"], "--envs", envs,
                     "--timeout-ms", "20000"]
            args += ["--large-share", str(w["large_share"])]
            if w["mode"] == "churn":
                args += ["--conns", str(max(1, min(3, NPROC - 1))),
                         "--mut-seed", str(self.seed),
                         "--mut-q", self.path(w["envs"][0][1]),
                         "--mut-p", self.path(w["envs"][0][2])]
            else:
                args += ["--conns", str(NPROC)]
        run_tool(args)
        return read_records(out)

    def fail(self, what):
        self.failures.append(what)

    def check_load(self, records, reference):
        """Counts and checks one load pass; returns (queries, muts, summary)
        of the measured (non-warm-up) operations."""
        queries = [r for r in records
                   if r["kind"] == "query" and not r["warmup"]]
        muts = [r for r in records if r["kind"] == "mut"]
        summary = [r for r in records if r["kind"] == "summary"][0]
        for r in queries:
            self.attempted += 1
            why = benchlib.check_query(r, reference)
            if why:
                self.fail("query %d (%s limit=%d): %s"
                          % (r["i"], r["env"], r["limit"], why))
            if r.get("trace"):
                try:
                    r["spans"] = benchlib.parse_trace(r["trace"])
                except ValueError as e:
                    self.fail("query %d trace: %s" % (r["i"], e))
        failed_muts, _ = benchlib.check_mutations(muts)
        self.attempted += len(muts)
        for r in failed_muts:
            self.fail("mutation %d: %s %s" % (r["i"], r["status"],
                                               r.get("detail", "")))
        return queries, muts, summary

    def churn_final(self, server, acked):
        """EPOCH must equal the acknowledged mutations, and the final full
        snapshot join must equal an in-process replay of them."""
        self.attempted += 2
        lines = request(server.port, "EPOCH env=default")
        epoch = benchlib.parse_fields(lines[-1]).get("epoch") if lines else None
        if epoch != acked:
            self.fail("EPOCH %s but %d mutations acknowledged" % (epoch, acked))
        final = self.load_final(server.port)
        run_tool(["replay", "--mut-seed", str(self.seed), "--acked",
                  str(acked), "--out", self.path("replay.json")]
                 + self.env_args())
        with open(self.path("replay.json")) as f:
            want = json.load(f)["final"]
        if final["status"] != "ok" or final["pairs"] != want["pairs"] or \
                final["set"] != want["set"]:
            self.fail("final snapshot join: %s %d pairs set %s, replay %d "
                      "pairs set %s" % (final["status"], final["pairs"],
                                        final["set"], want["pairs"],
                                        want["set"]))

    def load_final(self, port):
        out = self.path("final.jsonl")
        run_tool(["load", "--mode", "closed", "--port", str(port), "--envs",
                  "default", "--max-queries", "1", "--timeout-ms", "60000",
                  "--out", out])
        return [r for r in read_records(out) if r["kind"] == "query"][0]

    # -- metrics --

    def origin(self, query):
        """A query's latency runs from its send time in a closed loop and
        from its due time in an open one."""
        return query["send"] if self.w["mode"] == "closed" else query["due"]

    def e2e(self, queries, muts, summary, server, cpu_s, setup_s):
        """Every end-to-end number of the untraced pass: the gated ones
        (BENCHMARK.json) and the report-only ones. An "op" is the workload's
        primary operation: the query, or in churn the mutation, whose
        closed-loop stream is steady where concurrent snapshot reads are not
        (see README)."""
        w = self.w
        closed = w["mode"] == "closed"
        ok = [r for r in queries if r["status"] == "ok"]
        origin = self.origin
        lat = [(r["end"] - origin(r)) * 1000 for r in ok]
        first = [(r["first"] - origin(r)) * 1000 for r in ok if r["first"] >= 0]
        wall = sum(r["end"] - r["send"] for r in ok)
        acked = [r for r in muts if r["status"] == "ok"]
        mlat = [(r["end"] - r["send"]) * 1000 for r in acked]
        if w["mode"] == "churn":
            op_lat, window = mlat, self.seconds
        else:
            op_lat = lat
            window = (max(r["end"] for r in queries) - min(map(origin, queries))
                      if queries else 0.0)
        good = sum(1 for v in op_lat if v <= w["latency_limit_ms"])
        op_tail, op_pct, op_n = benchlib.tail(op_lat)
        q_tail, q_pct, q_n = benchlib.tail(lat)
        done = len(ok) + len(acked)
        late = [r["late"] * 1000 for r in queries if not closed]
        m = {
            "setup_s": setup_s,
            "op_p50_ms": benchlib.median(op_lat),
            "op_tail_ms": op_tail,
            "goodput_ops": good / window if window > 0 else 0.0,
            "server_cpu_ms_per_op": 1000.0 * cpu_s / done if done else 0.0,
            "peak_rss_mb": server.peak_rss_mb(),
            "query_p50_ms": benchlib.median(lat),
            "query_tail_ms": q_tail,
            "first_pair_p50_ms": benchlib.median(first),
            "pairs_per_s": sum(r["pairs"] for r in ok) / wall if wall else 0.0,
            "client_cpu_share": summary["cpu_s"] / summary["wall_s"],
            "late_ms_tail": benchlib.tail(late)[0] if late else 0.0,
        }
        self.report.append("ops n=%d, tail is p%.1f" % (op_n, op_pct))
        self.report.append("queries n=%d, tail is p%.1f" % (q_n, q_pct))
        if muts:
            m["mutations_per_s"] = len(acked) / self.seconds
        return m

    def layers(self, untraced, traced, ladder, deltas, ladder_muts):
        """Per-layer metrics from the traced pass, the METRICS deltas and
        the in-process ladder. Layers a workload does not exercise read 0."""
        qs = [r for r in traced if r["status"] == "ok" and r.get("spans")]
        et = self.engine_threads()
        br = [benchlib.trace_breakdown(r["spans"], r["end"] - r["send"], et)
              for r in qs]

        def col(key, scale=1000.0):
            return [b[key] * scale for b in br if key in b]

        ends = [benchlib.parse_fields(r["end_line"]) for r in qs]
        server_d, proxy_d = deltas
        lq = ladder["queries"]

        def ratio(a, b):
            return a / b if b else 0.0

        def s(name):
            return server_d.get(name, 0.0)

        traced_p50 = benchlib.median(
            [(r["end"] - self.origin(r)) * 1000 for r in qs])
        engine_p50 = benchlib.median([q["engine_ms"] for q in lq])
        core = [q["core_ms"] for q in lq]
        filt = [q["filter_ms"] for q in lq]
        cands = sum(q["candidates"] for q in lq)
        m = {
            "net.completion_gap_ms_p50": benchlib.median(col("completion_gap")),
            "net.wire_ms_p50": benchlib.median(col("wire")),
            "net.delivery_overhead_s":
                (untraced["query_p50_ms"] - engine_p50) / 1000.0,
            "net.bytes_per_pair": ratio(s("rcj_server_bytes_sent_total"),
                                        s("rcj_server_pairs_total")),
            "net.backpressure_stalls": s("rcj_server_backpressure_stalls_total"),
            "net.parse_us": ladder["parse_us"],
            "net.format_pair_ns": ladder["format_pair_ns"],
            "net.mut_overhead_ms_p50":
                untraced["op_p50_ms"] - benchlib.median(ladder_muts)
                if ladder_muts else 0.0,
            "shard.admit_ms_p50": benchlib.median(col("admit")),
            "shard.shed_ratio": ratio(s("rcj_admission_shed_total"),
                                      s("rcj_admission_submitted_total")),
            "shard.ticket_ms_p50": benchlib.median([q["shard_ms"] for q in lq]),
            "service.queue_wait_ms_p50": benchlib.median(col("queue_wait")),
            "service.queue_wait_ms_tail": benchlib.tail(col("queue_wait"))[0],
            "service.queries_per_batch": ratio(s("rcj_engine_queries_total"),
                                               s("rcj_engine_batches_total")),
            "service.ticket_ms_p50":
                benchlib.median([q["service_ms"] for q in lq]),
            "engine.exec_ms_p50": benchlib.median(col("exec")),
            "engine.chunk_busy_ratio": ratio(sum(col("leaf_busy", 1.0)),
                                             sum(col("exec_capacity", 1.0))),
            "engine.leaf_chunks_per_query":
                benchlib.median(col("leaf_chunks", 1.0)),
            "engine.view_reuse_ratio": ratio(
                s("rcj_worker_view_reuses_total"),
                s("rcj_worker_view_reuses_total")
                + s("rcj_worker_view_opens_total")),
            "engine.run_ms_p50": engine_p50,
            "engine.task_wall_s_per_query":
                benchlib.median([e.get("cpu_s", 0.0) for e in ends]),
            "engine.overrun_candidates_ratio": ratio(
                sum(q["engine_candidates"] for q in lq if q["limit"]),
                sum(q["candidates"] for q in lq if q["limit"])),
            "core.serial_ms_p50": benchlib.median(core),
            "core.filter_s": benchlib.median(filt) / 1000.0,
            "core.verify_s": (benchlib.median(core) - benchlib.median(filt))
                             / 1000.0,
            "core.candidates_per_query": ratio(cands, len(lq)),
            "core.results_per_candidate":
                ratio(sum(q["results"] for q in lq), cands),
            "core.node_accesses_per_query":
                ratio(sum(q["node_accesses"] for q in lq), len(lq)),
            "storage.faults_per_query":
                ratio(sum(e.get("faults", 0.0) for e in ends), len(ends)),
            "storage.cold_fault_ratio":
                ratio(sum(e.get("cold_faults", 0.0) for e in ends),
                      sum(e.get("faults", 0.0) for e in ends)),
            "storage.io_wall_ms_per_query": ratio(sum(col("io_wall")),
                                                  len(br)),
            "live.snapshot_pin_ms_p50": benchlib.median(col("snapshot_pin")),
            "live.overlay_candidate_ratio": 0.0,
            "live.wal_sync_ms_p50": 1000.0 * benchlib.histogram_quantile(
                server_d, "rcj_wal_sync_seconds", 0.5),
            "live.appends_per_sync": ratio(s("rcj_wal_appends_total"),
                                           s("rcj_wal_syncs_total")),
            "live.compactions": s("rcj_live_compactions_total"),
            "live.compaction_s_p50": benchlib.histogram_quantile(
                server_d, "rcj_live_compaction_seconds", 0.5),
            "fleet.proxy_overhead_ms_p50":
                benchlib.median(col("proxy_overhead")),
            "fleet.dial_ms_p50": benchlib.median(col("dial")),
            "fleet.retries": proxy_d.get("rcj_proxy_retries_total", 0.0),
            "fleet.backend_share_max": 0.0,
            "obs.trace_overhead_ratio": ratio(traced_p50,
                                              untraced["query_p50_ms"]),
            "bench.client_cpu_share": untraced["client_cpu_share"],
            "bench.late_ms_tail": untraced["late_ms_tail"],
        }
        attempts = {k: v for k, v in proxy_d.items()
                    if k.startswith("rcj_proxy_backend_attempts_total")}
        if attempts and sum(attempts.values()) > 0:
            m["fleet.backend_share_max"] = (max(attempts.values())
                                            / sum(attempts.values()))
        if self.w["mode"] == "churn":
            # Snapshot-read candidates over the same query on the base env.
            base = {}
            for q in lq:
                base.setdefault(q["limit"], q["candidates"])
            pairs = [(e.get("candidates", 0.0), base[r["limit"]])
                     for r, e in zip(qs, ends) if r["limit"] in base]
            m["live.overlay_candidate_ratio"] = ratio(
                sum(a for a, _ in pairs), sum(b for _, b in pairs))
        return m

    def ladder(self, queries, muts):
        """Times a seeded sample of the run's own queries down the
        in-process entry points."""
        rng = random.Random(self.seed)
        if self.w["mode"] == "closed":
            sample = [("default", 0)]
        else:
            pool = [(r["env"], r["limit"]) for r in queries]
            sample = rng.sample(pool, min(LADDER_SAMPLE, len(pool)))
        qfile = self.path("ladder-queries.txt")
        with open(qfile, "w") as f:
            f.writelines("%s %d\n" % q for q in sample)
        # The same engine threads as the server, so each layer's time
        # belongs to the program as served.
        args = ["ladder", "--queries", qfile, "--threads", str(self.threads()),
                "--shards", str(self.w.get("shards", 1)),
                "--out", self.path("ladder.json")] + self.env_args()
        args += self.storage_args()
        if self.w["mode"] == "churn":
            acked = sum(1 for r in muts if r["status"] == "ok")
            args += ["--live-env", self.env_args()[1],
                     "--wal-dir", self.path("wal-ladder"),
                     "--wal-sync-ms", str(WAL_SYNC_MS),
                     "--compact-threshold", str(COMPACT_THRESHOLD),
                     "--mut-seed", str(self.seed),
                     "--mut-count", str(max(1, acked))]
        run_tool(args)
        with open(self.path("ladder.json")) as f:
            result = json.load(f)
        self.attempted += 3 * len(sample)
        for _ in range(result["mismatches"]):
            self.fail("in-process ladder stream differs from the serial "
                      "reference")
        return result

    def execute(self, trace):
        files = ["%s=%s:%d:%d" % (f, k, n, s)
                 for f, (k, n, s) in sorted(self.files.items())]
        run_tool(["gen", "--dir", self.work] +
                 [a for f in files for a in ("--file", f)])
        # Churn's snapshot reads pinned epochs a client cannot observe, so
        # they are checked for framing only (reference None).
        reference = None
        if self.w["mode"] != "churn":
            ref_path = self.path("ref.json")
            run_tool(["ref", "--full", "1" if self.w["mode"] == "closed"
                      else "0", "--out", ref_path] + self.env_args())
            with open(ref_path) as f:
                reference = json.load(f)

        setups = []
        server = None
        try:
            for i in range(1 if trace else SETUPS):
                if server is not None:
                    server.stop()
                server, took = self.start(i)
                setups.append(took)
            cpu0 = server.cpu_seconds()
            records = self.load(server.port, False, self.path("load.jsonl"))
            cpu_s = server.cpu_seconds() - cpu0
            queries, muts, summary = self.check_load(records, reference)
            metrics = self.e2e(queries, muts, summary, server, cpu_s,
                               statistics.median(setups))
            if self.w["mode"] == "churn":
                self.churn_final(server, sum(1 for r in muts
                                             if r["status"] == "ok"))
            if metrics["late_ms_tail"] > MAX_LATE_MS:
                self.fail("generator fell behind its schedule: late tail "
                          "%.1f ms" % metrics["late_ms_tail"])
            if metrics["client_cpu_share"] > MAX_CLIENT_CPU_SHARE:
                self.fail("generator used %.2f of a core"
                          % metrics["client_cpu_share"])
            metrics["fail_ratio"] = len(self.failures) / max(1, self.attempted)
            self.print_metrics("e2e", metrics, E2E_UNITS)
            if not trace:
                return metrics

            # The traced pass gets a fresh serving tree, so it starts from the
            # same state as the untraced one (churn: a fresh environment).
            server.stop()
            server, _ = self.start(1)
            ports = [server.port] + [p for _, p in server.backends]
            before = [scrape(p) for p in ports]
            traced = self.load(server.port, True, self.path("traced.jsonl"))
            after = [scrape(p) for p in ports]
            deltas = [benchlib.metrics_delta(b, a)
                      for b, a in zip(before, after)]
            if server.backends:
                server_d = {}
                for d in deltas[1:]:
                    for k, v in d.items():
                        server_d[k] = server_d.get(k, 0.0) + v
                proxy_d = deltas[0]
            else:
                server_d, proxy_d = deltas[0], {}
            tq, tm, _ = self.check_load(traced, reference)
            if self.w["mode"] == "churn":
                self.churn_final(server, sum(1 for r in tm
                                             if r["status"] == "ok"))
        finally:
            if server is not None:
                server.stop()
        ladder = self.ladder(queries, muts)
        layers = self.layers(metrics, tq, ladder, (server_d, proxy_d),
                             ladder["mut_ms"])
        self.print_metrics("layer", layers, LAYER_UNITS)
        return layers

    def print_metrics(self, kind, metrics, units):
        """One line per metric; those not in BENCHMARK.json are marked."""
        for k, v in metrics.items():
            unit = units.get(k, REPORT_UNITS.get(k, ""))
            log("%s %s %s %.6g %s%s" % (kind, self.name, k, v, unit,
                                        "" if k in units else " (report)"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every input cardinality (tests)")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail_setup("build failed: %s" % e)
    log("host " + json.dumps(host_stamp()))

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args.workload, args.seed, args.seconds, args.scale, work)
    try:
        metrics = run.execute(args.trace == 1)
    except RuntimeError as e:
        fail_setup(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in run.report:
        log("note %s %s" % (args.workload, line))
    for what in run.failures[:20]:
        log("FAIL %s" % what)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
