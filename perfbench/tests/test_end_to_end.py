"""End-to-end tests of the benchmark itself: every workload at a tiny size
reports exactly the metrics BENCHMARK.json names, and the correctness
checks catch a perturbed PAIR line and a dropped MUT acknowledgement
injected by a line-rewriting proxy between the generator and the server.

Run from the repository root (builds into .bench_build/ on first use):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
os.chdir(REPO)
sys.path.insert(0, os.path.join(REPO, "perfbench"))
import benchlib  # noqa: E402
import run  # noqa: E402


def setUpModule():
    run.build()


class LineProxy:
    """Relays one TCP connection at a time to `port`, passing each
    server-to-client line through `transform` (None drops the line)."""

    def __init__(self, port, transform):
        self.upstream = port
        self.transform = transform
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._relay, args=(client,),
                                 daemon=True)
            t.start()
            self.threads.append(t)

    def _relay(self, client):
        up = socket.create_connection(("127.0.0.1", self.upstream))

        def forward():
            try:
                while True:
                    data = client.recv(1 << 16)
                    if not data:
                        break
                    up.sendall(data)
            except OSError:
                pass
            try:
                up.shutdown(socket.SHUT_WR)
            except OSError:
                pass

        threading.Thread(target=forward, daemon=True).start()
        reader = up.makefile("rb")
        try:
            for line in reader:
                out = self.transform(line)
                if out is not None:
                    client.sendall(out)
        except OSError:
            pass
        finally:
            reader.close()
            up.close()
            client.close()

    def close(self):
        self.listener.close()


class Fixture(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(run.BUILD, "work", "test-%d" % os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.addCleanup(shutil.rmtree, self.work, True)
        self.q = os.path.join(self.work, "q.csv")
        self.p = os.path.join(self.work, "p.csv")
        run.run_tool(["gen", "--dir", self.work,
                      "--file", "q.csv=uniform:2000:1",
                      "--file", "p.csv=uniform:2000:2"])

    def serve(self, *extra):
        server = run.Server([run.RCJ_TOOL, "serve", "--port", "0", "--q",
                             self.q, "--p", self.p] + list(extra),
                            os.path.join(self.work, "serve.log"), "listening")
        self.addCleanup(server.stop)
        return server

    def proxy(self, port, transform):
        proxy = LineProxy(port, transform)
        self.addCleanup(proxy.close)
        return proxy

    def load(self, port, *args):
        out = os.path.join(self.work, "load.jsonl")
        run.run_tool(["load", "--port", str(port), "--out", out] + list(args))
        return run.read_records(out)


class CorrectnessCheckTest(Fixture):
    def full_query(self, port):
        records = self.load(port, "--mode", "closed", "--max-queries", "1")
        return [r for r in records if r["kind"] == "query"][0]

    def test_perturbed_pair_line_fails_the_check(self):
        ref_path = os.path.join(self.work, "ref.json")
        run.run_tool(["ref", "--env", "default=%s:%s" % (self.q, self.p),
                      "--full", "1", "--out", ref_path])
        with open(ref_path) as f:
            reference = json.load(f)
        server = self.serve()
        self.assertIsNone(benchlib.check_query(self.full_query(server.port),
                                               reference))

        seen = {"pairs": 0}

        def perturb(line):
            if line.startswith(b"PAIR "):
                seen["pairs"] += 1
                if seen["pairs"] == 3:  # bump the leading digit of x1
                    fields = line.split(b" ")
                    bumped = str((int(fields[3][:1]) + 1) % 10).encode()
                    fields[3] = bumped + fields[3][1:]
                    return b" ".join(fields)
            return line

        proxy = self.proxy(server.port, perturb)
        why = benchlib.check_query(self.full_query(proxy.port), reference)
        self.assertIsNotNone(why)
        self.assertIn("digest", why)

    def test_dropped_mut_ack_fails_the_check(self):
        server = self.serve("--live")

        def drop_mut(line):
            return None if line.startswith(b"MUT ") else line

        proxy = self.proxy(server.port, drop_mut)
        records = self.load(proxy.port, "--mode", "churn", "--seconds", "1",
                            "--conns", "1",
                            "--timeout-ms", "500", "--mut-seed", "3",
                            "--mut-q", self.q, "--mut-p", self.p)
        failures, acked = benchlib.check_mutations(
            [r for r in records if r["kind"] == "mut"])
        self.assertEqual(acked, 0)
        self.assertEqual(failures[0]["status"], "timeout")
        # The server applied the op the generator never saw acknowledged,
        # so the EPOCH check would fail as well.
        epoch = benchlib.parse_fields(
            run.request(server.port, "EPOCH env=default")[-1])["epoch"]
        self.assertEqual(epoch, 1)


class WorkloadMetricsTest(unittest.TestCase):
    """Every workload at a tiny size, untraced and traced: the result line
    carries exactly BENCHMARK.json's metrics, each with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, name, trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", "3", "--seconds", "1.5", "--trace", str(trace),
             "--scale", "0.02"], capture_output=True, text=True, cwd=REPO,
            timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        want = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
        return result

    def test_every_workload(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for name in names:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.run_workload(name, trace)


if __name__ == "__main__":
    unittest.main()
