// The benchmark's in-process side: input generation, the serial reference
// digests every wire stream is checked against, the live-environment replay
// of an acknowledged mutation sequence, and the timed ladder down the
// public entry points (core -> engine -> service -> shard).
#include "inproc.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "core/pair_sink.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "live/live_environment.h"
#include "live/mutation_log.h"
#include "net/protocol.h"
#include "service/service.h"
#include "shard/shard_router.h"
#include "workload.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

bool Fail(const std::string& what, const rcj::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return false;
}

// Counts and digests a pair stream; optionally keeps the first pairs and
// snapshots the digest at given prefix lengths.
class DigestSink final : public rcj::PairSink {
 public:
  bool Emit(const rcj::RcjPair& pair) override {
    digest.Add(PairHash(pair));
    if (keep != nullptr && keep->size() < keep_max) keep->push_back(pair);
    if (checkpoints.count(digest.count) != 0) prefixes[digest.count] = digest;
    return true;
  }

  StreamDigest digest;
  std::vector<rcj::RcjPair>* keep = nullptr;
  size_t keep_max = 0;
  std::set<uint64_t> checkpoints;
  std::map<uint64_t, StreamDigest> prefixes;
};

std::string DigestJson(const StreamDigest& d) {
  return "{\"pairs\":" + std::to_string(d.count) + ",\"digest\":\"" +
         Hex(d.ordered) + "\",\"set\":\"" + Hex(d.set_sum) + "\"}";
}

rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> BuildEnv(
    const EnvSpec& spec, const rcj::RcjRunOptions& options) {
  rcj::Result<rcj::Dataset> q = rcj::LoadCsv(spec.q_csv);
  if (!q.ok()) return q.status();
  if (spec.p_csv.empty()) {
    return rcj::RcjEnvironment::BuildSelf(q.value().points, options);
  }
  rcj::Result<rcj::Dataset> p = rcj::LoadCsv(spec.p_csv);
  if (!p.ok()) return p.status();
  return rcj::RcjEnvironment::Build(q.value().points, p.value().points,
                                    options);
}

rcj::QuerySpec Spec(const rcj::RcjEnvironment* env, uint64_t limit,
                    bool verify = true) {
  rcj::QuerySpec spec = rcj::QuerySpec::For(env);
  spec.algorithm = rcj::RcjAlgorithm::kObj;
  spec.limit = limit;
  spec.verify = verify;
  return spec;
}

// Times `fn` over at least `min_iters` calls and 0.1 s; returns seconds per
// call.
template <typename Fn>
double TimePerCall(size_t min_iters, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  size_t iters = 0;
  double elapsed = 0.0;
  while (iters < min_iters || elapsed < 0.1) {
    fn(iters);
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return elapsed / static_cast<double>(iters);
}

}  // namespace

bool Generate(const std::string& dir, const std::vector<std::string>& files) {
  for (const std::string& f : files) {
    // NAME=KIND:N:SEED
    const size_t eq = f.find('=');
    std::istringstream rest(eq == std::string::npos ? "" : f.substr(eq + 1));
    std::string kind, n_text, seed_text;
    if (!std::getline(rest, kind, ':') || !std::getline(rest, n_text, ':') ||
        !std::getline(rest, seed_text)) {
      std::fprintf(stderr, "gen: bad --file '%s'\n", f.c_str());
      return false;
    }
    const size_t n = std::stoull(n_text);
    const uint64_t seed = std::stoull(seed_text);
    rcj::Dataset data;
    data.name = kind;
    if (kind == "uniform") {
      data.points = rcj::GenerateUniform(n, seed);
    } else if (kind == "gaussian") {
      data.points = rcj::GenerateGaussianClusters(n, 10, 1000.0, seed);
    } else if (kind == "pp") {
      data.points = rcj::MakeRealSurrogate(
          rcj::RealDataset::kPopulatedPlaces, seed, n);
    } else if (kind == "sc") {
      data.points =
          rcj::MakeRealSurrogate(rcj::RealDataset::kSchools, seed, n);
    } else if (kind == "lo") {
      data.points =
          rcj::MakeRealSurrogate(rcj::RealDataset::kLocales, seed, n);
    } else {
      std::fprintf(stderr, "gen: unknown kind '%s'\n", kind.c_str());
      return false;
    }
    const rcj::Status s = rcj::SaveCsv(data, dir + "/" + f.substr(0, eq));
    if (!s.ok()) return Fail("gen", s);
  }
  return true;
}

bool Reference(const std::vector<EnvSpec>& envs,
               const rcj::RcjRunOptions& options,
               const std::vector<uint64_t>& limits, const std::string& out) {
  // limit 0 = the full join; otherwise one serial run to the largest limit
  // yields every shorter prefix.
  const bool full = std::find(limits.begin(), limits.end(), 0) != limits.end();
  const uint64_t run_limit =
      full ? 0 : *std::max_element(limits.begin(), limits.end());
  std::vector<std::string> rows(envs.size());
  std::vector<char> ok(envs.size(), 0);
  std::vector<std::thread> threads;
  for (size_t e = 0; e < envs.size(); ++e) {
    threads.emplace_back([&, e] {
      rcj::RcjRunOptions env_options = options;
      auto env = BuildEnv(envs[e], env_options);
      if (!env.ok()) {
        Fail("ref " + envs[e].name, env.status());
        return;
      }
      DigestSink sink;
      for (uint64_t k : limits) sink.checkpoints.insert(k);
      rcj::JoinStats stats;
      const rcj::Status s =
          env.value()->Run(Spec(env.value().get(), run_limit), &sink, &stats);
      if (!s.ok()) {
        Fail("ref " + envs[e].name, s);
        return;
      }
      std::string row = "\"" + envs[e].name + "\":{";
      for (size_t i = 0; i < limits.size(); ++i) {
        const uint64_t k = limits[i];
        const auto it = sink.prefixes.find(k);
        // A stream shorter than k is its own length-k prefix.
        const StreamDigest& d =
            (k == 0 || it == sink.prefixes.end()) ? sink.digest : it->second;
        row += (i ? "," : "") + std::string("\"") + std::to_string(k) +
               "\":" + DigestJson(d);
      }
      rows[e] = row + "}";
      ok[e] = 1;
    });
  }
  for (std::thread& t : threads) t.join();
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) return false;
  std::ofstream f(out);
  f << "{";
  for (size_t e = 0; e < rows.size(); ++e) f << (e ? "," : "") << rows[e];
  f << "}\n";
  return static_cast<bool>(f);
}

bool Replay(const EnvSpec& env, uint64_t mut_seed, uint64_t acked,
            const std::string& out) {
  rcj::Result<rcj::Dataset> q = rcj::LoadCsv(env.q_csv);
  rcj::Result<rcj::Dataset> p = rcj::LoadCsv(env.p_csv);
  if (!q.ok()) return Fail("replay", q.status());
  if (!p.ok()) return Fail("replay", p.status());
  std::vector<int64_t> q_ids, p_ids;
  for (const auto& r : q.value().points) q_ids.push_back(r.id);
  for (const auto& r : p.value().points) p_ids.push_back(r.id);
  auto live = rcj::LiveEnvironment::Create(q.value().points,
                                           p.value().points,
                                           rcj::LiveOptions{});
  if (!live.ok()) return Fail("replay", live.status());
  MutationStream stream(mut_seed, std::move(q_ids), std::move(p_ids));
  for (uint64_t i = 0; i < acked; ++i) {
    const Mutation m = stream.Next();
    const rcj::Status s = m.insert ? live.value()->Insert(m.side, m.rec)
                                   : live.value()->Delete(m.side, m.rec.id);
    if (!s.ok()) return Fail("replay op " + std::to_string(i), s);
  }
  // The full result set does not depend on where compactions fell; fold
  // everything so the check query runs on a plain base.
  const rcj::Status c = live.value()->Compact();
  if (!c.ok()) return Fail("replay compact", c);
  const rcj::LiveSnapshot snap = live.value()->TakeSnapshot();
  DigestSink sink;
  rcj::JoinStats stats;
  rcj::QuerySpec spec = snap.Spec();
  spec.algorithm = rcj::RcjAlgorithm::kObj;
  const rcj::Status s = snap.Run(spec, &sink, &stats);
  if (!s.ok()) return Fail("replay run", s);
  std::ofstream f(out);
  f << "{\"epoch\":" << live.value()->stats().epoch
    << ",\"final\":" << DigestJson(sink.digest) << "}\n";
  return static_cast<bool>(f);
}

bool Ladder(const LadderOptions& o) {
  std::map<std::string, std::unique_ptr<rcj::RcjEnvironment>> envs;
  for (const EnvSpec& spec : o.envs) {
    auto env = BuildEnv(spec, o.build);
    if (!env.ok()) return Fail("ladder " + spec.name, env.status());
    envs[spec.name] = std::move(env).value();
  }
  struct Sample {
    std::string env;
    uint64_t limit = 0;
    StreamDigest ref;
    rcj::JoinStats serial;
    rcj::JoinStats engine;
    double core_ms = 0, filter_ms = 0, engine_ms = 0, service_ms = 0,
           shard_ms = 0;
  };
  std::vector<Sample> samples;
  {
    std::ifstream in(o.queries);
    Sample s;
    while (in >> s.env >> s.limit) {
      if (envs.count(s.env) == 0) {
        std::fprintf(stderr, "ladder: unknown env '%s'\n", s.env.c_str());
        return false;
      }
      samples.push_back(s);
    }
  }
  size_t mismatches = 0;
  const auto check = [&](const Sample& s, const DigestSink& sink) {
    if (sink.digest.count != s.ref.count ||
        sink.digest.ordered != s.ref.ordered) {
      ++mismatches;
    }
  };

  // core: the serial runner, with and without the verification step. The
  // two alternate twice and each keeps its faster time, so a slow spell of
  // the host cannot make verification look free or negative.
  std::vector<rcj::RcjPair> kept;
  for (Sample& s : samples) {
    rcj::RcjEnvironment* env = envs[s.env].get();
    for (int round = 0; round < 2; ++round) {
      DigestSink sink;
      if (round == 0) {
        sink.keep = &kept;
        sink.keep_max = 4096;
      }
      Clock::time_point t0 = Clock::now();
      rcj::Status st = env->Run(Spec(env, s.limit), &sink, &s.serial);
      const double core_ms = MsSince(t0);
      if (!st.ok()) return Fail("ladder core", st);
      s.ref = sink.digest;
      DigestSink filter_sink;
      rcj::JoinStats filter_stats;
      t0 = Clock::now();
      st = env->Run(Spec(env, s.limit, false), &filter_sink, &filter_stats);
      const double filter_ms = MsSince(t0);
      if (!st.ok()) return Fail("ladder filter", st);
      s.core_ms = round == 0 ? core_ms : std::min(s.core_ms, core_ms);
      s.filter_ms = round == 0 ? filter_ms : std::min(s.filter_ms, filter_ms);
    }
  }
  // Engine and service run with the threads of one server shard, the same
  // engine the shard router builds below.
  const size_t shard_threads = std::max<size_t>(1, o.threads / o.shards);
  // engine: one parallel engine, as a server shard owns it.
  {
    rcj::EngineOptions eo;
    eo.num_threads = shard_threads;
    eo.worker_buffer_fraction = o.build.buffer_fraction;
    rcj::Engine engine(eo);
    for (Sample& s : samples) {
      DigestSink sink;
      const Clock::time_point t0 = Clock::now();
      const rcj::Status st =
          engine.Run(Spec(envs[s.env].get(), s.limit), &sink, &s.engine);
      s.engine_ms = MsSince(t0);
      if (!st.ok()) return Fail("ladder engine", st);
      check(s, sink);
    }
  }
  // service: Submit -> Wait through the async front end.
  {
    rcj::ServiceOptions so;
    so.engine.num_threads = shard_threads;
    so.engine.worker_buffer_fraction = o.build.buffer_fraction;
    rcj::Service service(so);
    for (Sample& s : samples) {
      DigestSink sink;
      const Clock::time_point t0 = Clock::now();
      rcj::QueryTicket ticket =
          service.Submit(Spec(envs[s.env].get(), s.limit), &sink);
      const rcj::Status st = ticket.Wait();
      s.service_ms = MsSince(t0);
      if (!st.ok()) return Fail("ladder service", st);
      check(s, sink);
    }
  }
  // shard: named environments, admission, per-shard services.
  {
    rcj::ShardRouterOptions ro;
    ro.num_shards = o.shards;
    ro.service.engine.num_threads = shard_threads;
    ro.service.engine.worker_buffer_fraction = o.build.buffer_fraction;
    rcj::ShardRouter router(ro);
    for (const auto& [name, env] : envs) {
      const rcj::Status st = router.RegisterEnvironment(name, env.get());
      if (!st.ok()) return Fail("ladder register", st);
    }
    for (Sample& s : samples) {
      DigestSink sink;
      rcj::QueryTicket ticket;
      const Clock::time_point t0 = Clock::now();
      rcj::Status st = router.Submit(s.env, Spec(nullptr, s.limit), &sink,
                                     &ticket);
      if (st.ok()) st = ticket.Wait();
      s.shard_ms = MsSince(t0);
      if (!st.ok()) return Fail("ladder shard", st);
      check(s, sink);
    }
  }

  // net: the parser over the workload's own request lines, the formatter
  // over the workload's own pairs.
  std::vector<std::string> lines;
  for (const Sample& s : samples) {
    lines.push_back(QueryLine(s.env, s.limit, false, ""));
  }
  rcj::net::WireRequest request;
  const double parse_s = TimePerCall(10000, [&](size_t i) {
    (void)rcj::net::ParseRequestLine(lines[i % lines.size()], &request);
  });
  size_t format_bytes = 0;
  const double format_s =
      kept.empty() ? 0.0 : TimePerCall(10000, [&](size_t i) {
        format_bytes += rcj::net::FormatPairLine(kept[i % kept.size()]).size();
      });

  // live: routed mutations on an identically built, journaled environment.
  std::vector<double> mut_ms;
  if (!o.live_env.name.empty()) {
    rcj::Result<rcj::Dataset> q = rcj::LoadCsv(o.live_env.q_csv);
    rcj::Result<rcj::Dataset> p = rcj::LoadCsv(o.live_env.p_csv);
    if (!q.ok()) return Fail("ladder live", q.status());
    if (!p.ok()) return Fail("ladder live", p.status());
    std::vector<int64_t> q_ids, p_ids;
    for (const auto& r : q.value().points) q_ids.push_back(r.id);
    for (const auto& r : p.value().points) p_ids.push_back(r.id);
    rcj::MutationLogOptions lo;
    lo.dir = o.wal_dir;
    lo.sync_interval_ms = o.wal_sync_ms;
    rcj::WalRecovery recovery;
    auto log = rcj::MutationLog::Open(lo, &recovery);
    if (!log.ok()) return Fail("ladder wal", log.status());
    rcj::LiveOptions live_options;
    live_options.build = o.build;
    live_options.compact_threshold = o.compact_threshold;
    auto live = rcj::LiveEnvironment::Create(q.value().points,
                                             p.value().points, live_options);
    if (!live.ok()) return Fail("ladder live", live.status());
    live.value()->AttachLog(std::move(log).value());
    rcj::ShardRouterOptions ro;
    ro.service.engine.num_threads = o.threads;
    rcj::ShardRouter router(ro);
    rcj::Status st = router.RegisterLiveEnvironment("default",
                                                    live.value().get());
    if (!st.ok()) return Fail("ladder live register", st);
    MutationStream stream(o.mut_seed, std::move(q_ids), std::move(p_ids));
    for (size_t i = 0; i < o.mut_count && st.ok(); ++i) {
      const Mutation m = stream.Next();
      const Clock::time_point t0 = Clock::now();
      st = m.insert ? router.Insert("default", m.side, m.rec)
                    : router.Delete("default", m.side, m.rec.id);
      mut_ms.push_back(MsSince(t0));
    }
    // Unwire the compactor's invalidation hook before the router's
    // services are destroyed under it.
    router.ReleaseEnvironment("default");
    if (!st.ok()) return Fail("ladder mutation", st);
  }

  std::ofstream f(o.out);
  f << "{\"threads\":" << o.threads << ",\"mismatches\":" << mismatches
    << ",\"parse_us\":" << Num(parse_s * 1e6)
    << ",\"format_pair_ns\":" << Num(format_s * 1e9)
    << ",\"format_bytes\":" << format_bytes << ",\"mut_ms\":[";
  for (size_t i = 0; i < mut_ms.size(); ++i) {
    f << (i ? "," : "") << Num(mut_ms[i]);
  }
  f << "],\"queries\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    f << (i ? "," : "") << "{\"env\":\"" << s.env << "\",\"limit\":"
      << s.limit << ",\"pairs\":" << s.ref.count
      << ",\"core_ms\":" << Num(s.core_ms)
      << ",\"filter_ms\":" << Num(s.filter_ms)
      << ",\"engine_ms\":" << Num(s.engine_ms)
      << ",\"service_ms\":" << Num(s.service_ms)
      << ",\"shard_ms\":" << Num(s.shard_ms)
      << ",\"candidates\":" << s.serial.candidates
      << ",\"results\":" << s.serial.results
      << ",\"node_accesses\":" << s.serial.node_accesses
      << ",\"engine_candidates\":" << s.engine.candidates << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
