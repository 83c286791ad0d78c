// rcjbench: the native half of the end-to-end benchmark (run.py drives it).
//
//   rcjbench gen    --dir D --file NAME=KIND:N:SEED ...
//   rcjbench ref    --env NAME=Q.csv:P.csv|self ... --full 0|1
//                   [--storage mem|file --storage-dir D] --out F
//   rcjbench replay --env NAME=Q.csv:P.csv --mut-seed S --acked N --out F
//   rcjbench ladder --env ... --queries F --threads T --shards S
//                   [--storage ...] [--live-env ... --wal-dir D
//                   --wal-sync-ms M --compact-threshold N --mut-seed S
//                   --mut-count N] --out F
//   rcjbench load   --mode closed|open|churn --port P --envs a,b,...
//                   --seconds S --seed N [--trace 0|1] [--timeout-ms MS]
//                   [--max-queries M]
//                   [--conns C --large-share F]
//                   [--mut-seed S --mut-q Q.csv --mut-p P.csv] --out F
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "inproc.h"
#include "loadgen.h"
#include "workload.h"

namespace {

using Flags = std::multimap<std::string, std::string>;

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "rcjbench: unexpected argument '%s'\n", argv[i]);
      std::exit(2);
    }
    flags.emplace(key.substr(2), argv[i + 1]);
  }
  return flags;
}

std::string Get(const Flags& f, const std::string& key,
                const std::string& def = "") {
  const auto it = f.find(key);
  return it == f.end() ? def : it->second;
}

std::vector<std::string> All(const Flags& f, const std::string& key) {
  std::vector<std::string> out;
  for (auto [it, end] = f.equal_range(key); it != end; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<std::string> Split(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, ',');) out.push_back(part);
  return out;
}

bool Envs(const Flags& f, const std::string& key,
          std::vector<perfbench::EnvSpec>* out) {
  for (const std::string& text : All(f, key)) {
    perfbench::EnvSpec spec;
    if (!perfbench::ParseEnvSpec(text, &spec)) {
      std::fprintf(stderr, "rcjbench: bad --%s '%s'\n", key.c_str(),
                   text.c_str());
      return false;
    }
    out->push_back(spec);
  }
  return true;
}

rcj::RcjRunOptions BuildOptions(const Flags& f) {
  rcj::RcjRunOptions options;
  const std::string storage = Get(f, "storage", "mem");
  if (storage != "mem") {
    options.storage = storage == "mmap" ? rcj::StorageBackend::kMmap
                                        : rcj::StorageBackend::kFile;
    options.storage_dir = Get(f, "storage-dir", ".");
  }
  return options;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rcjbench gen|ref|replay|ladder|load ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags f = ParseFlags(argc, argv);
  const std::string out = Get(f, "out");
  if (cmd == "gen") {
    return perfbench::Generate(Get(f, "dir"), All(f, "file")) ? 0 : 1;
  }
  std::vector<perfbench::EnvSpec> envs;
  if (!Envs(f, "env", &envs)) return 2;
  if (cmd == "ref") {
    // The full join, or every limit an open-loop schedule sends.
    std::vector<uint64_t> limits{0};
    if (Get(f, "full", "0") != "1") {
      limits = perfbench::kSmallLimits;
      limits.push_back(perfbench::kLargeLimit);
    }
    return perfbench::Reference(envs, BuildOptions(f), limits, out) ? 0 : 1;
  }
  if (cmd == "replay") {
    if (envs.size() != 1) return 2;
    return perfbench::Replay(envs[0], std::stoull(Get(f, "mut-seed", "1")),
                             std::stoull(Get(f, "acked", "0")), out)
               ? 0
               : 1;
  }
  if (cmd == "ladder") {
    perfbench::LadderOptions o;
    o.envs = envs;
    o.build = BuildOptions(f);
    o.threads = std::stoull(Get(f, "threads", "1"));
    o.shards = std::stoull(Get(f, "shards", "1"));
    o.queries = Get(f, "queries");
    o.out = out;
    std::vector<perfbench::EnvSpec> live;
    if (!Envs(f, "live-env", &live)) return 2;
    if (!live.empty()) {
      o.live_env = live[0];
      o.wal_dir = Get(f, "wal-dir");
      o.wal_sync_ms = std::stoi(Get(f, "wal-sync-ms", "0"));
      o.compact_threshold = std::stoull(Get(f, "compact-threshold", "0"));
      o.mut_seed = std::stoull(Get(f, "mut-seed", "1"));
      o.mut_count = std::stoull(Get(f, "mut-count", "0"));
    }
    return perfbench::Ladder(o) ? 0 : 1;
  }
  if (cmd == "load") {
    perfbench::LoadOptions o;
    o.mode = Get(f, "mode", "closed");
    o.port = static_cast<uint16_t>(std::stoul(Get(f, "port", "0")));
    o.envs = Split(Get(f, "envs", "default"));
    o.seconds = std::stod(Get(f, "seconds", "10"));
    o.seed = std::stoull(Get(f, "seed", "1"));
    o.trace = Get(f, "trace", "0") == "1";
    o.timeout_ms = std::stoi(Get(f, "timeout-ms", "30000"));
    o.out = out;
    o.max_queries = std::stoull(Get(f, "max-queries", "0"));
    o.conns = std::stoull(Get(f, "conns", "1"));
    o.large_share = std::stod(Get(f, "large-share", "0"));
    o.mut_seed = std::stoull(Get(f, "mut-seed", "1"));
    o.mut_q_csv = Get(f, "mut-q");
    o.mut_p_csv = Get(f, "mut-p");
    if (o.port == 0 || o.out.empty() || o.envs.empty() || o.conns == 0) {
      std::fprintf(stderr, "load: --port, --out and --envs are required\n");
      return 2;
    }
    return perfbench::RunLoad(o);
  }
  std::fprintf(stderr, "rcjbench: unknown command '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcjbench: %s\n", e.what());
    return 2;
  }
}
