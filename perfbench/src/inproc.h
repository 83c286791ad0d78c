#ifndef PERFBENCH_INPROC_H_
#define PERFBENCH_INPROC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.h"
#include "workload.h"

namespace perfbench {

/// Writes each `NAME=KIND:N:SEED` point file into `dir`.
bool Generate(const std::string& dir, const std::vector<std::string>& files);

/// Serial reference digests of every environment at every limit (0 = the
/// full join), written as JSON {env: {limit: {pairs, digest, set}}}.
bool Reference(const std::vector<EnvSpec>& envs,
               const rcj::RcjRunOptions& options,
               const std::vector<uint64_t>& limits, const std::string& out);

/// Applies the first `acked` ops of the seeded mutation stream to a live
/// environment built from `env`, then digests its full snapshot join.
bool Replay(const EnvSpec& env, uint64_t mut_seed, uint64_t acked,
            const std::string& out);

struct LadderOptions {
  std::vector<EnvSpec> envs;
  rcj::RcjRunOptions build;
  size_t threads = 1;
  size_t shards = 1;
  std::string queries;  ///< file of "env limit" lines
  std::string out;
  // churn: routed mutations on a journaled live environment
  EnvSpec live_env;
  std::string wal_dir;
  int wal_sync_ms = 0;
  size_t compact_threshold = 0;
  uint64_t mut_seed = 1;
  size_t mut_count = 0;
};

/// Times each sampled query at every public entry point, micro-times the
/// wire parser and pair formatter, and (for churn) routed mutations.
bool Ladder(const LadderOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_INPROC_H_
