#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LoadOptions {
  std::string mode = "closed";  ///< closed | open | churn
  uint16_t port = 0;
  std::vector<std::string> envs{"default"};
  double seconds = 10.0;
  uint64_t seed = 1;
  bool trace = false;
  int timeout_ms = 30000;
  std::string out;
  // closed loop: sequential full joins on envs[0]; a timed loop starts with
  // one untimed warm-up join
  size_t max_queries = 0;  ///< 0 = until `seconds` elapsed
  // open loop (open, churn), at kTopkRate requests per second
  size_t conns = 1;
  double large_share = 0.0;
  // churn: the mutation stream's seed and its base environment's ids
  uint64_t mut_seed = 1;
  std::string mut_q_csv;
  std::string mut_p_csv;
};

/// Runs the load and writes one JSON record per operation to `out`, then a
/// summary record with the generator's wall and CPU seconds.
int RunLoad(const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
