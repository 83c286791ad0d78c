// Shared definitions of the end-to-end benchmark's native side: stream
// digests, the seeded request and mutation schedules, and environment
// specs. The load generator and the in-process reference/ladder both build
// their inputs from these functions, so a seed means the same requests on
// either side of the wire.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_overlay.h"
#include "core/rcj_types.h"
#include "geometry/point.h"

namespace perfbench {

uint64_t SplitMix64(uint64_t x);

/// Hash of one delivered pair over its ids and exact coordinate bits, so a
/// single flipped digit on the wire changes it.
uint64_t PairHash(int64_t p_id, int64_t q_id, double x1, double y1,
                  double x2, double y2);
uint64_t PairHash(const rcj::RcjPair& pair);

/// Running digests of a pair stream: `ordered` depends on delivery order,
/// `set_sum` only on the multiset of pairs.
struct StreamDigest {
  uint64_t ordered = 0x9e3779b97f4a7c15ULL;
  uint64_t set_sum = 0;
  uint64_t count = 0;

  void Add(uint64_t pair_hash) {
    ordered = SplitMix64(ordered ^ pair_hash);
    set_sum += pair_hash;
    ++count;
  }
};

std::string Hex(uint64_t value);

/// One named environment as the server registers it: `p_csv` empty means
/// a self-join over `q_csv`.
struct EnvSpec {
  std::string name;
  std::string q_csv;
  std::string p_csv;
};

/// Parses `name=q.csv:p.csv` or `name=q.csv:self`.
bool ParseEnvSpec(const std::string& text, EnvSpec* out);

/// One top-k request of an open-loop schedule.
struct TopkRequest {
  double due_s = 0.0;  ///< offset from the schedule start.
  size_t env = 0;      ///< index into the workload's environment list.
  uint64_t limit = 0;
};

/// Top-k arrivals per second of every open-loop schedule. At 20/s the waits
/// behind kLargeLimit requests compounded into every CPU-bound number.
constexpr double kTopkRate = 10.0;

/// The limits an open-loop schedule rotates through.
inline const std::vector<uint64_t> kSmallLimits{1, 10, 25, 50, 100};

/// The limit of an open-loop schedule's large minority.
constexpr uint64_t kLargeLimit = 10000;

/// Fixed-interval arrivals at kTopkRate per second for `seconds`: the small
/// limits in rotation plus a `large_share` minority of kLargeLimit, spread
/// evenly over the environments. The seed shuffles the order, not the
/// composition.
std::vector<TopkRequest> MakeTopkSchedule(uint64_t seed, double seconds,
                                          size_t num_envs, double large_share);

/// The QUERY line the load generator sends for one request.
std::string QueryLine(const std::string& env, uint64_t limit, bool trace,
                      const std::string& trace_id);

/// One INSERT or DELETE of the churn stream.
struct Mutation {
  bool insert = true;
  rcj::LiveSide side = rcj::LiveSide::kQ;
  rcj::PointRecord rec;
};

/// The seeded INSERT/DELETE mix over a live environment whose base holds
/// the given ids. Deletes name a base point not deleted before, inserts a
/// fresh id, so every op of the stream succeeds when applied in order.
class MutationStream {
 public:
  MutationStream(uint64_t seed, std::vector<int64_t> q_ids,
                 std::vector<int64_t> p_ids);

  Mutation Next();

 private:
  uint64_t state_;
  std::vector<int64_t> live_[2];
  int64_t next_id_ = 1000000000;
};

std::string MutationLine(const Mutation& m);

/// Reads the ids of a CSV point file.
bool LoadIds(const std::string& csv, std::vector<int64_t>* ids);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
