#include "workload.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "workload/dataset.h"

namespace perfbench {

namespace {

// Uniform double in [0, 1) from the top 53 bits.
double Unit(uint64_t* state) {
  *state = SplitMix64(*state);
  return static_cast<double>(*state >> 11) * 0x1.0p-53;
}

uint64_t Below(uint64_t* state, uint64_t n) {
  *state = SplitMix64(*state);
  return *state % n;
}

// n values in [0, k): each consecutive block of k is a shuffled 0..k-1.
std::vector<size_t> Balanced(size_t n, size_t k, uint64_t* state) {
  std::vector<size_t> out;
  while (out.size() < n) {
    std::vector<size_t> block(k);
    for (size_t i = 0; i < k; ++i) block[i] = i;
    for (size_t i = k; i > 1; --i) {
      std::swap(block[i - 1], block[Below(state, i)]);
    }
    for (size_t v : block) {
      if (out.size() < n) out.push_back(v);
    }
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t PairHash(int64_t p_id, int64_t q_id, double x1, double y1,
                  double x2, double y2) {
  uint64_t h = SplitMix64(static_cast<uint64_t>(p_id));
  h = SplitMix64(h ^ static_cast<uint64_t>(q_id));
  h = SplitMix64(h ^ Bits(x1));
  h = SplitMix64(h ^ Bits(y1));
  h = SplitMix64(h ^ Bits(x2));
  return SplitMix64(h ^ Bits(y2));
}

uint64_t PairHash(const rcj::RcjPair& pair) {
  return PairHash(pair.p.id, pair.q.id, pair.p.pt.x, pair.p.pt.y,
                  pair.q.pt.x, pair.q.pt.y);
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

bool ParseEnvSpec(const std::string& text, EnvSpec* out) {
  const size_t eq = text.find('=');
  const size_t colon = text.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
    return false;
  }
  out->name = text.substr(0, eq);
  out->q_csv = text.substr(eq + 1, colon - eq - 1);
  out->p_csv = text.substr(colon + 1);
  if (out->p_csv == "self") out->p_csv.clear();
  return !out->name.empty() && !out->q_csv.empty();
}

std::vector<TopkRequest> MakeTopkSchedule(uint64_t seed, double seconds,
                                          size_t num_envs, double large_share) {
  // Balanced mix: every block of num_envs requests visits each environment
  // once, every block of small requests uses each small limit once, and
  // the large requests rotate over the environments the same way. The seed
  // only shuffles the order inside blocks and slices, so every seed offers
  // the same composition.
  uint64_t state = SplitMix64(seed ^ 0x70706b5f73636864ULL);
  const size_t n = static_cast<size_t>(kTopkRate * seconds);
  const std::vector<size_t> env = Balanced(n, num_envs, &state);
  const std::vector<size_t> small = Balanced(n, kSmallLimits.size(), &state);
  // The large count is a multiple of num_envs, so every environment gets
  // the same number of large requests; one lands in each equal slice of
  // the schedule.
  const size_t num_large =
      static_cast<size_t>(static_cast<double>(n) * large_share /
                              static_cast<double>(num_envs) + 0.5) *
      num_envs;
  std::vector<bool> large(n, false);
  for (size_t j = 0; j < num_large; ++j) {
    const size_t begin = j * n / num_large;
    const size_t end = (j + 1) * n / num_large;
    large[begin + Below(&state, end - begin)] = true;
  }
  const std::vector<size_t> large_env = Balanced(num_large, num_envs, &state);
  std::vector<TopkRequest> schedule(n);
  for (size_t i = 0, j = 0, k = 0; i < n; ++i) {
    TopkRequest& r = schedule[i];
    r.due_s = static_cast<double>(i) / kTopkRate;
    if (large[i]) {
      r.env = large_env[j++];
      r.limit = kLargeLimit;
    } else {
      r.env = env[i];
      r.limit = kSmallLimits[small[k++]];
    }
  }
  return schedule;
}

std::string QueryLine(const std::string& env, uint64_t limit, bool trace,
                      const std::string& trace_id) {
  std::string line = "QUERY env=" + env + " algo=obj";
  if (limit != 0) line += " limit=" + std::to_string(limit);
  if (trace) line += " trace=1 trace_id=" + trace_id;
  return line;
}

MutationStream::MutationStream(uint64_t seed, std::vector<int64_t> q_ids,
                               std::vector<int64_t> p_ids)
    : state_(SplitMix64(seed ^ 0x6d75745f73747265ULL)) {
  live_[0] = std::move(q_ids);
  live_[1] = std::move(p_ids);
}

Mutation MutationStream::Next() {
  Mutation m;
  const int side = static_cast<int>(Below(&state_, 2));
  m.side = side == 0 ? rcj::LiveSide::kQ : rcj::LiveSide::kP;
  std::vector<int64_t>& live = live_[side];
  // 60% inserts keeps the environment growing slowly. Deletes name base
  // points only, so every op adds exactly one pending mutation and the
  // number of compactions a run triggers depends on its op count alone.
  m.insert = live.empty() || Unit(&state_) < 0.6;
  if (m.insert) {
    m.rec.id = next_id_++;
    m.rec.pt.x = Unit(&state_) * 10000.0;
    m.rec.pt.y = Unit(&state_) * 10000.0;
  } else {
    const size_t pick = static_cast<size_t>(Below(&state_, live.size()));
    m.rec.id = live[pick];
    live[pick] = live.back();
    live.pop_back();
  }
  return m;
}

std::string MutationLine(const Mutation& m) {
  const char* side = m.side == rcj::LiveSide::kQ ? "q" : "p";
  char buf[160];
  if (m.insert) {
    std::snprintf(buf, sizeof buf, "INSERT side=%s id=%" PRId64
                  " x=%.17g y=%.17g",
                  side, m.rec.id, m.rec.pt.x, m.rec.pt.y);
  } else {
    std::snprintf(buf, sizeof buf, "DELETE side=%s id=%" PRId64, side,
                  m.rec.id);
  }
  return buf;
}

bool LoadIds(const std::string& csv, std::vector<int64_t>* ids) {
  rcj::Result<rcj::Dataset> data = rcj::LoadCsv(csv);
  if (!data.ok()) return false;
  ids->clear();
  for (const rcj::PointRecord& rec : data.value().points) {
    ids->push_back(rec.id);
  }
  return true;
}

}  // namespace perfbench
