// The native load generator: one process, at most `--conns` (+1 for the
// churn mutation stream) threads and connections. Closed loop for the full
// join and the mutation stream, fixed-interval open loop for top-k traffic
// with latency timed from each request's due time. Every response is
// digested here; the verdicts are drawn by run.py against the in-process
// references.
#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "workload.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t, Clock::time_point t0) {
  return std::chrono::duration<double>(t - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

// One client connection with a line reader over a growable buffer.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  static std::unique_ptr<Connection> Dial(uint16_t port) {
    constexpr int kRecvTimeoutMs = 250;
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd);
      return nullptr;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{0, kRecvTimeoutMs * 1000};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return std::make_unique<Connection>(fd);
  }

  bool SendLine(const std::string& line) {
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one line without its '\n'. The view stays valid until the next
  // call. Returns false on EOF, error or the deadline, naming which.
  bool ReadLine(Clock::time_point deadline, std::string_view* line,
                const char** why) {
    for (;;) {
      const char* start = buf_.data() + begin_;
      const void* nl = std::memchr(start, '\n', end_ - begin_);
      if (nl != nullptr) {
        const size_t len = static_cast<const char*>(nl) - start;
        *line = std::string_view(start, len);
        begin_ += len + 1;
        return true;
      }
      if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      if (Clock::now() >= deadline) {
        *why = "timeout";
        return false;
      }
      // Blocking recv bounded by SO_RCVTIMEO (set at dial): one syscall
      // per chunk keeps the generator's own CPU small on long streams.
      const ssize_t got = recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
      if (got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      if (got <= 0) {
        *why = "io";
        return false;
      }
      end_ += static_cast<size_t>(got);
    }
  }

 private:
  int fd_;
  std::vector<char> buf_ = std::vector<char>(1 << 16);
  size_t begin_ = 0;
  size_t end_ = 0;
};

// Parses "PAIR p_id q_id x1 y1 x2 y2" strictly and hashes it.
bool HashPairLine(std::string_view line, uint64_t* hash) {
  if (line.size() < 6 || line.substr(0, 5) != "PAIR ") return false;
  const std::string text(line.substr(5));
  const char* p = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long p_id = std::strtoll(p, &end, 10);
  if (end == p || *end != ' ') return false;
  p = end + 1;
  const long long q_id = std::strtoll(p, &end, 10);
  if (end == p || *end != ' ') return false;
  double v[4];
  for (int i = 0; i < 4; ++i) {
    p = end + 1;
    v[i] = std::strtod(p, &end);
    if (end == p || *end != (i == 3 ? '\0' : ' ')) return false;
  }
  if (errno != 0) return false;
  *hash = PairHash(p_id, q_id, v[0], v[1], v[2], v[3]);
  return true;
}

struct QueryOutcome {
  double send_s = 0.0;
  double first_s = -1.0;
  double end_s = -1.0;
  std::string status = "ok";  // ok | err | timeout | io | malformed
  std::string detail;
  StreamDigest digest;
  std::string end_line;
  std::vector<std::string> trace;
};

QueryOutcome RunQuery(uint16_t port, const std::string& line, bool trace,
                      Clock::time_point t0, int timeout_ms) {
  QueryOutcome out;
  const Clock::time_point send = Clock::now();
  out.send_s = Seconds(send, t0);
  const Clock::time_point deadline =
      send + std::chrono::milliseconds(timeout_ms);
  std::unique_ptr<Connection> conn = Connection::Dial(port);
  if (conn == nullptr || !conn->SendLine(line)) {
    out.status = "io";
    out.detail = "dial/send failed";
    return out;
  }
  std::string_view got;
  const char* why = "";
  const auto fail = [&](const char* status, std::string_view detail) {
    out.status = status;
    out.detail = std::string(detail);
    return out;
  };
  if (!conn->ReadLine(deadline, &got, &why)) return fail(why, "before OK");
  if (got != "OK") return fail("err", got);
  for (;;) {
    if (!conn->ReadLine(deadline, &got, &why)) return fail(why, "mid-stream");
    uint64_t hash = 0;
    if (got.substr(0, 5) == "PAIR ") {
      if (!HashPairLine(got, &hash)) return fail("malformed", got);
      if (out.first_s < 0) out.first_s = Seconds(Clock::now(), t0);
      out.digest.Add(hash);
    } else if (got.substr(0, 4) == "END ") {
      out.end_s = Seconds(Clock::now(), t0);
      out.end_line = std::string(got);
      break;
    } else if (got.substr(0, 4) == "ERR ") {
      return fail("err", got);
    } else {
      return fail("malformed", got);
    }
  }
  if (trace) {
    for (;;) {
      if (!conn->ReadLine(deadline, &got, &why)) return fail(why, "in trace");
      out.trace.emplace_back(got);
      if (got.substr(0, 9) == "ENDTRACE ") break;
    }
  }
  return out;
}

std::string QueryRecord(size_t index, const std::string& env, uint64_t limit,
                        double due_s, double late_s, bool warmup,
                        const QueryOutcome& q) {
  std::string r = "{\"kind\":\"query\",\"i\":" + std::to_string(index) +
                  ",\"env\":" + JsonString(env) +
                  ",\"limit\":" + std::to_string(limit) +
                  ",\"due\":" + Num(due_s) + ",\"late\":" + Num(late_s) +
                  ",\"send\":" + Num(q.send_s) + ",\"first\":" +
                  Num(q.first_s) + ",\"end\":" + Num(q.end_s) +
                  ",\"warmup\":" + (warmup ? "true" : "false") +
                  ",\"status\":" + JsonString(q.status) +
                  ",\"detail\":" + JsonString(q.detail) +
                  ",\"pairs\":" + std::to_string(q.digest.count) +
                  ",\"digest\":\"" + Hex(q.digest.ordered) +
                  "\",\"set\":\"" + Hex(q.digest.set_sum) +
                  "\",\"end_line\":" + JsonString(q.end_line) +
                  ",\"trace\":[";
  for (size_t i = 0; i < q.trace.size(); ++i) {
    if (i > 0) r += ",";
    r += JsonString(q.trace[i]);
  }
  return r + "]}";
}

class RecordLog {
 public:
  void Add(std::string record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }
  bool Write(const std::string& path) {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& r : records_) out << r << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> records_;
};

// Fixed-interval open loop over `schedule`, `conns` workers. A worker picks
// the next request, sleeps to its due time, and sends; a request whose due
// time passed while every worker was busy is sent at once and timed from
// its due time all the same. `late` is the generator's own tardiness: send
// time minus the later of due time and pickup time.
void OpenLoop(const LoadOptions& o, const std::vector<TopkRequest>& schedule,
              Clock::time_point t0, RecordLog* log) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < o.conns; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const TopkRequest& req = schedule[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(req.due_s));
        const Clock::time_point pickup = Clock::now();
        if (pickup < due) std::this_thread::sleep_until(due);
        const std::string& env = o.envs[req.env];
        const std::string id = "b" + std::to_string(i);
        const QueryOutcome q =
            RunQuery(o.port, QueryLine(env, req.limit, o.trace, id), o.trace,
                     t0, o.timeout_ms);
        const double late = q.send_s - Seconds(std::max(due, pickup), t0);
        log->Add(QueryRecord(i, env, req.limit, req.due_s, late, false, q));
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

// Closed-loop mutation stream over one batch connection: each op waits for
// its OK + MUT acknowledgement before the next is sent. Stops at the end of
// the window or at the first failed op (the replay then stops there too).
void MutationLoop(const LoadOptions& o, Clock::time_point t0,
                  Clock::time_point stop, RecordLog* log) {
  std::vector<int64_t> q_ids;
  std::vector<int64_t> p_ids;
  if (!LoadIds(o.mut_q_csv, &q_ids) || !LoadIds(o.mut_p_csv, &p_ids)) {
    log->Add("{\"kind\":\"mut\",\"i\":0,\"status\":\"io\",\"detail\":"
             "\"cannot read base ids\",\"send\":0,\"end\":-1}");
    return;
  }
  MutationStream stream(o.mut_seed, std::move(q_ids), std::move(p_ids));
  std::unique_ptr<Connection> conn = Connection::Dial(o.port);
  for (uint64_t i = 0; Clock::now() < stop; ++i) {
    const Mutation m = stream.Next();
    const Clock::time_point send = Clock::now();
    const Clock::time_point deadline =
        send + std::chrono::milliseconds(o.timeout_ms);
    std::string status = "ok";
    std::string detail;
    std::string_view got;
    const char* why = "";
    if (conn == nullptr || !conn->SendLine(MutationLine(m))) {
      status = "io";
      detail = "dial/send failed";
    } else if (!conn->ReadLine(deadline, &got, &why)) {
      status = why;
      detail = "before OK";
    } else if (got != "OK") {
      status = "err";
      detail = std::string(got);
    } else if (!conn->ReadLine(deadline, &got, &why)) {
      status = why;
      detail = "before MUT";
    } else {
      detail = std::string(got);
      // The environment starts at epoch 0, so op i must ack epoch i + 1.
      const std::string want = " epoch=" + std::to_string(i + 1) + " ";
      if (got.substr(0, 4) != "MUT " || detail.find(want) == std::string::npos) {
        status = "malformed";
      }
    }
    const double end_s = Seconds(Clock::now(), t0);
    log->Add("{\"kind\":\"mut\",\"i\":" + std::to_string(i) + ",\"op\":\"" +
             (m.insert ? "insert" : "delete") + "\",\"send\":" +
             Num(Seconds(send, t0)) + ",\"end\":" + Num(end_s) +
             ",\"status\":" + JsonString(status) +
             ",\"detail\":" + JsonString(detail) + "}");
    if (status != "ok") return;
  }
}

}  // namespace

int RunLoad(const LoadOptions& o) {
  RecordLog log;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuSeconds();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(o.seconds));
  if (o.mode == "closed") {
    const std::string& env = o.envs.front();
    const size_t warmups = o.max_queries == 0 ? 1 : 0;
    for (size_t i = 0;; ++i) {
      const bool warmup = i < warmups;
      if (!warmup && o.max_queries != 0 && i >= o.max_queries) break;
      if (!warmup && o.max_queries == 0 && Clock::now() >= stop) break;
      const QueryOutcome q =
          RunQuery(o.port, QueryLine(env, 0, o.trace, "b" + std::to_string(i)),
                   o.trace, t0, o.timeout_ms);
      log.Add(QueryRecord(i, env, 0, q.send_s, 0.0, warmup, q));
      if (q.status != "ok") break;
    }
  } else {
    const std::vector<TopkRequest> schedule =
        MakeTopkSchedule(o.seed, o.seconds, o.envs.size(), o.large_share);
    std::thread mutations;
    if (o.mode == "churn") {
      mutations = std::thread([&] { MutationLoop(o, t0, stop, &log); });
    }
    OpenLoop(o, schedule, t0, &log);
    if (mutations.joinable()) mutations.join();
  }
  const double wall = Seconds(Clock::now(), t0);
  log.Add("{\"kind\":\"summary\",\"wall_s\":" + Num(wall) +
          ",\"cpu_s\":" + Num(CpuSeconds() - cpu0) + "}");
  if (!log.Write(o.out)) {
    std::fprintf(stderr, "load: cannot write %s\n", o.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
