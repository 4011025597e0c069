// dasm-probe — the benchmark's in-process helper (perfbench/run.py drives
// it). It calls the same public functions the `dasm` binary calls, one
// layer at a time, and records a span around each call:
//
//   dasm-probe fingerprint
//       Build facts compiled into this binary (build type, flags,
//       compiler, sanitizers) as one JSON line.
//   dasm-probe solve --in F --threads T --alt-threads A --eps E --seed S
//                    --ref-out M [--spans S.jsonl]
//                    [--family complete|bounded --n N --d D --gen-seed G]
//       With --family: generates the instance and writes it to F (the
//       set-up layers). Then the solve `dasm run --algo asm` performs:
//       load, engine set-up, protocol, certification, matching output —
//       the output is the reference matching the CLI's must equal byte for
//       byte — and the protocol again at A threads, which must give the
//       same matching and counts. With --spans, three measurement-only
//       passes follow: the same solve untraced (the tracing overhead), the
//       Instance constructor on the loaded rankings, and engine set-up +
//       protocol at A threads (parallel speedup).
//   dasm-probe load --port P --schedule F --conns K --recv-prefix R
//                   --lat-out L [--scrape-prefix S]
//       Open-loop load generator: one busy-polling thread, K connections,
//       each scheduled line sent at its time; records every received byte per
//       connection and each request's latency from its scheduled send time.
//       With --scrape-prefix, GET /metrics before the first request, every
//       second, and after the last response.
//   dasm-probe replay --preload P --threads T --conn SENT RECV [...]
//                     [--spans S.jsonl]
//       Direct MatchService replay of each connection's own request
//       sequence; compares the bytes the server sent with the replay's.
//       With --spans also times the framing, parsing and hit paths.
//
// Every subcommand prints its result as the last line of stdout (one JSON
// object) and exits nonzero on an error.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "net/wire.hpp"
#include "stable/blocking.hpp"
#include "stable/io.hpp"
#include "stable/metrics.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace dasm;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSONL when the subcommand ends.

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::int64_t req = -1;
  };

  /// A disabled tracer records nothing and never reads the clock.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }

  int begin(const char* name, int parent = -1, std::int64_t req = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, req});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end - s.start) * 1e-9;
  }
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream os(path);
    DASM_CHECK_MSG(os.good(), "cannot open '" << path << "'");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
         << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}\n";
    }
    DASM_CHECK_MSG(os.good(), "write to '" << path << "' failed");
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Heap bytes in use (small-block arena + mmapped chunks).
std::int64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DASM_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// fingerprint

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

int cmd_fingerprint() {
  bool sanitized = std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
                   std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"cxx_flags\":\"" << PERFBENCH_CXX_FLAGS
            << "\",\"compiler\":\"" << __VERSION__
            << "\",\"optimized\":" << (optimized ? "true" : "false")
            << ",\"ndebug\":" << (ndebug ? "true" : "false")
            << ",\"sanitized\":" << (sanitized ? "true" : "false") << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// solve

Instance generate(const std::string& family, NodeId n, NodeId d,
                  std::uint64_t seed) {
  if (family == "complete") return gen::complete_uniform(n, seed);
  DASM_CHECK_MSG(family == "bounded", "unknown family '" << family << "'");
  return gen::bounded_degree(n, d, seed);
}

std::vector<Ranking> rankings(const Instance& inst, bool men) {
  const NodeId count = men ? inst.n_men() : inst.n_women();
  std::vector<Ranking> out(static_cast<std::size_t>(count));
  for (NodeId v = 0; v < count; ++v) {
    const PreferenceList& p = men ? inst.man_pref(v) : inst.woman_pref(v);
    Ranking& r = out[static_cast<std::size_t>(v)];
    r.reserve(static_cast<std::size_t>(p.degree()));
    for (NodeId k = 0; k < p.degree(); ++k) r.push_back(p.at_rank(k));
  }
  return out;
}

core::AsmParams asm_params(double eps, std::uint64_t seed, int threads) {
  core::AsmParams params;
  params.epsilon = eps;
  params.seed = seed;
  params.threads = threads;
  return params;
}

struct Solved {
  Instance inst;
  core::AsmResult result;
  std::int64_t instance_bytes = 0;  ///< heap growth of the load
  std::int64_t engine_bytes = 0;    ///< heap growth of the engine set-up
  std::int64_t matched = 0;         ///< validate_matching
  std::int64_t metrics_matched = 0; ///< compute_metrics
  std::int64_t blocking = 0;        ///< count_blocking_pairs
  bool almost_stable = false;       ///< is_almost_stable
};

/// The solve `dasm run --algo asm` performs, in its order, with a span
/// around each layer under one "solve" span; the matching goes to `out`.
Solved solve(Tracer& tr, const std::string& in, const std::string& out,
             const core::AsmParams& params) {
  const std::int64_t heap0 = heap_in_use();
  const int root = tr.begin("solve");
  int s = tr.begin("stable.io.load_instance", root);
  Instance inst = load_instance_file(in);
  tr.end(s);
  const std::int64_t heap1 = heap_in_use();
  s = tr.begin("core.engine_setup", root);
  auto engine = std::make_unique<core::AsmEngine>(inst, params);
  tr.end(s);
  const std::int64_t heap2 = heap_in_use();
  s = tr.begin("core.protocol", root);
  core::AsmResult r = engine->run();
  tr.end(s);
  s = tr.begin("core.engine_teardown", root);
  engine.reset();
  tr.end(s);
  s = tr.begin("stable.certify", root);
  const std::int64_t matched = validate_matching(inst, r.matching);
  const MatchingMetrics metrics = compute_metrics(inst, r.matching);
  const std::int64_t blocking = count_blocking_pairs(inst, r.matching);
  const bool almost = is_almost_stable(inst, r.matching, params.epsilon);
  tr.end(s);
  s = tr.begin("stable.io.save_matching", root);
  {
    std::ofstream os(out);
    DASM_CHECK_MSG(os.good(), "cannot open '" << out << "'");
    save_matching(os, inst, r.matching);
  }
  tr.end(s);
  tr.end(root);
  return {std::move(inst), std::move(r), heap1 - heap0, heap2 - heap1,
          matched, metrics.matched_pairs, blocking, almost};
}

int cmd_solve(const Cli& cli) {
  const std::string in = cli.get("in", "");
  const std::string ref_out = cli.get("ref-out", "");
  DASM_CHECK_MSG(!in.empty() && !ref_out.empty(), "solve needs --in and --ref-out");
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const int alt_threads = static_cast<int>(cli.get_int("alt-threads", 0));
  DASM_CHECK_MSG(alt_threads >= 1, "solve needs --alt-threads");
  const double eps = cli.get_double("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string spans_path = cli.get("spans", "");
  Tracer tr(!spans_path.empty());

  const std::string family = cli.get("family", "");
  if (!family.empty()) {
    const int setup = tr.begin("setup");
    int s = tr.begin("gen.generate", setup);
    const Instance generated =
        generate(family, static_cast<NodeId>(cli.get_int("n", 0)),
                 static_cast<NodeId>(cli.get_int("d", 8)),
                 static_cast<std::uint64_t>(cli.get_int("gen-seed", 1)));
    tr.end(s);
    s = tr.begin("stable.io.save_instance", setup);
    save_instance_file(in, generated);
    tr.end(s);
    tr.end(setup);
  }

  const Solved sv = solve(tr, in, ref_out, asm_params(eps, seed, threads));
  const Instance& inst = sv.inst;
  const core::AsmResult& r = sv.result;

  // Measurement-only passes.
  double untraced_s = 0.0;
  if (!spans_path.empty()) {
    Tracer off(false);
    const std::int64_t t0 = now_ns();
    solve(off, in, ref_out, asm_params(eps, seed, threads));
    untraced_s = static_cast<double>(now_ns() - t0) * 1e-9;

    std::vector<Ranking> men = rankings(inst, true);
    std::vector<Ranking> women = rankings(inst, false);
    const int s = tr.begin("stable.instance_build");
    const Instance rebuilt(std::move(men), std::move(women));
    tr.end(s);
    DASM_CHECK(rebuilt.edge_count() == inst.edge_count());
  }

  // The protocol at the alternative thread count: the gate that the result
  // does not depend on the thread count, and par.engine_speedup.
  const int alt = tr.begin("par.alt_threads");
  int s = tr.begin("core.engine_setup", alt);
  core::AsmEngine alt_engine(inst, asm_params(eps, seed, alt_threads));
  tr.end(s);
  s = tr.begin("core.protocol", alt);
  const core::AsmResult ar = alt_engine.run();
  tr.end(s);
  tr.end(alt);
  bool alt_identical = ar.net.executed_rounds == r.net.executed_rounds &&
                       ar.net.messages == r.net.messages &&
                       ar.net.bits == r.net.bits &&
                       ar.matching.size() == r.matching.size();
  for (NodeId m = 0; alt_identical && m < inst.n_men(); ++m) {
    alt_identical = ar.matching.partner_of(m) == r.matching.partner_of(m);
  }
  tr.write(spans_path);

  std::cout << "{\"edges\":" << inst.edge_count()
            << ",\"rounds\":" << r.net.executed_rounds
            << ",\"messages\":" << r.net.messages << ",\"bits\":" << r.net.bits
            << ",\"mm_rounds\":" << r.mm_rounds_executed
            << ",\"matched\":" << sv.matched
            << ",\"metrics_matched\":" << sv.metrics_matched
            << ",\"blocking\":" << sv.blocking
            << ",\"almost_stable\":" << (sv.almost_stable ? "true" : "false")
            << ",\"alt_identical\":" << (alt_identical ? "true" : "false")
            << ",\"instance_bytes\":" << sv.instance_bytes
            << ",\"engine_bytes\":" << sv.engine_bytes
            << ",\"untraced_s\":" << untraced_s << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// load: open-loop load generator

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DASM_CHECK_MSG(fd >= 0, "socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  DASM_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "connect to port " << port << " failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking GET /metrics; returns the body, and the wall time in *ms.
std::string scrape(int port, double* ms) {
  const std::int64_t t0 = now_ns();
  const int fd = connect_to(port);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  DASM_CHECK(::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
             static_cast<ssize_t>(req.size()));
  std::string body;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  *ms = static_cast<double>(now_ns() - t0) * 1e-6;
  return body;
}

struct Scheduled {
  std::int64_t t_ns = 0;  ///< offset from the step start
  int conn = 0;
  bool request = false;   ///< request line (vs instance registration)
  std::string line;       ///< with trailing '\n'
};

std::vector<Scheduled> load_schedule(const std::string& path) {
  std::ifstream is(path);
  DASM_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  std::vector<Scheduled> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find(' ');
    const std::size_t b = line.find(' ', a + 1);
    DASM_CHECK_MSG(a != std::string::npos && b != std::string::npos,
                   "bad schedule line '" << line << "'");
    Scheduled s;
    s.t_ns = std::stoll(line.substr(0, a)) * 1000;
    s.conn = std::stoi(line.substr(a + 1, b - a - 1));
    s.line = line.substr(b + 1) + "\n";
    s.request = s.line.rfind("request ", 0) == 0;
    out.push_back(std::move(s));
  }
  return out;
}

struct LoadConn {
  int fd = -1;
  std::string out;           ///< bytes due but not yet accepted by send()
  std::size_t out_pos = 0;
  std::string in;            ///< partial line
  std::string received;      ///< every byte read
  std::vector<std::int64_t> sched_ns;  ///< per request seq: scheduled time
  std::vector<std::int64_t> lat_ns;    ///< per request seq: -1 until answered
  std::vector<std::int64_t> late_ns;   ///< per request seq: send - schedule
  std::int64_t answered = 0;
  std::int64_t pending_register_ns = -1;  ///< live registration awaiting a reply
  std::vector<double> register_ms;
  std::int64_t err_lines = 0;
  bool eof = false;
};

void flush_conn(LoadConn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n <= 0) break;
    c.out_pos += static_cast<std::size_t>(n);
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
}

/// Reads what is available; returns false on EOF/error.
bool read_conn(LoadConn& c, std::int64_t t0) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    const std::int64_t t = now_ns() - t0;
    c.received.append(buf, static_cast<std::size_t>(n));
    c.in.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = c.in.find('\n', pos);
      if (nl == std::string::npos) break;
      if (c.in.compare(pos, 2, "r ") == 0) {
        const std::int64_t seq = std::strtoll(c.in.c_str() + pos + 2, nullptr, 10);
        if (seq >= 0 && seq < static_cast<std::int64_t>(c.lat_ns.size()) &&
            c.lat_ns[static_cast<std::size_t>(seq)] < 0) {
          c.lat_ns[static_cast<std::size_t>(seq)] =
              t - c.sched_ns[static_cast<std::size_t>(seq)];
          ++c.answered;
        }
        if (c.pending_register_ns >= 0) {
          c.register_ms.push_back(static_cast<double>(t - c.pending_register_ns) * 1e-6);
          c.pending_register_ns = -1;
        }
      } else if (c.in.compare(pos, 4, "ERR ") == 0) {
        ++c.err_lines;
      }
      pos = nl + 1;
    }
    c.in.erase(0, pos);
  }
}

int cmd_load(const Cli& cli) {
  constexpr std::int64_t kScrapeEveryNs = 1000000000;
  constexpr std::int64_t kDrainNs = 10000000000;  // wait for answers after the last send
  const int port = static_cast<int>(cli.get_int("port", 0));
  const int conns = static_cast<int>(cli.get_int("conns", 1));
  const std::string recv_prefix = cli.get("recv-prefix", "");
  const std::string scrape_prefix = cli.get("scrape-prefix", "");
  DASM_CHECK_MSG(port > 0 && conns >= 1 && !recv_prefix.empty(),
                 "load needs --port, --conns and --recv-prefix");
  const std::vector<Scheduled> sched = load_schedule(cli.get("schedule", ""));

  std::vector<LoadConn> cs(static_cast<std::size_t>(conns));
  for (LoadConn& c : cs) {
    c.fd = connect_to(port);
    const std::string hello = "dasm-requests 1\n";
    DASM_CHECK(::send(c.fd, hello.data(), hello.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(hello.size()));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  // Wait for every greeting, so connection set-up is outside the step.
  for (LoadConn& c : cs) {
    while (c.received.find('\n') == std::string::npos) {
      pollfd p{c.fd, POLLIN, 0};
      ::poll(&p, 1, 1000);
      DASM_CHECK_MSG(read_conn(c, now_ns()), "server closed during greeting");
    }
    c.in.clear();
  }
  for (const Scheduled& s : sched) {
    DASM_CHECK_MSG(s.conn >= 0 && s.conn < conns, "schedule names conn " << s.conn);
    if (!s.request) continue;
    LoadConn& c = cs[static_cast<std::size_t>(s.conn)];
    c.sched_ns.push_back(s.t_ns);
  }
  for (LoadConn& c : cs) {
    c.lat_ns.assign(c.sched_ns.size(), -1);
    c.late_ns.assign(c.sched_ns.size(), 0);
  }

  double scrape_ms = 0.0;
  std::vector<double> scrape_times;
  if (!scrape_prefix.empty()) {
    std::ofstream(scrape_prefix + ".0.prom") << scrape(port, &scrape_ms);
    scrape_times.push_back(scrape_ms);
  }

  std::int64_t total_requests = 0;
  for (const LoadConn& c : cs) total_requests += static_cast<std::int64_t>(c.sched_ns.size());
  const std::int64_t last_t = sched.empty() ? 0 : sched.back().t_ns;
  std::vector<std::int64_t> next_seq(static_cast<std::size_t>(conns), 0);
  std::int64_t answered = 0;
  std::size_t next = 0;
  std::int64_t next_scrape = scrape_prefix.empty() ? -1 : kScrapeEveryNs;
  std::vector<pollfd> pfds(static_cast<std::size_t>(conns));
  const std::int64_t t0 = now_ns();

  for (;;) {
    std::int64_t t = now_ns() - t0;
    // Send everything that is due, one write per connection.
    while (next < sched.size() && sched[next].t_ns <= t) {
      const Scheduled& s = sched[next];
      LoadConn& c = cs[static_cast<std::size_t>(s.conn)];
      c.out += s.line;
      if (s.request) {
        const auto seq = static_cast<std::size_t>(next_seq[static_cast<std::size_t>(s.conn)]++);
        c.late_ns[seq] = t - s.t_ns;
      } else {
        c.pending_register_ns = t;
      }
      ++next;
    }
    for (LoadConn& c : cs) {
      if (!c.out.empty()) flush_conn(c);
    }
    if (next_scrape >= 0 && t >= next_scrape && next < sched.size()) {
      double ms = 0.0;
      scrape(port, &ms);
      scrape_times.push_back(ms);
      next_scrape += kScrapeEveryNs;
      t = now_ns() - t0;
    }
    if (next == sched.size() && answered == total_requests) break;
    if (next == sched.size() && t > last_t + kDrainNs) break;

    // Busy-poll: the generator never sleeps, so no wakeup delay of its own
    // enters a request's latency or its send time.
    for (std::size_t i = 0; i < cs.size(); ++i) {
      pfds[i] = {cs[i].fd, static_cast<short>(POLLIN | (cs[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    const timespec ts{0, 0};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    answered = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      LoadConn& c = cs[i];
      if (!c.eof && (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        c.eof = !read_conn(c, t0);
      }
      answered += c.answered;
    }
  }

  if (!scrape_prefix.empty()) {
    std::ofstream(scrape_prefix + ".1.prom") << scrape(port, &scrape_ms);
    scrape_times.push_back(scrape_ms);
  }
  std::ofstream lat(cli.get("lat-out", ""));
  DASM_CHECK_MSG(lat.good(), "cannot open --lat-out");
  std::int64_t err_lines = 0;
  std::vector<double> register_ms;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    LoadConn& c = cs[i];
    // conn seq scheduled_us latency_us (-1 = unanswered) lateness_us
    for (std::size_t k = 0; k < c.sched_ns.size(); ++k) {
      lat << i << ' ' << k << ' ' << c.sched_ns[k] / 1000 << ' '
          << (c.lat_ns[k] < 0 ? -1.0 : static_cast<double>(c.lat_ns[k]) * 1e-3)
          << ' ' << static_cast<double>(c.late_ns[k]) * 1e-3 << '\n';
    }
    std::ofstream rx(recv_prefix + "." + std::to_string(i), std::ios::binary);
    rx << c.received;
    DASM_CHECK_MSG(rx.good(), "cannot write received bytes");
    err_lines += c.err_lines;
    register_ms.insert(register_ms.end(), c.register_ms.begin(), c.register_ms.end());
    ::close(c.fd);
  }
  std::cout << "{\"requests\":" << total_requests << ",\"answered\":" << answered
            << ",\"err_lines\":" << err_lines
            << ",\"scrape_ms\":[";
  for (std::size_t i = 0; i < scrape_times.size(); ++i) {
    std::cout << (i ? "," : "") << scrape_times[i];
  }
  std::cout << "],\"register_ms\":[";
  for (std::size_t i = 0; i < register_ms.size(); ++i) {
    std::cout << (i ? "," : "") << register_ms[i];
  }
  std::cout << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// replay: direct MatchService replay of each connection's request stream

struct ReplayConn {
  std::string sent_path;
  std::string recv_path;
};

/// Splits `bytes` into lines the way the server frames a connection: 4 KiB
/// reads appended to a LineBuffer, every complete line taken after each.
std::int64_t frame_lines(const std::string& bytes, std::vector<std::string>* out) {
  constexpr std::size_t kRead = 4096;  // the server's recv size
  net::LineBuffer lb(1 << 16);
  std::string line;
  std::int64_t count = 0;
  for (std::size_t off = 0; off < bytes.size(); off += kRead) {
    lb.append(std::string_view(bytes).substr(off, kRead));
    while (lb.next(&line) == net::LineBuffer::Next::kLine) {
      ++count;
      if (out != nullptr) out->push_back(line);
    }
  }
  return count;
}

void register_decl(svc::MatchService& service, std::istream& rest) {
  const svc::RequestFile::InstanceDecl decl = svc::parse_instance_decl(rest);
  if (service.instances().find(decl.name) != nullptr) return;
  service.instances().add(decl.name, decl.from_file
                                         ? load_instance_file(decl.path)
                                         : svc::make_declared_instance(decl));
}

int cmd_replay(const Cli& cli, const std::vector<ReplayConn>& conns) {
  svc::SvcConfig config;
  config.threads = static_cast<int>(cli.get_int("threads", 1));
  config.queue_capacity = 1 << 20;
  svc::MatchService service(config);
  {
    const svc::RequestFile preload = svc::load_requests_file(cli.get("preload", ""));
    for (const auto& decl : preload.instances) {
      service.instances().add(decl.name, decl.from_file
                                             ? load_instance_file(decl.path)
                                             : svc::make_declared_instance(decl));
    }
  }
  const std::string spans_path = cli.get("spans", "");
  Tracer tr;
  // Per connection: the bytes the server sent equal the replay's.
  std::vector<bool> equal;
  std::int64_t sent_bytes = 0;
  std::int64_t request_lines = 0;
  std::vector<svc::Request> hits;  // for the traced hit replay
  const int root = tr.begin("replay");
  for (const ReplayConn& rc : conns) {
    const std::string sent = read_file(rc.sent_path);
    const std::string recv = read_file(rc.recv_path);
    sent_bytes += static_cast<std::int64_t>(sent.size());
    std::vector<std::string> lines;
    frame_lines(sent, &lines);
    for (const std::string& line : lines) {
      std::istringstream is(line);
      std::string keyword;
      is >> keyword;
      if (keyword == "instance") {
        register_decl(service, is);
      } else if (keyword == "request") {
        const svc::Request req = svc::parse_request(is);
        DASM_CHECK_MSG(service.instances().find(req.instance) != nullptr,
                       "request names unknown instance '" << req.instance << "'");
        DASM_CHECK(service.submit(req) >= 0);
        ++request_lines;
        if (hits.size() < 20000) hits.push_back(req);
      }
    }
    service.drain();
    std::vector<svc::Response> responses = service.take_responses();
    for (std::size_t k = 0; k < responses.size(); ++k) {
      responses[k].id = static_cast<std::int64_t>(k);
    }
    std::ostringstream expect;
    svc::write_responses(expect, responses);
    equal.push_back(expect.str() == recv);
  }
  tr.end(root);

  double frame_ns_per_byte = 0.0, parse_us = 0.0, hit_us = 0.0,
         hit_traced_us = 0.0;
  if (!spans_path.empty() && !hits.empty()) {
    // Framing: every connection's sent bytes through LineBuffer.
    std::string all;
    for (const ReplayConn& rc : conns) all += read_file(rc.sent_path);
    int s = tr.begin("net.frame");
    std::int64_t framed = 0;
    for (int rep = 0; rep < 5; ++rep) framed += frame_lines(all, nullptr);
    tr.end(s);
    DASM_CHECK(framed > 0);
    frame_ns_per_byte = tr.seconds(s) * 1e9 / (5.0 * static_cast<double>(all.size()));

    // Parsing: the request bodies of the hit set.
    std::vector<std::string> bodies;
    for (const ReplayConn& rc : conns) {
      std::istringstream is(read_file(rc.sent_path));
      std::string line;
      while (std::getline(is, line)) {
        if (line.rfind("request ", 0) == 0) bodies.push_back(line.substr(8));
        if (bodies.size() >= hits.size()) break;
      }
    }
    s = tr.begin("svc.parse_request");
    for (const std::string& b : bodies) {
      std::istringstream is(b);
      DASM_CHECK(!svc::parse_request(is).instance.empty());
    }
    tr.end(s);
    parse_us = tr.seconds(s) * 1e6 / static_cast<double>(bodies.size());

    // Hits: submit -> run_batch -> write_line, one request at a time,
    // first untraced, then with a span around each step.
    std::ostringstream sink;
    auto one = [&](const svc::Request& req) {
      DASM_CHECK(service.submit(req) >= 0);
      service.run_batch();
      for (const svc::Response& resp : service.take_responses()) resp.write_line(sink);
    };
    std::int64_t t0 = now_ns();
    for (const svc::Request& req : hits) one(req);
    hit_us = static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(hits.size());
    const int traced = tr.begin("svc.replay_hits");
    t0 = now_ns();
    for (std::size_t i = 0; i < hits.size(); ++i) {
      const auto req_id = static_cast<std::int64_t>(i);
      const int h = tr.begin("svc.replay_hit", traced, req_id);
      int c = tr.begin("svc.submit", h, req_id);
      DASM_CHECK(service.submit(hits[i]) >= 0);
      tr.end(c);
      c = tr.begin("svc.run_batch", h, req_id);
      service.run_batch();
      tr.end(c);
      c = tr.begin("svc.write_line", h, req_id);
      for (const svc::Response& resp : service.take_responses()) resp.write_line(sink);
      tr.end(c);
      tr.end(h);
    }
    hit_traced_us = static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(hits.size());
    tr.end(traced);
  }
  tr.write(spans_path);
  const svc::SvcStats& st = service.stats();
  std::cout << "{\"equal\":[";
  for (std::size_t i = 0; i < equal.size(); ++i) {
    std::cout << (i ? "," : "") << (equal[i] ? "true" : "false");
  }
  std::cout << "],\"requests\":" << request_lines << ",\"sent_bytes\":" << sent_bytes
            << ",\"cache_hits\":" << st.cache_hits
            << ",\"cache_misses\":" << st.cache_misses
            << ",\"replay_s\":" << tr.seconds(root)
            << ",\"frame_ns_per_byte\":" << frame_ns_per_byte
            << ",\"parse_request_us\":" << parse_us << ",\"hit_us\":" << hit_us
            << ",\"hit_traced_us\":" << hit_traced_us << "}\n";
  return 0;
}

int usage() {
  std::cerr << "usage: dasm-probe <fingerprint|solve|load|replay> [flags]\n"
            << "  see the header of perfbench/probe.cpp\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `replay` takes repeated `--conn SENT RECV` pairs, which the shared
    // flag parser does not model; split them off first.
    std::vector<ReplayConn> conns;
    std::vector<char*> rest;
    for (int i = 0; i < argc; ++i) {
      if (std::strcmp(argv[i], "--conn") == 0 && i + 2 < argc) {
        conns.push_back({argv[i + 1], argv[i + 2]});
        i += 2;
      } else {
        rest.push_back(argv[i]);
      }
    }
    const Cli cli(static_cast<int>(rest.size()), rest.data());
    if (cli.positional().empty()) return usage();
    const std::string& cmd = cli.positional()[0];
    if (cmd == "fingerprint") return cmd_fingerprint();
    if (cmd == "solve") return cmd_solve(cli);
    if (cmd == "load") return cmd_load(cli);
    if (cmd == "replay") return cmd_replay(cli, conns);
    return usage();
  } catch (const dasm::CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
