#include "common.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <queue>
#include <streambuf>
#include <thread>

#include "obs/log.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/simd.h"

namespace perfbench {

double pct(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return pct(std::move(xs), 0.5); }

double anchor_us() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x % 1000) + 1.0;
  };
  double acc = 0.0;
  for (int rep = 0; rep < 12; ++rep) {
    std::vector<std::vector<double>> prefix;
    for (int m = 0; m < 8; ++m) {
      std::vector<double> t(61, 0.0);
      for (std::size_t l = 1; l < t.size(); ++l) t[l] = t[l - 1] + next();
      prefix.push_back(std::move(t));
    }
    for (const std::vector<double>& t : prefix) {
      const std::function<double(std::size_t, std::size_t)> cost =
          [&t](std::size_t i, std::size_t j) { return t[j] - t[i]; };
      double lo = 0.0, hi = t.back();
      for (int it = 0; it < 40; ++it) {
        const double mid = 0.5 * (lo + hi);
        int stages = 1;
        std::size_t start = 0;
        for (std::size_t j = 1; j < t.size(); ++j) {
          if (cost(start, j) > mid) {
            ++stages;
            start = j - 1;
          }
        }
        (stages <= 4 ? hi : lo) = mid;
      }
      acc += hi;
    }
    using Event = std::pair<double, int>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    for (int e = 0; e < 64; ++e) events.push({next(), e});
    double now = 0.0;
    for (int step = 0; step < 400 && !events.empty(); ++step) {
      const Event ev = events.top();
      events.pop();
      now = ev.first;
      if (step < 336) events.push({now + next(), ev.second});
    }
    acc += now;
  }
  volatile double sink = acc;
  (void)sink;
  return us_since(t0);
}

double anchor_scale(std::vector<double> samples) {
  return kAnchorRefUs / median(std::move(samples));
}

void BestOfBlocks::offer(const std::string& name, double value) {
  const auto [it, inserted] = best_.try_emplace(name, value);
  if (!inserted) it->second = std::min(it->second, value);
}

double BestOfBlocks::best(const std::string& name) const {
  const auto it = best_.find(name);
  return it == best_.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launcher's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

bool built_optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

namespace {

/// CPU brand string from CPUID (x86), "unknown" elsewhere.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    if (first != std::string::npos) return model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string host_context_json() {
  const char* threads = std::getenv("H2P_THREADS");
  h2p::Json host = h2p::Json::object();
  host["nproc"] =
      h2p::Json::number(static_cast<double>(std::thread::hardware_concurrency()));
  host["cpu_model"] = h2p::Json::string(cpu_model());
#ifdef __clang__
  host["compiler"] = h2p::Json::string("clang " __clang_version__);
#else
  host["compiler"] = h2p::Json::string("gcc " __VERSION__);
#endif
  host["build_type"] = h2p::Json::string(PERFBENCH_BUILD_TYPE);
  host["optimized"] = h2p::Json::boolean(built_optimized());
  host["simd"] = h2p::Json::string(h2p::simd::active_isa());
  host["h2p_threads"] = h2p::Json::string(threads != nullptr ? threads : "");
  return host.dump();
}

// ---- log sink ---------------------------------------------------------------

namespace {

/// Discards everything written and counts newline-terminated records.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t lines = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == '\n') ++lines;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    lines += static_cast<std::uint64_t>(std::count(s, s + n, '\n'));
    return n;
  }
};

}  // namespace

struct LogCounter::Impl {
  CountingBuf buf;
  std::ostream os{&buf};
};

namespace {
const CountingBuf* g_live_buf = nullptr;
}  // namespace

LogCounter::LogCounter() : impl_(std::make_unique<Impl>()) {
  h2p::obs::Log::global().set_sink_stream(&impl_->os);
  g_live_buf = &impl_->buf;
}

LogCounter::~LogCounter() {
  h2p::obs::Log::global().set_sink_stream(nullptr);
  g_live_buf = nullptr;
}

std::uint64_t log_records() { return g_live_buf != nullptr ? g_live_buf->lines : 0; }

// ---- span totals ------------------------------------------------------------

void SpanTotals::drain_global_tracer() {
  h2p::obs::Tracer& tracer = h2p::obs::Tracer::global();
  std::vector<h2p::obs::TraceEvent> events = tracer.events();
  tracer.clear();

  // Parents open before their children and close after them on the same
  // thread, so a per-track stack over (start asc, duration desc) recovers
  // the nesting.
  std::sort(events.begin(), events.end(),
            [](const h2p::obs::TraceEvent& a, const h2p::obs::TraceEvent& b) {
              if (a.track != b.track) return a.track < b.track;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  struct Open {
    const h2p::obs::TraceEvent* ev;
    double child_us;
    bool under_planner;
  };
  std::vector<Open> stack;
  std::uint32_t track = 0;
  const auto close_top = [&] {
    const Open top = stack.back();
    stack.pop_back();
    Entry& e = by_name[top.ev->name];
    const double self = top.ev->dur_us - top.child_us;
    e.self_us += self;
    if (top.ev->name == "des.simulate") {
      if (top.under_planner) {
        des_nested_us += top.ev->dur_us;
        ++des_nested_calls;
      } else {
        des_top_us += top.ev->dur_us;
      }
    }
    if (!stack.empty()) stack.back().child_us += top.ev->dur_us;
  };
  for (const h2p::obs::TraceEvent& ev : events) {
    if (ev.instant) continue;
    if (ev.track != track) {
      while (!stack.empty()) close_top();
      track = ev.track;
    }
    const double end = ev.start_us + ev.dur_us;
    while (!stack.empty() &&
           stack.back().ev->start_us + stack.back().ev->dur_us < end) {
      close_top();
    }
    Entry& e = by_name[ev.name];
    ++e.count;
    e.incl_us += ev.dur_us;
    for (const auto& a : ev.args) {
      if (a.is_number && a.key == "submitted") e.submitted += a.number;
    }
    const bool parent_planner =
        !stack.empty() && (stack.back().under_planner ||
                           stack.back().ev->name.rfind("planner.", 0) == 0 ||
                           stack.back().ev->name == "graph_planner.plan");
    stack.push_back({&ev, 0.0, parent_planner});
  }
  while (!stack.empty()) close_top();
}

const SpanTotals::Entry& SpanTotals::get(const std::string& name) const {
  static const Entry kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

}  // namespace perfbench
