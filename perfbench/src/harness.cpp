#include "harness.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

using dut::obs::Json;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

const char* size_name(Size size) {
  return size == Size::kTiny ? "tiny" : "full";
}

Json metric_json(const Metric& m) {
  return Json::object().set("value", m.value).set("unit", m.unit);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"stats.busy_share", "share"},
      {"core.plan_ms", "ms"},
      {"core.alias_build_ms", "ms"},
      {"core.sample_ns", "ns"},
      {"core.collision_ns", "ns"},
      {"core.samples", "count"},
      {"core.collision_calls", "count"},
      {"core.collision_hit_share", "share"},
      {"net.graph_ms", "ms"},
      {"congest.driver_ms", "ms"},
      {"congest.warmup_ms", "ms"},
      {"net.rounds", "count"},
      {"net.messages", "count"},
      {"net.bits", "bits"},
      {"net.node_round_ns", "ns"},
      {"net.message_ns", "ns"},
      {"net.shm.session_ms", "ms"},
      {"net.shm.round_us", "us"},
      {"congest.rank0_call_ms", "ms"},
      {"serve.build_ms", "ms"},
      {"serve.arrival_ns", "ns"},
      {"serve.shard_skew", "ratio"},
      {"serve.generate_ms", "ms"},
      {"serve.verdicts", "count"},
      {"serve.samples_per_accept", "samples"},
      {"serve.samples_per_reject", "samples"},
      {"obs.trace_overhead_share", "share"},
      {"obs.closure_gap", "share"},
  };
  return units;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b) noexcept {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL) ^ 0x243F6A8885A308D3ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::uint64_t resident_high_water_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw ConfigError("no VmHWM line in /proc/self/status");
}

void reset_resident_high_water() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  if (!out) {
    throw ConfigError(
        "cannot reset the resident high-water mark (/proc/self/clear_refs)");
  }
}

void LaneBarrier::arrive() {
  std::unique_lock<std::mutex> lock(mu_);
  seen_.insert(std::this_thread::get_id());
  if (seen_.size() >= lanes_) cv_.notify_all();
  cv_.wait_for(lock, std::chrono::seconds(1),
               [&] { return seen_.size() >= lanes_; });
}

// --- Ledger -----------------------------------------------------------------

void Ledger::attempt(std::uint64_t ops) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += ops;
}

void Ledger::fail(const std::string& why) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

void Ledger::check(const std::string& name, bool ok,
                   const std::string& detail) {
  const std::lock_guard<std::mutex> lock(mu_);
  checks_.push_back(Check{name, ok, detail});
}

bool Ledger::correct() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (failed_ != 0) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

Json Ledger::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Json checks = Json::array();
  for (const Check& c : checks_) {
    checks.push(Json::object()
                    .set("name", c.name)
                    .set("ok", c.ok)
                    .set("detail", c.detail));
  }
  Json failures = Json::array();
  for (const std::string& why : failures_) failures.push(why);
  return Json::object()
      .set("checks", std::move(checks))
      .set("failures", std::move(failures));
}

// --- Trace ------------------------------------------------------------------

Trace::Trace(unsigned lanes) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{"bench.run", kRoot, lane_of_caller(), lanes, now_ns(),
                        0, 0});
}

std::uint32_t Trace::lane_of_caller() {
  const auto [it, inserted] = lanes_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(lanes_.size()));
  return it->second;
}

std::uint32_t Trace::open(const char* layer, std::uint32_t parent,
                          unsigned lanes) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{layer, parent, lane_of_caller(), lanes, start, 0, 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Trace::close(std::uint32_t id, std::uint64_t items) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = end;
  spans_[id].items = items;
}

std::uint32_t Trace::record(const char* layer, std::uint32_t parent,
                            std::int64_t start_ns, std::int64_t end_ns,
                            std::uint64_t items) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{layer, parent, lane_of_caller(), 1, start_ns, end_ns, items});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Trace::aggregate(const char* layer, std::uint32_t parent,
                      std::uint64_t calls, std::uint64_t items,
                      std::int64_t total_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  aggregates_.push_back(Aggregate{layer, parent, calls, items, total_ns});
}

void Trace::finish() { close(kRoot); }

std::map<std::string, Trace::Layer> Trace::layers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
              spans_[i].lanes;
  }
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    self[spans_[i].parent] -=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
        spans_[i].lanes;
  }
  std::map<std::string, Layer> out;
  for (const Aggregate& a : aggregates_) {
    self[a.parent] -= static_cast<double>(a.total_ns);
    Layer& layer = out[a.layer];
    layer.self_ns += static_cast<double>(a.total_ns);
    layer.total_ns += static_cast<double>(a.total_ns);
    layer.calls += a.calls;
    layer.items += a.items;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& layer = out[spans_[i].layer];
    layer.self_ns += self[i];
    layer.total_ns +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    ++layer.spans;
    layer.items += spans_[i].items;
  }
  return out;
}

double Trace::wall_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(spans_[kRoot].end_ns - spans_[kRoot].start_ns) *
         1e-6;
}

double Trace::closure_gap() const {
  const std::map<std::string, Layer> by_layer = layers();
  double covered = 0;
  for (const auto& [name, layer] : by_layer) {
    if (name != "bench.run") covered += layer.self_ns;
  }
  double capacity = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    capacity = static_cast<double>(spans_[kRoot].end_ns -
                                   spans_[kRoot].start_ns) *
               spans_[kRoot].lanes;
  }
  return capacity <= 0 ? 1.0 : std::fabs(capacity - covered) / capacity;
}

void Trace::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans_[kRoot].start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << Json::object()
               .set("span", std::uint64_t{i})
               .set("parent", s.parent)
               .set("layer", s.layer)
               .set("lane", s.lane)
               .set("lanes", s.lanes)
               .set("start_ns", s.start_ns - origin)
               .set("end_ns", s.end_ns - origin)
               .set("items", s.items)
               .dump()
        << '\n';
  }
  for (const Aggregate& a : aggregates_) {
    out << Json::object()
               .set("aggregate", a.layer)
               .set("parent", a.parent)
               .set("calls", a.calls)
               .set("items", a.items)
               .set("total_ns", a.total_ns)
               .dump()
        << '\n';
  }
}

// --- host, output -----------------------------------------------------------

void require_hardware(unsigned threads, unsigned ranks) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (threads > hw || ranks > hw) {
    throw ConfigError("workload needs " + std::to_string(threads) +
                      " thread(s) and " + std::to_string(ranks) +
                      " rank(s) but hardware_concurrency is " +
                      std::to_string(hw));
  }
}

void emit_per_layer(RunReport& report,
                    const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_units()) {
    const auto it = values.find(name);
    report.metrics.push_back(
        Metric{name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        per_layer_units().begin(), per_layer_units().end(),
        [&](const auto& entry) { return entry.first == name; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
  }
}

void emit_end_to_end(RunReport& report, double setup_s,
                     const std::vector<Step>& steps, double peak_rss) {
  std::vector<double> throughput;
  std::vector<double> p50;
  std::vector<double> p95;
  const std::size_t segments = std::min(kSegments, steps.size());
  for (std::size_t seg = 0; seg < segments; ++seg) {
    double wall_ms = 0;
    double work = 0;
    std::vector<double> latency_ms;
    for (std::size_t i = steps.size() * seg / segments;
         i < steps.size() * (seg + 1) / segments; ++i) {
      wall_ms += steps[i].wall_ms;
      work += steps[i].work;
      latency_ms.insert(latency_ms.end(), steps[i].latency_ms.begin(),
                        steps[i].latency_ms.end());
    }
    throughput.push_back(work / (wall_ms * 1e-3));
    p50.push_back(quantile(latency_ms, 0.50));
    p95.push_back(quantile(latency_ms, 0.95));
  }
  report.metrics.push_back(Metric{"setup_s", setup_s, "s"});
  report.metrics.push_back(
      Metric{"throughput_per_s", trimmed_mean(throughput), "1/s"});
  report.metrics.push_back(Metric{"op_ms_p50", trimmed_mean(p50), "ms"});
  report.metrics.push_back(Metric{"op_ms_p95", trimmed_mean(p95), "ms"});
  report.metrics.push_back(Metric{"peak_rss_mb", peak_rss, "MiB"});
}

int print_report(const Options& options, const RunReport& report) {
  Json host = Json::object()
                  .set("nproc", nproc())
                  .set("hardware_concurrency",
                       std::thread::hardware_concurrency())
                  .set("cpu_model", cpu_model())
                  .set("build_type", PERFBENCH_BUILD_TYPE)
                  .set("threads", report.threads)
                  .set("ranks", report.ranks);
  Json warmup = Json::array();
  for (const std::string& op : report.warmup) warmup.push(op);
  Json details = Json::object();
  for (const Metric& m : report.details) details.set(m.name, metric_json(m));
  Json record = Json::object()
                    .set("workload", options.workload)
                    .set("seed", options.seed)
                    .set("seconds", options.seconds)
                    .set("trace", options.trace ? 1 : 0)
                    .set("size", size_name(options.size))
                    .set("host", std::move(host))
                    .set("warmup", std::move(warmup))
                    .set("details", std::move(details));
  if (options.trace) record.set("closure_tolerance", kClosureTolerance);
  record.set("ledger", report.ledger.to_json());
  std::printf("%s\n",
              Json::object().set("record", std::move(record)).dump().c_str());

  const bool correct = report.ledger.correct();
  Json metrics = Json::object();
  for (const Metric& m : report.metrics) metrics.set(m.name, metric_json(m));
  const Json result = Json::object()
                          .set("correct", correct)
                          .set("attempted", report.ledger.attempted())
                          .set("failed", report.ledger.failed())
                          .set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
