// mthfx_perfbench — end-to-end benchmark driver.
//
//   mthfx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (see BENCHMARK.json for the list and why each
// exists) from the repository root, checks every result, and prints as
// the last line of stdout one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// set of BENCHMARK.json, with --trace 1 the per-layer set; both lists are
// read from BENCHMARK.json so the names and units have one source. The
// exit code is 0 only when every operation passed its correctness gate.

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, m] : metrics)
    if (n == name) {
      m = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Outcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double tail_latency(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (n * 0.01 >= 10.0) return quantile(values, 0.99);
  if (n * 0.10 >= 10.0) return quantile(values, 0.90);
  return std::nan("");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<double> forked_setup_s(int children,
                                   const std::function<void()>& setup) {
  std::vector<double> times;
  for (int c = 0; c < children; ++c) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(3);
      ::close(fds[0]);
      int code = 1;
      try {
        const Clock::time_point t0 = Clock::now();
        setup();
        const double elapsed = seconds_since(t0);
        if (::write(fds[1], &elapsed, sizeof elapsed) == sizeof elapsed)
          code = 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: set-up child: %s\n", e.what());
      }
      _exit(code);
    }
    ::close(fds[1]);
    double elapsed = 0.0;
    const bool got = ::read(fds[0], &elapsed, sizeof elapsed) ==
                     static_cast<ssize_t>(sizeof elapsed);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up failed in a forked child");
    times.push_back(elapsed);
  }
  return times;
}

void set_setup_s(Outcome& out, const std::vector<double>& setup_s) {
  out.set("setup_s", median(setup_s), "s");
  obs::Json all = obs::Json::array();
  for (double v : setup_s) all.push_back(v);
  out.detail["setup_s_all"] = std::move(all);
}

double time_ms(obs::Trace& trace, const std::string& name, int reps,
               const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const obs::Trace::Scope scope(trace, name);
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_since(t0));
  }
  return median(ms);
}

namespace {

/// The spans of a one-thread trace in start order, each with its parent
/// (index into the result, -1 at the top) and the seconds its direct
/// children cover. A span's parent is the nearest earlier span one level
/// up that is still open: spans of one thread nest strictly.
struct LinkedSpan {
  obs::SpanRecord span;
  int parent = -1;
  double covered = 0.0;
};

std::vector<LinkedSpan> link_spans(const obs::Trace& trace) {
  std::vector<LinkedSpan> linked;
  for (obs::SpanRecord& s : trace.spans()) linked.push_back({std::move(s)});
  std::stable_sort(linked.begin(), linked.end(),
                   [](const LinkedSpan& a, const LinkedSpan& b) {
                     return a.span.start_seconds != b.span.start_seconds
                                ? a.span.start_seconds < b.span.start_seconds
                                : a.span.depth < b.span.depth;
                   });
  std::vector<int> open;
  for (std::size_t i = 0; i < linked.size(); ++i) {
    while (!open.empty() &&
           linked[static_cast<std::size_t>(open.back())].span.depth >=
               linked[i].span.depth)
      open.pop_back();
    if (!open.empty()) {
      linked[i].parent = open.back();
      linked[static_cast<std::size_t>(open.back())].covered +=
          linked[i].span.duration_seconds;
    }
    open.push_back(static_cast<int>(i));
  }
  return linked;
}

}  // namespace

double self_ms(const obs::Trace& trace, const std::string& name) {
  double self = 0.0;
  for (const LinkedSpan& s : link_spans(trace))
    if (s.span.name == name) self += s.span.duration_seconds - s.covered;
  return 1e3 * self;
}

obs::Json table_row(const std::string& layer, double per_solve, double ms1,
                    double ms3, const std::string& note) {
  obs::Json row = obs::Json::object();
  row["layer"] = layer;
  row["calls_per_op"] = per_solve;
  row["ms_1t"] = ms1;
  row["ms_3t"] = ms3;
  row["speedup"] = ms3 > 0 ? ms1 / ms3 : 0.0;
  row["note"] = note;
  return row;
}

/// Prints the per-layer thread-speedup table and returns the modeled
/// per-op totals (Σ calls × ms) at 1 and 3 threads.
obs::Json speedup_table(const std::string& title, const obs::Json& rows,
                        double measured_op_ms_3t) {
  std::fprintf(stderr, "%s\n%-24s %8s %12s %12s %8s\n", title.c_str(),
               "layer", "calls", "ms@1t", "ms@3t", "speedup");
  double total1 = 0.0, total3 = 0.0;
  for (const obs::Json& row : rows.items()) {
    const double n = row.find("calls_per_op")->as_double();
    const double a = row.find("ms_1t")->as_double();
    const double b = row.find("ms_3t")->as_double();
    total1 += n * a;
    total3 += n * b;
    std::fprintf(stderr, "%-24s %8.0f %12.2f %12.2f %8.2f  %s\n",
                 row.find("layer")->as_string().c_str(), n, a, b,
                 row.find("speedup")->as_double(),
                 row.find("note")->as_string().c_str());
  }
  std::fprintf(stderr,
               "%-24s %8s %12.1f %12.1f %8.2f  (measured op at 3t: %.1f ms)\n",
               "modeled op", "", total1, total3,
               total3 > 0 ? total1 / total3 : 0.0, measured_op_ms_3t);
  obs::Json table = obs::Json::object();
  table["title"] = title;
  table["rows"] = rows;
  table["modeled_op_ms_1t"] = total1;
  table["modeled_op_ms_3t"] = total3;
  table["measured_op_ms_3t"] = measured_op_ms_3t;
  return table;
}

void finish_trace(const Args& args, const obs::Trace& trace,
                  const obs::Json& tables) {
  obs::Json spans = obs::Json::array();
  for (const LinkedSpan& s : link_spans(trace)) {
    obs::Json j = obs::Json::object();
    j["name"] = s.span.name;
    j["workload"] = args.workload;
    j["start_s"] = s.span.start_seconds;
    j["end_s"] = s.span.start_seconds + s.span.duration_seconds;
    j["parent"] = s.parent;
    j["self_ms"] = 1e3 * (s.span.duration_seconds - s.covered);
    spans.push_back(std::move(j));
  }
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  const std::string path = ".bench_build/traces/" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  obs::Json record = obs::Json::object();
  record["workload"] = args.workload;
  record["seed"] = static_cast<long long>(args.seed);
  record["tables"] = tables;
  record["spans"] = std::move(spans);
  std::ofstream(path) << record.dump(1) << "\n";
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: mthfx_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0)
        usage("--seconds takes a number in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

const obs::Json& field(const obs::Json& j, const char* key) {
  const obs::Json* found = j.find(key);
  if (!found) throw std::runtime_error(std::string("BENCHMARK.json: no ") + key);
  return *found;
}

obs::Json read_benchmark_json() {
  std::ifstream in("BENCHMARK.json");
  if (!in) throw std::runtime_error("BENCHMARK.json not found in the cwd");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return obs::Json::parse(text);
}

/// Checks the outcome's metrics against the declared set: every emitted
/// name must be declared with the same unit. End-to-end metrics must all
/// be present and finite; per-layer metrics a workload does not measure
/// are filled with 0 and listed on stderr.
void conform(Outcome& out, const obs::Json& declared, bool trace) {
  std::map<std::string, std::string> units;
  std::vector<std::string> order;
  for (const obs::Json& m : declared.items()) {
    const std::string name = field(m, "name").as_string();
    units[name] = field(m, "unit").as_string();
    order.push_back(name);
  }
  std::map<std::string, std::pair<double, std::string>> emitted;
  for (const auto& [name, metric] : out.metrics) {
    const auto it = units.find(name);
    if (it == units.end() || it->second != metric.second)
      throw std::logic_error("metric " + name + " [" + metric.second +
                             "] is not declared in BENCHMARK.json");
    emitted[name] = metric;
  }
  std::string unmeasured;
  out.metrics.clear();
  for (const std::string& name : order) {
    auto it = emitted.find(name);
    if (it == emitted.end()) {
      if (!trace)
        throw std::logic_error("end-to-end metric " + name + " missing");
      unmeasured += " " + name;
      out.metrics.push_back({name, {0.0, units[name]}});
      continue;
    }
    if (!std::isfinite(it->second.first))
      throw std::logic_error("metric " + name + " is not finite");
    out.metrics.push_back({name, it->second});
  }
  if (!unmeasured.empty())
    std::fprintf(stderr, "perfbench: not measured on this workload (0):%s\n",
                 unmeasured.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const obs::Json benchmark = read_benchmark_json();
    Outcome out;
    if (args.workload == "scf_pc_pbe0") {
      out = run_scf_pc_pbe0(args);
    } else if (args.workload == "md_water2_pbe0") {
      out = run_md_water2_pbe0(args);
    } else if (args.workload == "serve_screen") {
      out = run_serve_screen(args);
    } else if (args.workload == "scf_pc_blocked") {
      out = run_scf_pc_blocked(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    if (out.attempted == 0) {
      out.attempted = 1;
      out.fail("no operation completed in the run");
    }
    conform(out, field(benchmark, args.trace ? "per_layer" : "end_to_end"),
            args.trace);

    out.detail["workload"] = args.workload;
    out.detail["seed"] = static_cast<long long>(args.seed);
    out.detail["trace"] = args.trace;
    std::printf("%s\n", out.detail.dump().c_str());
    obs::Json metrics = obs::Json::object();
    for (const auto& [name, metric] : out.metrics) {
      obs::Json m = obs::Json::object();
      m["value"] = metric.first;
      m["unit"] = metric.second;
      metrics[name] = std::move(m);
    }
    obs::Json result = obs::Json::object();
    result["correct"] = out.correct;
    result["attempted"] = out.attempted;
    result["failed"] = out.failed;
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
