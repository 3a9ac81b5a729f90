#pragma once

// Shared plumbing of the end-to-end benchmark: command-line arguments,
// the outcome record printed as the last line of stdout, order
// statistics, peak RSS, cold set-up timing, and the span helpers of the
// traced run (spans go to a local obs::Trace). Each workload lives in its
// own translation unit and returns an Outcome; main.cpp prints it.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "scf/rks.hpp"

namespace perfbench {

namespace obs = mthfx::obs;

/// Every workload runs its HFX builds on this many threads, whatever the
/// host offers: one core of a 4-core host stays free for the OS and the
/// load generator, and the workload is the same on any host.
inline constexpr std::size_t kHfxThreads = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: the correctness verdict, operations attempted
/// and failed, and named metrics with units (printed in insertion order).
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  obs::Json detail = obs::Json::object();  ///< printed before the last line

  void set(const std::string& name, double value, const std::string& unit);
  /// Record a failed operation (counted in `failed`) and why.
  void fail(const std::string& why);
};

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);

double median(std::vector<double> values);
/// Linear-interpolated quantile, p in [0, 1].
double quantile(std::vector<double> values, double p);
/// The highest of p90 / p99 that has at least ten samples beyond it;
/// NaN when fewer than 100 samples exist for p90.
double tail_latency(const std::vector<double>& values);

/// Peak resident set of this process image, MB: VmHWM of
/// /proc/self/status. (getrusage's ru_maxrss also keeps the peak of the
/// process before exec, here the Python launcher, which is larger than
/// some workloads.)
double peak_rss_mb();

/// Deterministic generator for every seeded input (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

/// Set-ups run per run, each cold: setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// Runs `setup` in `children` forked children of this process, one after
/// the other, and returns each child's wall time, s. Every child starts
/// from this process's state, so each pays the one-time costs (lazy
/// tables, heap growth, first-touch page faults) a fresh run pays. Call
/// it before this process starts any thread. Throws when a child fails.
std::vector<double> forked_setup_s(int children,
                                   const std::function<void()>& setup);

/// Sets setup_s to the median of the cold set-ups and records them all.
void set_setup_s(Outcome& out, const std::vector<double>& setup_s);

/// A span in `trace`, or nothing when `trace` is null (an untraced run).
class MaybeSpan {
 public:
  MaybeSpan(obs::Trace* trace, std::string name) {
    if (trace) scope_.emplace(*trace, std::move(name));
  }

 private:
  std::optional<obs::Trace::Scope> scope_;
};

/// Times `fn` `reps` times, each inside a span named `name`, and returns
/// the median wall time in ms.
double time_ms(obs::Trace& trace, const std::string& name, int reps,
               const std::function<void()>& fn);

/// Self time (span minus the part its child spans cover) of all spans
/// with this name, ms. Spans of `trace` must come from one thread.
double self_ms(const obs::Trace& trace, const std::string& name);

/// One row of a per-layer thread-speedup table: the layer, its calls per
/// timed operation, and its per-call ms at 1 and 3 HFX threads.
obs::Json table_row(const std::string& layer, double per_op, double ms1,
                    double ms3, const std::string& note);
/// Prints the table to stderr and returns it with the modeled per-op
/// totals (Σ calls × ms) at 1 and 3 threads.
obs::Json speedup_table(const std::string& title, const obs::Json& rows,
                        double measured_op_ms_3t);

/// Ends a traced run: writes the record (the tables, and every span with
/// its parent and self time) to .bench_build/traces/<workload>-<seed>.json
/// under the working directory.
void finish_trace(const Args& args, const obs::Trace& trace,
                  const obs::Json& tables);

/// PBE0 at eps_schwarz 1e-9 on `threads` HFX threads, the settings of
/// both PBE0 workloads.
mthfx::scf::KsOptions pbe0_options(std::size_t threads);

Outcome run_scf_pc_pbe0(const Args& args);
Outcome run_scf_pc_blocked(const Args& args);
Outcome run_md_water2_pbe0(const Args& args);
Outcome run_serve_screen(const Args& args);

}  // namespace perfbench
