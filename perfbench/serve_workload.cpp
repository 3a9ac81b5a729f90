// serve_screen: a forked mthfx screening server (serve::Server over the
// durable engine: fair-share tenants, journal, disk result store)
// serving two tenants at weights 2:1. The load is small STO-3G jobs — H2,
// water and the lithium atom doublet (open shell, so uhf/uks run) in HF
// and PBE0, LiO2⁻ in HF — with about a quarter exact repeats, so
// result-store hits
// sit beside misses that run SCF and fsync journal writes.
//
// Two phases, both from this process over the TCP line protocol:
//  - open loop: jobs are due at a fixed offered rate (kOfferedRatePerS)
//    whatever the server does; one sender thread submits on schedule,
//    two collector threads wait for results (one for the slow LiO2⁻ jobs,
//    one for the rest). A job's latency runs from its due time to its
//    result. op_ms is the mean: latencies cluster by job kind, and the
//    median falls between two clusters, so it jumped by ±25% between
//    runs where the mean moved by ±5%. The median is serve.job_p50_ms.
//  - closed loop burst: kBurstConnections connections each submit, wait
//    for the result, and submit the next; serve.jobs_per_h comes from it.
//
// The server is forked before this process starts any thread, runs 3
// jobs at a time on 1 HFX thread each (the benchmark's 3 HFX threads),
// and reports its own peak RSS and engine timers when it drains.

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "app/driver.hpp"
#include "common.hpp"
#include "engine/journal.hpp"
#include "engine/result_store.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workload/geometries.hpp"

namespace perfbench {
namespace {

using namespace mthfx;

/// Offered rate of the open-loop phase, fixed so later changes are
/// compared at the same load: about 35% of the closed-loop burst capacity
/// this workload measured when the benchmark was introduced (~28 jobs/s
/// on a 4-core host). At 70% and at 50% the latency sat at the queueing
/// knee (the slow kind holds slots for ~0.7 s) and moved by ±30% between
/// runs of the same code.
constexpr double kOfferedRatePerS = 10.0;
constexpr double kOpenLoopShare = 0.75;  ///< of the run; the rest is burst
constexpr std::size_t kBurstConnections = 4;
constexpr double kJitterBohr = 0.01;
constexpr std::size_t kIdentitySamples = 8;

struct MixJob {
  std::string name;
  std::string tenant;
  bool slow = false;
  app::Input input;
};

app::Input species_input(int species, bool pbe0, Rng& rng) {
  chem::Molecule mol;
  int multiplicity = 1;
  switch (species) {
    case 0: mol = workload::h2(); break;
    case 1: mol = workload::water(); break;
    case 2: mol = workload::lithium_superoxide_anion(); break;
    default:  // lithium atom doublet
      mol.add_atom(3, {0.0, 0.0, 0.0});
      multiplicity = 2;
  }
  for (std::size_t i = 0; i < mol.size(); ++i) {
    chem::Vec3 p = mol.atom(i).pos;
    for (std::size_t d = 0; d < 3; ++d)
      p[d] += rng.uniform(-kJitterBohr, kJitterBohr);
    mol.set_position(i, p);
  }
  app::Input input;
  input.method = pbe0 ? "pbe0" : "hf";
  input.basis = "sto-3g";
  input.charge = mol.charge();
  input.multiplicity = multiplicity;
  input.eps_schwarz = 1e-9;
  input.num_threads = 1;
  input.molecule = std::move(mol);
  return input;
}

/// Species x method pairs of the mix. LiO2⁻ runs in HF only: its
/// PBE0/STO-3G closed-shell solve does not converge within the driver's
/// 100 iterations at this geometry, and a job that fails by design would
/// make every run fail its gate.
struct Kind {
  int species;
  bool pbe0;
  bool slow;  ///< ~10x the others' run time; collected on its own lane
};
constexpr Kind kKinds[] = {{0, false, false}, {0, true, false},
                           {1, false, false}, {1, true, false},
                           {2, false, true},  {3, false, false},
                           {3, true, false}};

/// The seeded job mix. Kinds cycle in a fixed order and every fourth job
/// repeats an earlier job of its kind exactly, so each 28 jobs hold every
/// kind three times new and once repeated (a quarter repeats), the slow
/// kind evenly spaced. The seed draws the geometries, which earlier job a
/// repeat copies, and the tenant of each job; the composition and order
/// of work are the same for every seed, so seeds do not move the load.
std::vector<MixJob> make_mix(std::uint64_t seed, std::size_t count) {
  constexpr std::size_t kKindCount = std::size(kKinds);
  Rng rng(seed);
  std::vector<MixJob> jobs;
  std::vector<std::vector<std::size_t>> unique_by_kind(kKindCount);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t kind = i % kKindCount;
    std::vector<std::size_t>& seen = unique_by_kind[kind];
    MixJob job;
    if (i % 4 == 3 && !seen.empty()) {
      job = jobs[seen[static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(seen.size()))]];
    } else {
      job.input = species_input(kKinds[kind].species, kKinds[kind].pbe0, rng);
      job.slow = kKinds[kind].slow;
      seen.push_back(i);
    }
    job.name = "j" + std::to_string(i);
    job.tenant = rng.uniform() < 2.0 / 3.0 ? "alpha" : "beta";
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const obs::Json& member(const obs::Json& j, const std::string& key) {
  static const obs::Json null_json;
  const obs::Json* found = j.find(key);
  return found ? *found : null_json;
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
  return line;
}

/// A forked server process: its port, and the pipe it reports on. A
/// server that was not drained (an error path) is killed and reaped by
/// the destructor, and the kernel kills it if this process dies first,
/// so no server outlives the benchmark.
class ServerProc {
 public:
  explicit ServerProc(std::string dir);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  int port() const { return port_; }
  /// Drains the server, reads its report and reaps it.
  obs::Json finish(int* exit_code);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int report_fd_ = -1;
  std::string dir_;
};

ServerProc::ServerProc(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  serve::ServeOptions options;
  options.engine.concurrency = kHfxThreads;
  options.engine.total_threads = kHfxThreads;  // 1 HFX thread per job
  options.engine.queue_capacity = 256;
  options.engine.cache = true;
  options.engine.journal_path = dir_ + "/serve.wal";
  options.engine.store_dir = dir_ + "/store";
  for (const auto& [id, weight] :
       {std::pair<const char*, double>{"alpha", 2.0}, {"beta", 1.0}}) {
    serve::TenantConfig tenant;
    tenant.id = id;
    tenant.options.weight = weight;
    tenant.options.max_queued = 4096;
    options.tenants.push_back(tenant);
  }
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(3);
    ::close(fds[0]);
    int code = 0;
    try {
      serve::Server server(options);
      server.start();
      const std::string port = std::to_string(server.port()) + "\n";
      (void)!::write(fds[1], port.data(), port.size());
      server.wait_for_stop();
      const std::vector<engine::JobRecord> records = server.stop();
      for (const auto& r : records)
        if (r.state == engine::JobState::kFailed) code = 1;
      const obs::Registry& reg = server.scheduler().registry();
      obs::Json report = obs::Json::object();
      report["peak_rss_mb"] = peak_rss_mb();
      report["queue_wait_s"] = reg.timer_seconds("engine.queue_wait_seconds");
      report["queue_wait_n"] = reg.timer_count("engine.queue_wait_seconds");
      report["job_run_s"] = reg.timer_seconds("engine.job_run_seconds");
      report["job_run_n"] = reg.timer_count("engine.job_run_seconds");
      report["cache_hits"] = server.scheduler().store().hits();
      report["cache_misses"] = server.scheduler().store().misses();
      const std::string line = report.dump() + "\n";
      (void)!::write(fds[1], line.data(), line.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench server: %s\n", e.what());
      code = 2;
    }
    ::close(fds[1]);
    _exit(code);
  }
  ::close(fds[1]);
  report_fd_ = fds[0];
  port_ = std::atoi(read_line(report_fd_).c_str());
  if (port_ <= 0) throw std::runtime_error("server did not start");
}

ServerProc::~ServerProc() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (report_fd_ >= 0) ::close(report_fd_);
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

obs::Json ServerProc::finish(int* exit_code) {
  {
    serve::Client closer("127.0.0.1", port_);
    closer.drain("benchmark complete");
  }
  const std::string line = read_line(report_fd_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return line.empty() ? obs::Json::object() : obs::Json::parse(line);
}

/// Per-job outcome as the load generator saw it.
struct Served {
  std::size_t job = 0;
  bool ok = false;
  double latency_ms = 0.0;
  obs::Json record;
};

/// Submit + wait for the result of one job on `client`; fills `served`.
void run_job(serve::Client& client, const MixJob& job, Served& served) {
  const obs::Json ack = client.submit(job.name, job.input);
  if (!member(ack, "ok").as_bool()) return;
  const obs::Json r =
      client.result(static_cast<std::uint64_t>(member(ack, "id").as_int()));
  served.ok = member(r, "ok").as_bool() && member(r, "state").as_string() == "done" &&
              member(member(member(r, "record"), "result"), "ok").as_bool();
  served.record = member(r, "record");
}

struct Phases {
  std::vector<Served> open;       ///< open-loop jobs, due order
  std::vector<double> lag_ms;     ///< sender lateness per job
  std::vector<double> submit_ms;  ///< submit round trips
  std::vector<Served> burst;
  double burst_wall_s = 0.0;
};

Phases run_phases(int port, const std::vector<MixJob>& mix, double seconds) {
  Phases ph;
  const double open_s = kOpenLoopShare * seconds;
  const std::size_t open_jobs =
      static_cast<std::size_t>(open_s * kOfferedRatePerS);
  ph.open.resize(open_jobs);
  for (std::size_t i = 0; i < open_jobs; ++i) ph.open[i].job = i;
  ph.lag_ms.resize(open_jobs);
  ph.submit_ms.resize(open_jobs);

  // A load-generator thread that loses its connection records why and
  // stops; the run then fails instead of the process terminating.
  std::mutex error_mu;
  std::string error;
  auto guarded = [&](const std::function<void()>& body) {
    try {
      body();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (error.empty()) error = e.what();
    }
  };

  // Open loop: one sender on a connection per tenant, and two collectors,
  // one for the slow kind and one for the rest. A collector waits for
  // results in submission order, so a fast job queued behind a slow one
  // on the same collector would be timed late; separate lanes keep the
  // measured latency the server's.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::uint64_t>> pending[2];  // job, id
  bool sending_done = false;
  std::vector<Clock::time_point> due(open_jobs);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto send = [&] {
    serve::Client alpha("127.0.0.1", port), beta("127.0.0.1", port);
    alpha.hello("alpha");
    beta.hello("beta");
    for (std::size_t i = 0; i < open_jobs; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / kOfferedRatePerS));
      std::this_thread::sleep_until(due[i]);
      const Clock::time_point sent = Clock::now();
      ph.lag_ms[i] =
          1e3 * std::chrono::duration<double>(sent - due[i]).count();
      const MixJob& job = mix[i];
      serve::Client& c = job.tenant == "alpha" ? alpha : beta;
      const obs::Json ack = c.submit(job.name, job.input);
      ph.submit_ms[i] = 1e3 * seconds_since(sent);
      if (!member(ack, "ok").as_bool()) continue;  // counted as failed
      const std::lock_guard<std::mutex> lock(mu);
      pending[job.slow ? 0 : 1].emplace_back(
          i, static_cast<std::uint64_t>(member(ack, "id").as_int()));
      cv.notify_all();
    }
  };
  const auto collect = [&](int lane) {
    serve::Client client("127.0.0.1", port);
    client.hello("alpha");
    auto& queue = pending[lane];
    while (true) {
      std::pair<std::size_t, std::uint64_t> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        next = queue.front();
        queue.pop_front();
      }
      const obs::Json r = client.result(next.second);
      Served& s = ph.open[next.first];
      s.latency_ms =
          1e3 * std::chrono::duration<double>(Clock::now() - due[next.first])
                    .count();
      s.ok = member(r, "ok").as_bool() &&
             member(r, "state").as_string() == "done" &&
             member(member(member(r, "record"), "result"), "ok").as_bool();
      s.record = member(r, "record");
    }
  };
  std::thread sender([&] {
    guarded(send);
    const std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
    cv.notify_all();
  });
  std::thread c1([&] { guarded([&] { collect(0); }); });
  std::thread c2([&] { guarded([&] { collect(1); }); });
  sender.join();
  c1.join();
  c2.join();

  // Closed-loop burst over the rest of the run.
  const double burst_s = seconds - open_s;
  std::atomic<std::size_t> next_job{open_jobs};
  std::vector<std::vector<Served>> per_conn(kBurstConnections);
  const Clock::time_point burst_start = Clock::now();
  const auto burst = [&](std::size_t k) {
    serve::Client client("127.0.0.1", port);
    client.hello(k % 2 == 0 ? "alpha" : "beta");
    while (seconds_since(burst_start) < burst_s) {
      const std::size_t j = next_job.fetch_add(1);
      if (j >= mix.size()) break;
      Served s;
      s.job = j;
      const Clock::time_point t0 = Clock::now();
      run_job(client, mix[j], s);
      s.latency_ms = 1e3 * seconds_since(t0);
      per_conn[k].push_back(std::move(s));
    }
  };
  std::vector<std::thread> conns;
  for (std::size_t k = 0; k < kBurstConnections; ++k)
    conns.emplace_back([&, k] { guarded([&] { burst(k); }); });
  for (auto& t : conns) t.join();
  ph.burst_wall_s = seconds_since(burst_start);
  if (!error.empty()) throw std::runtime_error("load generator: " + error);
  for (auto& v : per_conn)
    for (auto& s : v) ph.burst.push_back(std::move(s));
  return ph;
}

/// Setup: fork a server, connect, and run one warm-up job of each kind
/// end to end (every driver path the mix uses). The warm-up geometries
/// sit 50 Bohr away from the mix's, so they never serve a mix job.
std::unique_ptr<ServerProc> setup_server(const std::string& dir) {
  auto proc = std::make_unique<ServerProc>(dir);
  serve::Client client("127.0.0.1", proc->port());
  client.hello("alpha");
  Rng rng(0);
  for (const Kind& kind : kKinds) {
    MixJob warm;
    warm.name = "warmup";
    warm.input = species_input(kind.species, kind.pbe0, rng);
    warm.input.molecule.translate({50.0, 0.0, 0.0});
    Served s;
    run_job(client, warm, s);
    if (!s.ok) throw std::runtime_error("warm-up job failed");
  }
  return proc;
}

/// Re-runs a sample of served records in-process at 1 thread and compares
/// energies bit for bit; returns the number of mismatches.
std::size_t check_identity(const std::vector<const Served*>& done,
                           std::size_t* checked) {
  std::size_t mismatched = 0;
  *checked = 0;
  const std::size_t stride = std::max<std::size_t>(1, done.size() / kIdentitySamples);
  for (std::size_t i = 0; i < done.size() && *checked < kIdentitySamples;
       i += stride) {
    const obs::Json& rec = done[i]->record;
    const app::Input input = engine::input_from_json(member(rec, "input"));
    const double served = member(member(rec, "result"), "energy").as_double();
    const app::StructuredResult direct = app::run_structured(input);
    ++*checked;
    if (std::bit_cast<std::uint64_t>(served) !=
        std::bit_cast<std::uint64_t>(direct.energy))
      ++mismatched;
  }
  return mismatched;
}

}  // namespace

Outcome run_serve_screen(const Args& args) {
  Outcome out;
  obs::Trace trace;
  obs::Trace* const tr = args.trace ? &trace : nullptr;
  const std::string base =
      ".bench_build/serve-" + std::to_string(::getpid()) + "-";

  // Set-up is repeated; all but the last server are drained right away.
  // Each set-up forks a fresh server from this process, which has run no
  // SCF itself, so every one is cold where the work happens.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProc> proc;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const MaybeSpan s(tr, "workload.setup");
    const Clock::time_point t0 = Clock::now();
    proc = setup_server(base + std::to_string(r));
    setup_s.push_back(seconds_since(t0));
    if (r + 1 < kSetupRepeats) {
      int code = 0;
      proc->finish(&code);
      if (code != 0) throw std::runtime_error("set-up server failed");
    }
  }

  const std::vector<MixJob> mix = make_mix(args.seed, 4096);
  Phases ph;
  {
    const MaybeSpan s(tr, "serve.phases");
    ph = run_phases(proc->port(), mix, args.seconds);
  }
  int server_exit = 0;
  obs::Json report;
  {
    const MaybeSpan s(tr, "serve.drain");
    report = proc->finish(&server_exit);
  }
  if (server_exit != 0) out.fail("server exited with a job failure");

  std::vector<double> latencies;
  std::vector<const Served*> done;
  for (const std::vector<Served>* phase : {&ph.open, &ph.burst})
    for (const Served& s : *phase) {
      ++out.attempted;
      if (!s.ok) {
        out.fail("job " + mix[s.job].name + " (" + mix[s.job].input.method +
                 ", " + std::to_string(mix[s.job].input.molecule.size()) +
                 " atoms) did not complete: " + s.record.dump());
        continue;
      }
      done.push_back(&s);
    }
  // A failed job counts as missing every latency limit: +inf.
  double latency_sum = 0.0;
  for (const Served& s : ph.open) {
    latencies.push_back(s.ok ? s.latency_ms
                             : std::numeric_limits<double>::infinity());
    latency_sum += s.latency_ms;
  }
  const double mean_latency =
      latency_sum / static_cast<double>(ph.open.size());
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  {
    const MaybeSpan s(tr, "serve.identity_check");
    mismatched = check_identity(done, &checked);
  }
  if (mismatched > 0)
    out.fail(std::to_string(mismatched) +
             " served energies differ from run_structured");
  out.detail["identity_checked"] = checked;
  out.detail["open_loop_jobs"] = ph.open.size();
  out.detail["burst_jobs"] = ph.burst.size();
  out.detail["offered_rate_per_s"] = kOfferedRatePerS;
  obs::Json quartiles = obs::Json::array();
  for (double p : {0.25, 0.5, 0.75}) quartiles.push_back(quantile(latencies, p));
  out.detail["latency_quartiles_ms"] = std::move(quartiles);

  const double p50 = median(latencies);
  if (!args.trace) {
    set_setup_s(out, setup_s);
    out.set("peak_rss_mb", member(report, "peak_rss_mb").as_double(), "MB");
    out.set("op_ms", mean_latency, "ms");
    out.detail["op"] = "open-loop job latency from due time (mean)";
    out.detail["samples"] = latencies.size();
    return out;
  }

  if (done.empty()) return out;  // failed: nothing to probe
  if (ph.open.empty())
    throw std::runtime_error(
        "the traced run needs open-loop jobs for its probes: raise --seconds");

  // Traced run: engine timers from the server, then layer probes here.
  const double wait_n = member(report, "queue_wait_n").as_double();
  const double run_n = member(report, "job_run_n").as_double();
  out.set("engine.queue_wait_ms",
          wait_n > 0 ? 1e3 * member(report, "queue_wait_s").as_double() / wait_n
                     : 0.0,
          "ms");
  out.set("engine.job_run_ms",
          run_n > 0 ? 1e3 * member(report, "job_run_s").as_double() / run_n
                    : 0.0,
          "ms");
  const double hits = member(report, "cache_hits").as_double();
  const double misses = member(report, "cache_misses").as_double();
  out.set("engine.cache_hit_frac",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

  // app.driver_ms: the in-process driver on the first block of the open
  // loop (every kind three times, repeats skipped), and per job the served
  // latency minus that driver time: queueing, transport, journal, store.
  std::vector<app::StructuredResult> results;
  std::vector<std::uint64_t> keys;
  std::vector<double> driver_ms, overhead_ms;
  for (std::size_t i = 0; i < std::min<std::size_t>(28, ph.open.size()); ++i) {
    const std::uint64_t key = engine::input_key(mix[i].input);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    const obs::Trace::Scope s(trace, "app.driver");
    const Clock::time_point t0 = Clock::now();
    results.push_back(app::run_structured(mix[i].input));
    driver_ms.push_back(1e3 * seconds_since(t0));
    overhead_ms.push_back(ph.open[i].latency_ms - driver_ms.back());
    keys.push_back(key);
  }
  out.set("app.driver_ms", median(driver_ms), "ms");
  out.set("serve.job_p50_ms", p50, "ms");
  out.set("serve.overhead_ms", median(overhead_ms), "ms");

  // The store probes reuse the driver's results: one call per distinct
  // job, at most 16 (a short run has fewer distinct jobs).
  const int reps = static_cast<int>(std::min<std::size_t>(16, keys.size()));
  const std::string dir = base + "probe";
  std::filesystem::create_directories(dir);
  {
    engine::Journal journal;
    journal.open(dir + "/probe.wal");
    std::size_t i = 0;
    out.set("engine.journal_append_ms",
            time_ms(trace, "engine.journal_append", 16, [&] {
              journal.append(done[i++ % done.size()]->record);
            }),
            "ms");
    engine::ResultStore store;
    store.attach_disk(dir + "/store");
    std::size_t put = 0, get = 0;
    out.set("engine.store_put_ms", time_ms(trace, "engine.store_put", reps, [&] {
              store.insert(keys[put], results[put]);
              ++put;
            }),
            "ms");
    engine::ResultStore reader;  // fresh memory tier: reads hit the disk
    reader.attach_disk(dir + "/store");
    out.set("engine.store_get_ms", time_ms(trace, "engine.store_get", reps, [&] {
              (void)reader.lookup(keys[get++]);
            }),
            "ms");
  }
  std::filesystem::remove_all(dir);

  obs::Json frame = obs::Json::object();
  frame["op"] = "submit";
  frame["name"] = mix[1].name;
  frame["input"] = member(done.front()->record, "input");
  std::vector<double> codec_us;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 200; ++i) {
      const std::string line = serve::encode_frame(frame);
      (void)serve::parse_request(line.substr(0, line.size() - 1));
    }
    codec_us.push_back(1e6 * seconds_since(t0) / 200.0);
  }
  out.set("serve.codec_us", median(codec_us), "us");
  out.set("serve.submit_rtt_ms", median(ph.submit_ms), "ms");
  const double tail = tail_latency(latencies);
  out.set("serve.job_tail_ms", std::isnan(tail) ? 0.0 : tail, "ms");
  std::size_t burst_ok = 0;
  for (const Served& s : ph.burst) burst_ok += s.ok ? 1 : 0;
  out.set("serve.jobs_per_h",
          3600.0 * static_cast<double>(burst_ok) / ph.burst_wall_s, "1/h");
  const double lag = tail_latency(ph.lag_ms);
  out.set("bench.gen_lag_ms",
          std::isnan(lag) ? *std::max_element(ph.lag_ms.begin(), ph.lag_ms.end())
                          : lag,
          "ms");
  out.set("bench.fail_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");

  obs::Json tables = obs::Json::object();
  tables["server"] = report;
  tables["job_p50_ms"] = p50;
  finish_trace(args, trace, tables);
  return out;
}

}  // namespace perfbench
