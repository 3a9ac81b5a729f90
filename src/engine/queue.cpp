#include "engine/queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mthfx::engine {

namespace {

void validate(const std::string& tenant, const TenantOptions& options) {
  if (!(options.weight > 0.0))
    throw std::invalid_argument("JobQueue: weight must be > 0 (tenant '" +
                                tenant + "')");
  if (options.max_queued == 0)
    throw std::invalid_argument(
        "JobQueue: max_queued must be >= 1 (tenant '" + tenant + "')");
}

}  // namespace

JobQueue::JobQueue(std::size_t capacity, bool shed_lowest)
    : capacity_(capacity), shed_lowest_(shed_lowest) {
  if (capacity == 0)
    throw std::invalid_argument("JobQueue: capacity must be >= 1");
}

JobQueue::Tenant& JobQueue::tenant_locked(const std::string& id) {
  auto it = by_name_.find(id);
  if (it != by_name_.end()) return *it->second;
  auto owned = std::make_unique<Tenant>();
  owned->id = id;
  owned->options = defaults_;
  if (id.empty()) owned->options = {1.0, capacity_, 0};
  Tenant& t = *owned;
  tenants_.push_back(std::move(owned));
  by_name_.emplace(id, &t);
  return t;
}

void JobQueue::configure(const std::string& tenant, TenantOptions options) {
  if (tenant.empty())
    throw std::invalid_argument(
        "JobQueue: the untenanted backlog is sized by capacity");
  validate(tenant, options);
  std::lock_guard<std::mutex> lock(mutex_);
  tenant_locked(tenant).options = options;
  dispatch_locked();  // a raised in-flight cap may free work
}

void JobQueue::set_tenant_defaults(TenantOptions options) {
  validate("(default)", options);
  std::lock_guard<std::mutex> lock(mutex_);
  defaults_ = options;
}

std::string JobQueue::full_reason_locked(const Tenant& t) const {
  if (t.id.empty())
    return "queue full (capacity " + std::to_string(capacity_) + ", depth " +
           std::to_string(t.pending.size()) + ")";
  std::string reason = "tenant quota: '" + t.id + "' queued " +
                       std::to_string(t.pending.size()) + "/" +
                       std::to_string(t.options.max_queued) + " (in-flight " +
                       std::to_string(t.totals.in_flight);
  if (t.options.max_in_flight > 0)
    reason += "/" + std::to_string(t.options.max_in_flight);
  return reason + ")";
}

Admission JobQueue::submit(Job job,
                           const std::function<void(const Job&)>& on_accept) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& t = tenant_locked(job.tenant);
  Admission admission;
  auto reject = [&](std::string reason) {
    ++rejected_;
    ++t.totals.rejected;
    admission.reason = std::move(reason);
    return admission;
  };
  if (closed_) return reject("queue closed");
  if (job.input.molecule.size() == 0)
    return reject("job '" + job.name + "' has no geometry");
  if (t.pending.size() >= t.options.max_queued) {
    // Backlog full. Shed its lowest-priority (then youngest) job for a
    // strictly-higher-priority newcomer; otherwise reject the arrival.
    const auto victim = std::prev(t.pending.end());
    if (!shed_lowest_ || job.priority <= victim->first.priority)
      return reject(full_reason_locked(t));
    admission.displaced = std::move(victim->second.job);
    t.pending.erase(victim);
    --depth_;
    ++shed_;
    ++t.totals.shed;
  }
  if (job.id == 0)
    job.id = next_id_++;
  else
    next_id_ = std::max(next_id_, job.id + 1);
  ++accepted_;
  ++t.totals.submitted;
  admission.accepted = true;
  admission.id = job.id;
  if (on_accept) on_accept(job);
  const Key key{job.priority, job.id};
  t.pending.emplace(key, Entry{std::move(job), epoch_.seconds()});
  high_water_ = std::max(high_water_, ++depth_);
  dispatch_locked();
  return admission;
}

JobQueue::Tenant* JobQueue::pick_locked() {
  auto eligible = [](const Tenant& t) {
    return !t.pending.empty() && (t.options.max_in_flight == 0 ||
                                  t.totals.in_flight < t.options.max_in_flight);
  };
  bool any = false;
  for (const auto& t : tenants_) {
    if (eligible(*t))
      any = true;
    else if (t->pending.empty())
      t->deficit = 0.0;  // no banking while idle
  }
  if (!any) return nullptr;
  // Deficit round-robin, one unit per pickup: credit every eligible
  // tenant its weight until at least one can afford a whole unit, then
  // take from the richest. Crediting is global per pickup rather than
  // per visit — a per-visit scheme lets whichever tenant is scanned
  // first spend its unit every time and starves the rest whatever their
  // weights. The scan origin rotates past the chosen tenant so equal
  // deficits round-robin instead of favouring first-use order.
  while (true) {
    Tenant* pick = nullptr;
    std::size_t pick_at = 0;
    for (std::size_t visit = 0; visit < tenants_.size(); ++visit) {
      const std::size_t at = (cursor_ + visit) % tenants_.size();
      Tenant& t = *tenants_[at];
      if (!eligible(t) || t.deficit < 1.0) continue;
      if (!pick || t.deficit > pick->deficit) {
        pick = &t;
        pick_at = at;
      }
    }
    if (pick) {
      cursor_ = pick_at + 1;
      pick->deficit -= 1.0;
      return pick;
    }
    // Nobody can afford a unit yet: credit and rescan. Terminates
    // because some tenant is eligible and weights are positive.
    for (const auto& t : tenants_)
      if (eligible(*t)) t->deficit += t->options.weight;
  }
}

void JobQueue::dispatch_locked() {
  while (claimed_.size() < waiting_) {
    Tenant* t = pick_locked();
    if (!t) break;
    auto head = t->pending.begin();
    claimed_.push_back({std::move(head->second.job),
                        epoch_.seconds() - head->second.submit_seconds});
    t->pending.erase(head);
    --depth_;
    ++t->totals.in_flight;
    ++t->totals.admitted;
    cv_.notify_one();
  }
  // A closed queue that just ran dry releases every remaining popper.
  if (closed_ && depth_ == 0) cv_.notify_all();
}

std::optional<PoppedJob> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++waiting_;
  dispatch_locked();
  cv_.wait(lock,
           [this] { return !claimed_.empty() || (closed_ && depth_ == 0); });
  --waiting_;
  if (claimed_.empty()) return std::nullopt;  // closed and drained
  PoppedJob popped = std::move(claimed_.front());
  claimed_.pop_front();
  return popped;
}

void JobQueue::finish(const std::string& tenant, JobState outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(tenant);
  if (it == by_name_.end()) return;
  TenantStats& totals = it->second->totals;
  if (totals.in_flight > 0) --totals.in_flight;
  if (outcome == JobState::kDone)
    ++totals.completed;
  else
    ++totals.failed;
  dispatch_locked();
}

std::optional<Job> JobQueue::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : tenants_) {
    for (auto it = t->pending.begin(); it != t->pending.end(); ++it) {
      if (it->first.id != id) continue;
      Job job = std::move(it->second.job);
      t->pending.erase(it);
      --depth_;
      ++t->totals.canceled;
      dispatch_locked();
      return job;
    }
  }
  return std::nullopt;
}

void JobQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

void JobQueue::set_next_id(std::uint64_t next_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = std::max(next_id_, next_id);
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

std::size_t JobQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

std::uint64_t JobQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

std::uint64_t JobQueue::rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::uint64_t JobQueue::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

std::vector<std::pair<std::string, TenantStats>> JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, TenantStats>> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    TenantStats snapshot = t->totals;
    snapshot.options = t->options;
    snapshot.queued = t->pending.size();
    out.emplace_back(t->id, snapshot);
  }
  return out;
}

}  // namespace mthfx::engine
