#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "fleet/dir.hpp"

namespace seance::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::vector<Slice> make_slices(const driver::ShardPlan& plan,
                               const std::vector<std::string>& names,
                               const std::vector<double>& costs,
                               const std::string& dir) {
  const int total = plan.num_shards;
  std::vector<Slice> out;
  out.reserve(static_cast<std::size_t>(total));
  for (int u = 0; u < total; ++u) {
    Slice slice;
    slice.index = u;
    slice.total = total;
    slice.tag = driver::ShardPlan::slice_tag(u, total);
    slice.store_path = dir + "/" + driver::ShardPlan::slice_file(u, total);
    for (const int job : plan.slices[static_cast<std::size_t>(u)]) {
      slice.job_names.push_back(names[static_cast<std::size_t>(job)]);
      slice.cost += costs.empty() ? 1.0 : costs[static_cast<std::size_t>(job)];
    }
    out.push_back(std::move(slice));
  }
  return out;
}

bool FleetReport::all_resolved() const {
  for (const UnitResult& unit : units) {
    if (unit.outcome == UnitOutcome::kPending) return false;
  }
  return true;
}

FleetRunner::FleetRunner(DirBackend& lease, SliceExecutor& executor,
                         FleetOptions options)
    : lease_(lease), executor_(executor), options_(std::move(options)) {}

FleetReport FleetRunner::run(const std::vector<Slice>& slices) {
  const std::size_t n = slices.size();
  FleetReport report;
  report.units.resize(n);
  const auto run_start = Clock::now();
  if (n == 0) {
    report.wall_ms = ms_since(run_start);
    return report;
  }

  // Static LPT: heaviest slice first (ties to the lower index), rotated
  // by the runner hash so a fleet of idle runners starts on different
  // slices instead of all racing for slice 0.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slices[a].cost > slices[b].cost;
                   });
  std::rotate(order.begin(),
              order.begin() + static_cast<std::ptrdiff_t>(
                                  search::fnv64(options_.runner_id) % n),
              order.end());

  struct Active {
    std::size_t index = 0;
    std::unique_ptr<SliceRun> run;
    Clock::time_point start;
    bool lost = false;  ///< lease lost mid-run; do not complete on exit
  };
  std::vector<Active> active;
  int acquired = 0;
  auto last_beat = Clock::now();

  const auto unresolved = [&](std::size_t i) {
    return report.units[i].outcome == UnitOutcome::kPending;
  };
  const auto is_active = [&](std::size_t i) {
    for (const Active& a : active) {
      if (a.index == i) return true;
    }
    return false;
  };

  for (;;) {
    // 1. Reap finished runs.  Completion authority is the store file,
    // never the exit status alone: a clean exit with a torn or mismatched
    // file is still a failed attempt.
    for (std::size_t a = 0; a < active.size();) {
      std::string detail;
      if (!active[a].run->poll(&detail)) {
        ++a;
        continue;
      }
      const std::size_t i = active[a].index;
      const Slice& slice = slices[i];
      UnitResult& unit = report.units[i];
      unit.wall_ms = ms_since(active[a].start);
      const bool lost = active[a].lost;
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));
      if (lost) {
        unit.exit_detail = "lease lost to another runner";
        continue;  // the new holder owns the slice now
      }
      const bool file_ok =
          detail.empty() && slice_file_complete(slice.store_path,
                                                options_.identity, slice.tag,
                                                slice.job_names);
      if (file_ok && lease_.complete(slice)) {
        unit.outcome = UnitOutcome::kCompleted;
        unit.exit_detail.clear();
        ++report.executed;
        continue;
      }
      if (detail.empty()) {
        detail = file_ok ? "lease lost before completion"
                         : "incomplete slice store";
      }
      unit.exit_detail = detail;
      // Back to the pool: the backend's attempt budget decides whether
      // another attempt is allowed (a fleet re-lease) or the slice is dead
      // (a local run's single attempt keeps PR 5's no-retry crash
      // isolation).
      lease_.abandon(slice);
    }

    // 2. Heartbeat held leases; a lost lease cancels its worker so a
    // falsely-stolen slice stops writing as soon as possible.
    if (ms_since(last_beat) >= options_.heartbeat_ms) {
      last_beat = Clock::now();
      for (Active& a : active) {
        if (!a.lost && !lease_.heartbeat(slices[a.index])) {
          a.lost = true;
          a.run->cancel();
        }
      }
    }

    // 3. Acquire work, LPT order.  Acquiring an expired lease is the
    // steal / dead-runner re-lease path; nothing else is needed.
    const bool budget_left =
        options_.max_units < 0 || acquired < options_.max_units;
    if (budget_left) {
      for (const std::size_t i : order) {
        if (static_cast<int>(active.size()) >= options_.max_concurrent) break;
        if (options_.max_units >= 0 && acquired >= options_.max_units) break;
        if (!unresolved(i) || is_active(i)) continue;
        const Slice& slice = slices[i];
        const AcquireResult res = lease_.acquire(slice);
        if (!res.ok) continue;  // held, done, dead, or a lost race
        ++acquired;
        UnitResult& unit = report.units[i];
        if (res.stolen) {
          unit.stolen = true;
          ++report.stolen;
        }
        if (options_.die_after_acquires >= 0 &&
            acquired > options_.die_after_acquires) {
          // Simulated runner death: leave this lease held and unserved,
          // kill our workers, and vanish without abandoning anything —
          // exactly what a crashed machine looks like to the fleet.
          for (Active& a : active) a.run->cancel();
          std::_Exit(3);
        }
        if (options_.reuse_complete &&
            slice_file_complete(slice.store_path, options_.identity, slice.tag,
                                slice.job_names)) {
          if (lease_.complete(slice)) {
            unit.outcome = UnitOutcome::kReused;
            ++report.reused;
          }
          continue;
        }
        // Drop any stale file first: the worker truncates it only after
        // rebuilding the corpus, so a worker that dies before that point
        // must leave a *missing* file, never a previous run's rows.
        std::error_code ec;
        std::filesystem::remove(slice.store_path, ec);
        auto run = executor_.start(slice);
        if (run == nullptr) {
          unit.exit_detail = "spawn failed";
          lease_.abandon(slice);
          continue;
        }
        Active entry;
        entry.index = i;
        entry.run = std::move(run);
        entry.start = Clock::now();
        active.push_back(std::move(entry));
      }
    }

    // 4. Resolve units other runners finished (or killed for good).
    bool all_done = true;
    bool can_contribute = !active.empty();
    for (std::size_t i = 0; i < n; ++i) {
      if (!unresolved(i)) continue;
      if (is_active(i)) {
        all_done = false;
        continue;
      }
      switch (lease_.status(slices[i])) {
        case LeaseState::kDone:
          report.units[i].outcome = UnitOutcome::kElsewhere;
          ++report.elsewhere;
          break;
        case LeaseState::kDead:
          report.units[i].outcome = UnitOutcome::kDead;
          ++report.dead;
          break;
        case LeaseState::kFree:
        case LeaseState::kExpired:
          all_done = false;
          can_contribute = can_contribute || budget_left;
          break;
        case LeaseState::kHeld:
          all_done = false;  // a live runner is on it; wait
          break;
      }
    }
    if (all_done) break;
    if (!options_.wait_for_fleet && !can_contribute) break;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.poll_ms));
  }

  report.wall_ms = ms_since(run_start);
  return report;
}

bool slice_file_complete(const std::string& path,
                         const store::CorpusIdentity& identity,
                         const std::string& shard_tag,
                         std::vector<std::string> slice_names) {
  store::StoredReport stored;
  try {
    stored = store::load(path, /*tolerate_partial_tail=*/true);
  } catch (const std::exception&) {
    return false;
  }
  if (stored.identity.shard != shard_tag ||
      !store::identity_mismatches(identity, stored.identity,
                                  /*ignore_shard=*/true)
           .empty()) {
    return false;
  }
  if (stored.report.jobs.size() != slice_names.size()) return false;
  std::vector<std::string> got;
  got.reserve(stored.report.jobs.size());
  for (const auto& job : stored.report.jobs) got.push_back(job.name);
  std::sort(got.begin(), got.end());
  std::sort(slice_names.begin(), slice_names.end());
  return got == slice_names;
}

store::StoredReport merge_units(const store::CorpusIdentity& identity,
                                const std::vector<Slice>& slices,
                                const FleetReport& fleet,
                                const std::vector<std::string>& job_order) {
  std::vector<store::StoredReport> parts;
  parts.reserve(slices.size());
  std::vector<std::string> details(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i < fleet.units.size()) details[i] = fleet.units[i].exit_detail;
    try {
      parts.push_back(
          store::load(slices[i].store_path, /*tolerate_partial_tail=*/true));
    } catch (const std::exception& e) {
      // No usable file at all: the whole slice is lost; merge marks it.
      if (details[i].empty()) details[i] = e.what();
    }
  }
  store::StoredReport merged = store::merge(identity, parts, job_order);

  std::unordered_map<std::string, std::size_t> row_of;
  row_of.reserve(job_order.size());
  for (std::size_t i = 0; i < job_order.size(); ++i) row_of[job_order[i]] = i;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (details[i].empty()) continue;
    for (const std::string& name : slices[i].job_names) {
      auto& row = merged.report.jobs[row_of.at(name)];
      if (row.status == driver::JobStatus::kCrashed) {
        row.detail = "shard " + slices[i].tag + " worker " + details[i];
      }
    }
  }
  return merged;
}

}  // namespace seance::fleet
