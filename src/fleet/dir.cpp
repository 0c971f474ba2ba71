#include "fleet/dir.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace seance::fleet {

namespace fs = std::filesystem;

namespace {

/// Full-content read; empty optional-style: false when unreadable.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

/// Atomic create-exclusive with complete content: write a runner-private
/// temp, hard-link it to `path` (fails if `path` exists), drop the temp.
/// Readers never observe a partial file.
bool publish_exclusive(const std::string& path, const std::string& temp,
                       const std::string& content) {
  if (!write_file(temp, content)) return false;
  std::error_code ec;
  fs::create_hard_link(temp, path, ec);
  std::error_code ignored;
  fs::remove(temp, ignored);
  return !ec;
}

/// Atomic replace: write a runner-private temp, rename over `path`.
bool publish_replace(const std::string& path, const std::string& temp,
                     const std::string& content) {
  if (!write_file(temp, content)) return false;
  std::error_code ec;
  fs::rename(temp, path, ec);
  return !ec;
}

std::string render_lease(const std::string& runner, const std::string& nonce,
                         int attempts) {
  return "runner " + runner + "\nnonce " + nonce + "\nattempts " +
         std::to_string(attempts) + "\n";
}

std::string render_config(const store::CorpusIdentity& id, int units) {
  return "units " + std::to_string(units) + "\nschema " +
         std::to_string(id.schema_version) + "\nseed " +
         std::to_string(id.base_seed) + "\ncorpus " + id.corpus + "\nchecks " +
         id.checks + "\nsynthesis " + id.synthesis + "\ngenerator " +
         id.generator + "\n";
}

}  // namespace

DirBackend::DirBackend(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("fleet dir " + dir_ + ": " + ec.message());
  }
}

void DirBackend::bind(const store::CorpusIdentity& identity, int units) {
  const std::string path = dir_ + "/fleet-config";
  const std::string mine = render_config(identity, units);
  const std::string temp = path + "." + options_.runner_id + ".tmp";
  if (publish_exclusive(path, temp, mine)) return;  // first runner
  std::string theirs;
  if (!read_file(path, &theirs)) {
    throw std::runtime_error("fleet dir " + dir_ +
                             ": cannot read fleet-config");
  }
  if (theirs != mine) {
    throw std::runtime_error(
        "fleet dir " + dir_ +
        ": fleet-config mismatch — this runner's corpus recipe or "
        "--lease-units differs from the fleet's\n--- fleet\n" +
        theirs + "--- this runner\n" + mine);
  }
}

std::string DirBackend::lease_path(const Slice& slice) const {
  return dir_ + "/lease-" + std::to_string(slice.index) + "-of-" +
         std::to_string(slice.total);
}

std::string DirBackend::done_path(const Slice& slice) const {
  return dir_ + "/done-" + std::to_string(slice.index) + "-of-" +
         std::to_string(slice.total);
}

bool DirBackend::read_lease(const std::string& path, LeaseFile* out) const {
  std::string text;
  if (!read_file(path, &text)) return false;
  *out = LeaseFile{};
  out->runner = "?";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("runner ", 0) == 0) {
      out->runner = line.substr(7);
    } else if (line.rfind("nonce ", 0) == 0) {
      out->nonce = line.substr(6);
    } else if (line.rfind("attempts ", 0) == 0) {
      out->attempts = std::atoi(line.c_str() + 9);
    }
  }
  return true;
}

bool DirBackend::lease_fresh(const std::string& path) const {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return false;  // vanished or unreadable: not holding anyone out
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double, std::milli>(age).count() <
         options_.lease_ttl_ms;
}

std::string DirBackend::new_nonce() {
  const std::uint64_t ticks = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const std::uint64_t h = search::fnv64(
      options_.runner_id + ":" + std::to_string(++nonce_counter_) + ":" +
      std::to_string(ticks));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

AcquireResult DirBackend::acquire(const Slice& slice) {
  std::error_code ec;
  if (fs::exists(done_path(slice), ec)) {
    return {false, false, "already complete"};
  }
  const std::string path = lease_path(slice);
  const std::string temp = path + "." + options_.runner_id + ".tmp";
  LeaseFile current;
  if (!read_lease(path, &current)) {
    // Unclaimed: publish exclusively; exactly one racing runner wins.
    const std::string nonce = new_nonce();
    if (!publish_exclusive(path, temp,
                           render_lease(options_.runner_id, nonce, 1))) {
      return {false, false, "lost the claim race"};
    }
    held_[slice.tag] = nonce;
    return {true, false, {}};
  }
  if (lease_fresh(path)) {
    return {false, false, "held by " + current.runner};
  }
  if (current.attempts >= options_.max_attempts) {
    return {false, false, "attempts exhausted"};
  }
  // Steal the expired lease: atomic replace, then read back — whichever
  // racing thief's nonce survived the renames owns the slice.
  const std::string nonce = new_nonce();
  if (!publish_replace(
          path, temp,
          render_lease(options_.runner_id, nonce, current.attempts + 1))) {
    return {false, false, "steal write failed"};
  }
  LeaseFile after;
  if (!read_lease(path, &after) || after.nonce != nonce) {
    return {false, false, "lost the steal race"};
  }
  held_[slice.tag] = nonce;
  return {true, true, "re-leased from " + current.runner};
}

bool DirBackend::heartbeat(const Slice& slice) {
  const auto it = held_.find(slice.tag);
  if (it == held_.end()) return false;
  const std::string path = lease_path(slice);
  LeaseFile current;
  if (!read_lease(path, &current) || current.nonce != it->second) {
    held_.erase(it);  // stolen (or wiped) behind our back
    return false;
  }
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return !ec;
}

bool DirBackend::complete(const Slice& slice) {
  const std::string temp =
      done_path(slice) + "." + options_.runner_id + ".tmp";
  // Unconditional and idempotent: the slice store passed the content
  // check, so "done" is true no matter who currently holds the lease.
  const bool ok = publish_replace(done_path(slice), temp,
                                  "runner " + options_.runner_id + "\n");
  held_.erase(slice.tag);
  return ok;
}

void DirBackend::abandon(const Slice& slice, const std::string& /*why*/) {
  const auto it = held_.find(slice.tag);
  if (it == held_.end()) return;
  const std::string path = lease_path(slice);
  LeaseFile current;
  if (read_lease(path, &current) && current.nonce == it->second) {
    // Backdate far past any TTL: the next acquire steals immediately.
    std::error_code ec;
    fs::last_write_time(
        path,
        fs::file_time_type::clock::now() -
            std::chrono::duration_cast<fs::file_time_type::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.lease_ttl_ms * 16.0)),
        ec);
  }
  held_.erase(it);
}

LeaseState DirBackend::status(const Slice& slice) {
  std::error_code ec;
  if (fs::exists(done_path(slice), ec)) return LeaseState::kDone;
  const std::string path = lease_path(slice);
  LeaseFile current;
  if (!read_lease(path, &current)) return LeaseState::kFree;
  if (lease_fresh(path)) return LeaseState::kHeld;
  if (current.attempts >= options_.max_attempts) return LeaseState::kDead;
  return LeaseState::kExpired;
}

}  // namespace seance::fleet
