// seance_perfbench — the per-layer replay of the repository benchmark.
//
// perfbench/run.py owns the workloads, the untraced runs (seance_cli
// itself, timed from outside), the golden check, and the report.  This
// binary does the timing that has to happen next to the code: it links
// the SEANCE libraries and times calls into their public functions —
// nothing inside the pipeline is instrumented.
//
//   seance_perfbench trace RECIPE --work DIR --seed N --rows FILE
//
// Every table is requested twice in a seeded order and answered the way
// `seance_cli serve` answers it (cache key, lookup, parse + run_job +
// insert on a miss), so both cache paths are priced; each miss is then
// replayed through the public function of every layer: table clear,
// reduce, assign_ustt, find_hazards, synthesize (the equation stage is
// the residual), all_primes_cover on the FL minterms, and the four
// checks.  The replay must reproduce synthesize's reduced states, codes,
// and FL list, or the per-layer split is reported invalid.  Prints one
// JSON object on its last stdout line.
//
// RECIPE is the CLI's corpus spelling: --no-suite --extra --random N
// --hard N --harder N --hardest N (generator seed 1, the golden seed).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/cache.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "driver/shard.hpp"
#include "flowtable/kiss.hpp"
#include "logic/qm.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"
#include "store/store.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using seance::driver::JobResult;
using seance::driver::JobSpec;

constexpr double kJobTimeoutMs = 120000;  // the golden corpus watchdog
constexpr int kMedianOf = 21;  // repeats behind every median the harness reports
constexpr int kTraceRequestsPerTable = 2;  // one cache miss, one hit

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Times one call in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_since(start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- Seeded ordering -------------------------------------------------------

/// splitmix64: a portable stream, so a seed names the same order on every
/// standard library (std::shuffle's algorithm is unspecified).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// `count` corpus indices, each `repeats` times, in a seeded order.
std::vector<int> shuffled_stream(Rng& rng, int count, int repeats) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(count * repeats));
  for (int r = 0; r < repeats; ++r) {
    for (int i = 0; i < count; ++i) order.push_back(i);
  }
  rng.shuffle(order);
  return order;
}

// ---- Arguments -------------------------------------------------------------

struct Args {
  seance::api::CorpusRequest recipe;
  std::uint64_t seed = 1;
  std::string rows_path;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.recipe.random_count = 0;
  args.recipe.gen.seed = 1;
  args.recipe.options.threads = 1;
  args.recipe.options.verify = true;
  args.recipe.options.ternary = true;
  args.recipe.options.gate_ternary = true;
  args.recipe.options.job_timeout_ms = kJobTimeoutMs;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    const auto count = [&] { return std::stoi(value()); };
    if (flag == "--no-suite") {
      args.recipe.suite = false;
    } else if (flag == "--extra") {
      args.recipe.extra = true;
    } else if (flag == "--random") {
      args.recipe.random_count = count();
    } else if (flag == "--hard") {
      args.recipe.hard_count = count();
    } else if (flag == "--harder") {
      args.recipe.harder_count = count();
    } else if (flag == "--hardest") {
      args.recipe.hardest_count = count();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--rows") {
      args.rows_path = value();
    } else if (flag == "--work") {
      args.work_dir = value();
    } else {
      throw std::runtime_error("unknown option " + flag);
    }
  }
  if (args.rows_path.empty()) throw std::runtime_error("--rows FILE is required");
  if (args.work_dir.empty()) throw std::runtime_error("--work DIR is required");
  return args;
}

// ---- JSON output -----------------------------------------------------------

class Json {
 public:
  void number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    field(key) += buf;
  }
  void text(const std::string& key, const std::string& value) {
    std::string& out = field(key);
    out += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out += '\\';
      out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    out += '"';
  }
  void object(const std::string& key, const Json& inner) { field(key) += inner.str(); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string& field(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + key + "\":";
    return body_;
  }
  std::string body_;
};

/// The batch driver's per-job body at --jobs 1 with a watchdog.
JobResult run_watched(const JobSpec& spec,
                      const std::shared_ptr<const seance::driver::BatchOptions>& checks,
                      const std::shared_ptr<seance::search::TranspositionTable>& tt) {
  return seance::driver::run_with_deadline(
      spec.name, checks->job_timeout_ms, [spec, checks, tt] {
        return seance::driver::BatchRunner::run_job(spec, *checks, nullptr, tt.get());
      });
}

// ---- Replay ----------------------------------------------------------------

/// Per-layer sums over one replay of the workload's request stream:
/// metric name -> summed value.
using Layers = std::map<std::string, double>;

/// Replays one job through each layer's public function, adding self
/// times (ms) and counts to `layers`.  `row` is what the untraced unit
/// (watchdog + run_job) returned for the job.  Returns an empty string
/// when the replay reproduced synthesize, else what differed.
std::string replay_job(const JobSpec& spec, const seance::driver::BatchOptions& checks,
                       seance::search::TranspositionTable* tt, const JobResult& row,
                       Layers& layers) {
  namespace core = seance::core;
  const core::SynthesisOptions& options = spec.options;
  seance::search::TranspositionTable* memo = options.tt ? tt : nullptr;

  // First the calls run_job makes, in its order and on its conditions,
  // so their sum is comparable with the untraced unit's wall.
  const seance::search::TtStats before = tt != nullptr ? tt->stats()
                                                       : seance::search::TtStats{};
  core::FantomMachine machine;
  const double synth_ms = time_ms([&] { machine = core::synthesize(spec.table, options, tt); });
  if (tt != nullptr) {
    const seance::search::TtStats& after = tt->stats();
    layers["search.tt_hits"] += static_cast<double>(after.hits - before.hits);
    layers["search.tt_probes"] += static_cast<double>(after.hits + after.misses -
                                                      before.hits - before.misses);
    layers["search.tt_evictions"] += static_cast<double>(after.evictions - before.evictions);
  }
  layers["logic.charts"] += static_cast<double>(machine.cover_bounds.charts);
  layers["logic.charts_proven"] += static_cast<double>(machine.cover_bounds.proven);
  layers["logic.cover_cubes"] += static_cast<double>(machine.cover_bounds.cubes);

  double verify_ms = 0;
  double ternary_ms = 0;
  double build_ms = 0;
  double export_ms = 0;
  double parse_ms = 0;
  double gate_ms = 0;
  if (checks.verify) {
    verify_ms = time_ms([&] { (void)core::verify_equations(machine); });
  }
  if (checks.ternary) {
    seance::sim::TernaryReport report;
    ternary_ms = time_ms([&] { report = seance::sim::ternary_verify(machine); });
    layers["sim.ternary_transitions"] += report.transitions_checked;
  }
  if (checks.gate_ternary) {
    seance::netlist::Netlist built;
    build_ms = time_ms([&] { (void)seance::netlist::build_fantom(machine, built); });
    layers["netlist.logic_gates"] += built.stats().logic_gates;
    std::string verilog;
    export_ms = time_ms([&] { verilog = seance::netlist::to_verilog(built, "fantom"); });
    seance::netlist::Netlist reimported;
    parse_ms = time_ms([&] { reimported = seance::netlist::parse_verilog(verilog); });
    export_ms += time_ms([&] { (void)seance::netlist::to_verilog(reimported, "fantom"); });
    gate_ms = time_ms([&] {
      (void)seance::sim::gate_ternary_verify(reimported, machine);
    });
  }

  // Then synthesize's own children, on a table cleared once, so reduce
  // and assign_ustt meet the memo exactly as synthesize's calls did.
  const double clear_ms = time_ms([&] {
    if (memo != nullptr) memo->clear();
  });
  seance::flowtable::FlowTable prepared = spec.table;
  if (!prepared.is_normal_mode()) prepared.normalize_to_normal_mode();
  seance::flowtable::FlowTable reduced = prepared;
  double reduce_ms = 0;
  if (options.minimize_states && prepared.num_states() > 1) {
    std::optional<seance::minimize::ReductionResult> reduction;
    reduce_ms = time_ms([&] {
      reduction.emplace(seance::minimize::reduce(prepared, options.reduce, memo));
    });
    reduced = reduction->reduced;
    layers["minimize.cover_nodes"] += static_cast<double>(reduction->cover_nodes);
  }
  seance::assign::Assignment assignment;
  const double ustt_ms = time_ms([&] {
    assignment = seance::assign::assign_ustt(reduced, options.assign, memo);
  });
  layers["assign.completion_rounds"] += assignment.completion_rounds;
  const seance::hazard::EncodedTable encoded{&reduced, assignment.codes,
                                             assignment.num_vars};
  seance::hazard::HazardLists hazards;
  const double hazard_ms = time_ms([&] { hazards = seance::hazard::find_hazards(encoded); });
  layers["hazard.intermediate_points"] +=
      static_cast<double>(hazards.stats.intermediate_points);

  std::string mismatch;
  if (machine.table.num_states() != reduced.num_states()) {
    mismatch = "reduced state count";
  } else if (machine.codes != assignment.codes) {
    mismatch = "state codes";
  } else if (machine.hazards.fl != hazards.fl) {
    mismatch = "FL list";
  }

  double primes_ms = 0;
  if (options.add_fsv) {
    std::vector<seance::logic::Minterm> on;
    for (const auto& t : machine.hazards.fl) {
      on.push_back(machine.layout.xy_minterm(
          t.column, machine.codes[static_cast<std::size_t>(t.state)]));
    }
    primes_ms = time_ms([&] {
      (void)seance::logic::all_primes_cover(machine.layout.xy_vars(), on, {});
    });
  }

  layers["search.tt_clear_ms"] += clear_ms;
  layers["minimize.reduce_ms"] += reduce_ms;
  layers["assign.ustt_ms"] += ustt_ms;
  layers["hazard.find_ms"] += hazard_ms;
  layers["logic.fsv_primes_ms"] += primes_ms;
  // Self time of the equation stage: synthesize minus every replayed
  // child (its own table clear is the replayed clear's twin).
  layers["core.equations_ms"] +=
      synth_ms - clear_ms - reduce_ms - ustt_ms - hazard_ms - primes_ms;
  layers["core.verify_ms"] += verify_ms;
  layers["sim.ternary_ms"] += ternary_ms;
  layers["netlist.build_ms"] += build_ms;
  layers["netlist.export_ms"] += export_ms;
  layers["netlist.parse_ms"] += parse_ms;
  layers["sim.gate_ternary_ms"] += gate_ms;
  // The driver's own cost around those calls: the watchdog thread, the
  // spec copy it captures, and the row hand-back, timed with a body that
  // returns the finished row.  (Subtracting the replayed calls from the
  // unit's wall instead leaves a residual smaller than the run-to-run
  // jitter of the calls themselves, so its sign flips between runs.)
  layers["driver.overhead_ms"] += time_ms([&] {
    (void)seance::driver::run_with_deadline(spec.name, checks.job_timeout_ms,
                                            [spec, row] { return row; });
  });
  return mismatch;
}

/// store::load + store::merge of the replayed report cut into the two
/// round-robin slices a `--shards 2` run writes.  Median ms of
/// kMedianOf merges.
double time_store_merge(const seance::api::CorpusRequest& recipe,
                        const std::vector<JobSpec>& jobs,
                        const std::vector<JobResult>& results,
                        const std::string& work_dir) {
  constexpr int kSlices = 2;
  const auto identity = seance::api::corpus_identity(recipe);
  const auto plan =
      seance::driver::ShardPlan::round_robin(static_cast<int>(jobs.size()), kSlices);
  std::vector<std::string> names;
  for (const auto& spec : jobs) names.push_back(spec.name);
  std::vector<std::string> paths;
  for (int s = 0; s < kSlices; ++s) {
    seance::store::StoredReport slice;
    slice.identity = identity;
    slice.identity.shard = seance::driver::ShardPlan::slice_tag(s, kSlices);
    for (const int job : plan.slices[static_cast<std::size_t>(s)]) {
      slice.report.jobs.push_back(results[static_cast<std::size_t>(job)]);
    }
    paths.push_back(work_dir + "/" + seance::driver::ShardPlan::slice_file(s, kSlices));
    seance::store::save(paths.back(), slice);
  }
  std::vector<double> samples;
  for (int k = 0; k < kMedianOf; ++k) {
    samples.push_back(time_ms([&] {
      std::vector<seance::store::StoredReport> shards;
      for (const auto& path : paths) shards.push_back(seance::store::load(path));
      const auto merged = seance::store::merge(identity, shards, names);
      if (merged.report.jobs.size() != jobs.size()) {
        throw std::runtime_error("store merge lost jobs");
      }
    }));
  }
  return median(samples);
}

int run_trace(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  const std::string cache_dir = args.work_dir + "/trace-cache";
  fs::remove_all(cache_dir);

  Layers layers;
  std::vector<double> generate;
  std::vector<JobSpec> jobs;
  for (int k = 0; k < kMedianOf; ++k) {
    generate.push_back(time_ms([&] { jobs = seance::api::corpus_jobs(args.recipe); }));
  }
  // The request bytes `batch --emit-requests` writes: canonical KISS2 +
  // options strings.
  std::vector<std::string> texts;
  std::vector<std::string> option_texts;
  for (const auto& spec : jobs) {
    texts.push_back(seance::flowtable::to_kiss2(spec.table));
    option_texts.push_back(seance::core::options_to_string(spec.options));
  }
  const auto checks =
      std::make_shared<const seance::driver::BatchOptions>(args.recipe.options);
  const auto& synthesis = jobs.front().options;
  auto tt = std::make_shared<seance::search::TranspositionTable>(synthesis.tt_mb << 20);

  seance::api::CacheConfig config;
  config.dir = cache_dir;
  seance::api::ResultCache cache(config);
  std::ofstream rows(args.rows_path, std::ios::binary | std::ios::trunc);
  if (!rows) throw std::runtime_error("cannot write " + args.rows_path);
  std::vector<JobResult> results(jobs.size());
  double parse_us = 0;
  double key_us = 0;
  double lookup_us = 0;
  double insert_us = 0;
  double encode_us = 0;
  double decode_us = 0;
  double requests = 0;
  double misses = 0;
  int mismatches = 0;
  std::string first_mismatch;

  Rng rng(args.seed);
  const std::vector<int> order =
      shuffled_stream(rng, static_cast<int>(jobs.size()), kTraceRequestsPerTable);
  const auto start = Clock::now();
  for (const int i : order) {
    const auto index = static_cast<std::size_t>(i);
    requests += 1;
    seance::api::SynthesisRequest request;
    request.name = jobs[index].name;
    request.table_text = texts[index];
    request.options = seance::core::options_from_string(option_texts[index]);
    request.verify = checks->verify;
    request.ternary = checks->ternary;
    request.gate_ternary = checks->gate_ternary;
    request.timeout_ms = checks->job_timeout_ms;
    std::string key;
    key_us += 1000 * time_ms([&] { key = seance::api::cache_key(request); });
    std::optional<JobResult> hit;
    lookup_us += 1000 * time_ms([&] { hit = cache.lookup(key); });
    if (hit) {
      hit->name = request.name;
      rows << seance::driver::to_csv_row(*hit) << '\n';
      continue;
    }
    misses += 1;
    JobSpec spec;
    spec.name = request.name;
    spec.options = request.options;
    parse_us += 1000 * time_ms([&] {
      spec.table = seance::flowtable::parse_kiss2(request.table_text);
    });
    const JobResult row = run_watched(spec, checks, tt);
    const std::string mismatch = replay_job(spec, *checks, tt.get(), row, layers);
    if (!mismatch.empty() && mismatches++ == 0) {
      first_mismatch = spec.name + ": " + mismatch;
    }
    insert_us += 1000 * time_ms([&] { cache.insert(key, row); });
    std::string bytes;
    encode_us += 1000 * time_ms([&] {
      bytes = seance::api::ResultCache::encode_entry(key, row);
    });
    decode_us += 1000 * time_ms([&] {
      if (!seance::api::ResultCache::decode_entry(bytes, key)) {
        throw std::runtime_error("cache entry does not decode: " + spec.name);
      }
    });
    results[index] = row;
    rows << seance::driver::to_csv_row(row) << '\n';
  }
  const double replay_s = ms_since(start) / 1000.0;
  rows.flush();
  if (!rows) throw std::runtime_error("cannot write " + args.rows_path);
  const double merge_ms = time_store_merge(args.recipe, jobs, results, args.work_dir);
  fs::remove_all(cache_dir);

  const double probes = layers["search.tt_probes"];
  const double tt_hits = layers["search.tt_hits"];
  layers.erase("search.tt_hits");
  layers["search.tt_hit_ratio"] = probes > 0 ? tt_hits / probes : 0.0;
  layers["bench_suite.generate_ms"] = median(generate);
  layers["store.merge_ms"] = merge_ms;
  layers["flowtable.parse_kiss2_us"] = misses > 0 ? parse_us / misses : 0.0;
  layers["api.cache_key_us"] = key_us / requests;
  layers["api.cache_lookup_us"] = lookup_us / requests;
  layers["api.cache_insert_us"] = misses > 0 ? insert_us / misses : 0.0;
  layers["api.encode_entry_us"] = misses > 0 ? encode_us / misses : 0.0;
  layers["api.decode_entry_us"] = misses > 0 ? decode_us / misses : 0.0;
  layers["api.cache_hit_ratio"] = (requests - misses) / requests;

  Json metrics;
  for (const auto& [name, value] : layers) metrics.number(name, value);
  Json out;
  out.object("layers", metrics);
  out.number("replay_wall_s", replay_s);
  out.number("fidelity_mismatches", mismatches);
  out.text("first_mismatch", first_mismatch);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != "trace") {
    std::fprintf(stderr,
                 "usage: seance_perfbench trace RECIPE --work DIR --seed N --rows FILE\n");
    return 2;
  }
  try {
    return run_trace(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seance_perfbench: %s\n", e.what());
  }
  return 2;
}
