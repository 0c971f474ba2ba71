#include "store/store.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace seance::store {

namespace {

constexpr const char* kMagic = "# seance-store v";

// Same RFC-4180 quoting as the driver's CSV writer (names are arbitrary
// file paths); kept local since the driver's copy is file-static.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("store: line " + std::to_string(line_no + 1) +
                           ": " + why);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      if (!cur.empty() && cur.back() == '\r') cur.pop_back();
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));
  return lines;
}

/// Splits one CSV record into fields, honouring RFC-4180 quoting.
std::vector<std::string> split_csv_row(const std::string& line,
                                       std::size_t line_no) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (quoted) fail(line_no, "unterminated quote");
  fields.push_back(std::move(cur));
  return fields;
}

int parse_int(const std::string& field, std::size_t line_no) {
  char* end = nullptr;
  const long v = std::strtol(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    fail(line_no, "expected an integer, got '" + field + "'");
  }
  return static_cast<int>(v);
}

/// Metric columns compared by diff(); lower is better for every one.
std::vector<MetricDelta> metric_rows(const driver::JobResult& b,
                                     const driver::JobResult& c) {
  return {
      {"fl_hazards", b.fl_hazards, c.fl_hazards},
      {"var_hazards", b.var_hazards, c.var_hazards},
      {"fsv_depth", b.depth.fsv_depth, c.depth.fsv_depth},
      {"y_depth", b.depth.y_depth, c.depth.y_depth},
      {"total_depth", b.depth.total_depth, c.depth.total_depth},
      {"gate_count", b.gate_count, c.gate_count},
      {"state_vars", b.state_vars, c.state_vars},
      {"synthesized_states", b.synthesized_states, c.synthesized_states},
      {"cover_cubes", b.cover_cubes, c.cover_cubes},
      {"cover_gap", b.cover_gap, c.cover_gap},
      {"ternary_transitions", b.ternary_transitions, c.ternary_transitions},
      {"ternary_a", b.ternary_a_violations, c.ternary_a_violations},
      {"ternary_b", b.ternary_b_violations, c.ternary_b_violations},
      {"gate_ternary_a", b.gate_ternary_a_violations,
       c.gate_ternary_a_violations},
      {"gate_ternary_b", b.gate_ternary_b_violations,
       c.gate_ternary_b_violations},
  };
}

}  // namespace

std::string describe(const core::SynthesisOptions& options) {
  // One canonical spelling for "same synthesis configuration": the store
  // identity line and the result-cache key (src/api) must never diverge,
  // so both delegate to the versioned codec in src/core.
  return core::options_to_string(options);
}

std::string describe(const driver::BatchOptions& options) {
  // Statuses depend on which checks ran and how strictly; a diff between
  // runs with different check sets must warn, not report status drift.
  std::string s;
  s += "verify=";
  s += options.verify ? '1' : '0';
  s += " ternary=";
  s += options.ternary ? '1' : '0';
  s += " gate=";
  s += options.gate_ternary ? '1' : '0';
  s += " strict=";
  s += options.ternary_strict ? '1' : '0';
  s += " timeout-ms=" + driver::format_fixed(options.job_timeout_ms, 0);
  return s;
}

std::string describe(const bench_suite::GeneratorOptions& options) {
  // The base seed is stored separately (CorpusIdentity::base_seed); this
  // string pins the shape knobs.  Floats go through format_fixed so the
  // identity line is byte-stable across locales and C libraries.
  std::string s;
  s += "states=" + std::to_string(options.num_states);
  s += " inputs=" + std::to_string(options.num_inputs);
  s += " outputs=" + std::to_string(options.num_outputs);
  s += " density=" + driver::format_fixed(options.transition_density, 6);
  s += " mic-bias=" + driver::format_fixed(options.mic_bias, 6);
  return s;
}

std::string serialize(const StoredReport& stored) {
  std::string out;
  out += kMagic + std::to_string(stored.identity.schema_version) + "\n";
  out += "# corpus: " + stored.identity.corpus + "\n";
  out += "# seed: " + std::to_string(stored.identity.base_seed) + "\n";
  out += "# checks: " + stored.identity.checks + "\n";
  out += "# synthesis: " + stored.identity.synthesis + "\n";
  out += "# generator: " + stored.identity.generator + "\n";
  if (!stored.identity.shard.empty()) {
    out += "# shard: " + stored.identity.shard + "\n";
  }
  out += stored.report.to_csv();
  return out;
}

StoredReport parse(const std::string& text, bool tolerate_partial_tail) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty() || lines[0].rfind(kMagic, 0) != 0) {
    fail(0, std::string("expected '") + kMagic + "N' magic line");
  }
  StoredReport stored;
  stored.identity.schema_version =
      parse_int(lines[0].substr(std::char_traits<char>::length(kMagic)), 0);
  if (stored.identity.schema_version != kSchemaVersion) {
    fail(0, "unsupported schema version " +
                std::to_string(stored.identity.schema_version) +
                " (this build reads v" + std::to_string(kSchemaVersion) + ")");
  }

  // Header block: every '#'-prefixed line up to the CSV header.  Known
  // 'key: value' lines fill the identity; anything else — an unknown key,
  // a free-form comment, a header shape from a newer minor version — is
  // skipped, so a reader of this schema version stays forward compatible
  // with files that carry extra header lines (the serve result cache
  // reads entries written by older and newer builds alike).
  std::size_t i = 1;
  for (; i < lines.size() && !lines[i].empty() && lines[i][0] == '#'; ++i) {
    if (lines[i].rfind("# ", 0) != 0) continue;
    const std::string meta = lines[i].substr(2);
    const std::size_t colon = meta.find(": ");
    if (colon == std::string::npos) continue;
    const std::string key = meta.substr(0, colon);
    const std::string value = meta.substr(colon + 2);
    if (key == "corpus") {
      stored.identity.corpus = value;
    } else if (key == "seed") {
      char* end = nullptr;
      stored.identity.base_seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') fail(i, "bad seed value");
    } else if (key == "checks") {
      stored.identity.checks = value;
    } else if (key == "synthesis") {
      stored.identity.synthesis = value;
    } else if (key == "generator") {
      stored.identity.generator = value;
    } else if (key == "shard") {
      stored.identity.shard = value;
    }
    // Unknown keys are skipped: minor-version additions stay readable.
  }

  // The header must carry this build's columns in order; same-version
  // files whose writer appended further columns stay readable (the
  // extras are ignored per row below), so column additions inside one
  // schema version are forward compatible for this reader.
  if (i >= lines.size() || lines[i].rfind(driver::kCsvHeader, 0) != 0 ||
      (lines[i].size() > driver::kCsvHeader.size() &&
       lines[i][driver::kCsvHeader.size()] != ',')) {
    fail(i < lines.size() ? i : lines.size() - 1,
         "CSV header does not match this build's column schema");
  }
  ++i;

  // A complete writer always ends the file with '\n' (every CSV row does);
  // a crashed shard worker can leave a torn final fragment behind.
  const bool newline_terminated = !text.empty() && text.back() == '\n';
  for (; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const bool last_line = i + 1 == lines.size();
    if (tolerate_partial_tail && last_line && !newline_terminated) break;
    try {
      const std::vector<std::string> f = split_csv_row(lines[i], i);
      // Extra trailing fields (columns a newer writer appended within
      // this schema version) are ignored, mirroring the prefix-matched
      // header above; too few fields is corruption.
      if (f.size() < 21) {
        fail(i, "expected at least 21 fields, got " + std::to_string(f.size()));
      }
      driver::JobResult r;
      r.name = f[0];
      const auto status = driver::status_from_string(f[1]);
      if (!status) fail(i, "unknown status '" + f[1] + "'");
      r.status = *status;
      r.num_inputs = parse_int(f[2], i);
      r.num_outputs = parse_int(f[3], i);
      r.input_states = parse_int(f[4], i);
      r.synthesized_states = parse_int(f[5], i);
      r.state_vars = parse_int(f[6], i);
      r.fl_hazards = parse_int(f[7], i);
      r.var_hazards = parse_int(f[8], i);
      r.depth.fsv_depth = parse_int(f[9], i);
      r.depth.y_depth = parse_int(f[10], i);
      r.depth.total_depth = parse_int(f[11], i);
      r.gate_count = parse_int(f[12], i);
      r.equations_verified = parse_int(f[13], i) != 0;
      r.ternary_transitions = parse_int(f[14], i);
      r.ternary_a_violations = parse_int(f[15], i);
      r.ternary_b_violations = parse_int(f[16], i);
      r.cover_cubes = parse_int(f[17], i);
      r.cover_gap = parse_int(f[18], i);
      r.gate_ternary_a_violations = parse_int(f[19], i);
      r.gate_ternary_b_violations = parse_int(f[20], i);
      stored.report.jobs.push_back(std::move(r));
    } catch (const std::runtime_error&) {
      if (tolerate_partial_tail && last_line) break;
      throw;
    }
  }
  return stored;
}

void save(const std::string& path, const StoredReport& stored) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("store: cannot open " + path);
  out << serialize(stored);
  out.flush();
  if (!out) throw std::runtime_error("store: write failed for " + path);
}

StoredReport load(const std::string& path, bool tolerate_partial_tail) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("store: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), tolerate_partial_tail);
}

std::vector<std::string> identity_mismatches(const CorpusIdentity& baseline,
                                             const CorpusIdentity& current,
                                             bool ignore_shard) {
  std::vector<std::string> out;
  const auto check = [&](const char* what, const std::string& b,
                         const std::string& c) {
    if (b != c) {
      out.push_back(std::string(what) + " '" + b + "' vs '" + c + "'");
    }
  };
  check("schema", std::to_string(baseline.schema_version),
        std::to_string(current.schema_version));
  check("corpus", baseline.corpus, current.corpus);
  check("seed", std::to_string(baseline.base_seed),
        std::to_string(current.base_seed));
  check("checks", baseline.checks, current.checks);
  check("synthesis", baseline.synthesis, current.synthesis);
  check("generator", baseline.generator, current.generator);
  if (!ignore_shard) check("shard", baseline.shard, current.shard);
  return out;
}

StoredReport merge(const CorpusIdentity& identity,
                   const std::vector<StoredReport>& shards,
                   const std::vector<std::string>& job_order) {
  const auto reject = [](const std::string& why) -> void {
    throw std::runtime_error("store: merge: " + why);
  };

  std::unordered_map<std::string, std::size_t> order_ix;
  order_ix.reserve(job_order.size());
  for (std::size_t i = 0; i < job_order.size(); ++i) {
    if (!order_ix.emplace(job_order[i], i).second) {
      reject("duplicate job name '" + job_order[i] +
             "' in the corpus — sharded runs pair rows by name");
    }
  }

  std::unordered_map<std::string, const driver::JobResult*> by_name;
  by_name.reserve(job_order.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const CorpusIdentity& got = shards[s].identity;
    const std::string tag =
        "shard " + (got.shard.empty() ? std::to_string(s) : got.shard);
    const std::vector<std::string> mismatches =
        identity_mismatches(identity, got, /*ignore_shard=*/true);
    if (!mismatches.empty()) {
      reject(tag + ": identity mismatch: " + mismatches.front());
    }

    for (const driver::JobResult& job : shards[s].report.jobs) {
      if (order_ix.find(job.name) == order_ix.end()) {
        reject(tag + ": job '" + job.name + "' is not in the corpus");
      }
      if (!by_name.emplace(job.name, &job).second) {
        reject("job '" + job.name + "' reported by more than one shard");
      }
    }
  }

  StoredReport out;
  out.identity = identity;
  out.identity.shard.clear();
  out.report.jobs.reserve(job_order.size());
  for (const std::string& name : job_order) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) {
      out.report.jobs.push_back(*it->second);
      continue;
    }
    // No shard reported this job: its worker died before reaching it (or
    // before its row hit the disk).  A placeholder row keeps the merged
    // report complete so the loss is visible per job, not per run.
    driver::JobResult crashed;
    crashed.name = name;
    crashed.status = driver::JobStatus::kCrashed;
    crashed.detail = "missing from every shard report (worker crash?)";
    out.report.jobs.push_back(std::move(crashed));
  }
  return out;
}

const char* to_string(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kAdded: return "added";
    case DeltaKind::kRemoved: return "removed";
    case DeltaKind::kStatusChanged: return "status-changed";
    case DeltaKind::kMetricDrift: return "metric-drift";
  }
  return "unknown";
}

DiffReport diff(const StoredReport& baseline, const StoredReport& current) {
  DiffReport out;

  for (const std::string& mismatch :
       identity_mismatches(baseline.identity, current.identity)) {
    out.warnings.push_back("identity mismatch: " + mismatch);
  }

  // Pair jobs by name; duplicate names (two KISS jobs with the same path)
  // pair positionally — the k-th baseline occurrence against the k-th
  // current occurrence — so the matching is deterministic.
  std::unordered_map<std::string, std::vector<std::size_t>> current_ix;
  for (std::size_t i = 0; i < current.report.jobs.size(); ++i) {
    current_ix[current.report.jobs[i].name].push_back(i);
  }
  std::unordered_map<std::string, std::size_t> next_occurrence;
  std::vector<char> matched(current.report.jobs.size(), 0);

  for (const driver::JobResult& b : baseline.report.jobs) {
    const auto it = current_ix.find(b.name);
    const std::size_t k = next_occurrence[b.name]++;
    if (it == current_ix.end() || k >= it->second.size()) {
      JobDelta d;
      d.name = b.name;
      d.kind = DeltaKind::kRemoved;
      d.baseline_status = b.status;
      out.deltas.push_back(std::move(d));
      continue;
    }
    const driver::JobResult& c = current.report.jobs[it->second[k]];
    matched[it->second[k]] = 1;
    ++out.jobs_compared;

    if (b.status != c.status) {
      JobDelta d;
      d.name = b.name;
      d.kind = DeltaKind::kStatusChanged;
      d.baseline_status = b.status;
      d.current_status = c.status;
      d.improvement = c.status == driver::JobStatus::kOk;
      out.deltas.push_back(std::move(d));
      continue;
    }

    JobDelta d;
    d.name = b.name;
    d.kind = DeltaKind::kMetricDrift;
    d.baseline_status = b.status;
    d.current_status = c.status;
    d.improvement = true;
    for (const MetricDelta& m : metric_rows(b, c)) {
      if (m.current != m.baseline) {
        d.metrics.push_back(m);
        if (m.current > m.baseline) d.improvement = false;
      }
    }
    if (!d.metrics.empty()) out.deltas.push_back(std::move(d));
  }

  for (std::size_t i = 0; i < current.report.jobs.size(); ++i) {
    if (matched[i]) continue;
    JobDelta d;
    d.name = current.report.jobs[i].name;
    d.kind = DeltaKind::kAdded;
    d.current_status = current.report.jobs[i].status;
    out.deltas.push_back(std::move(d));
  }
  return out;
}

std::string DiffReport::summary() const {
  std::string out;
  for (const std::string& w : warnings) out += "warning: " + w + "\n";
  int regressions = 0;
  int improvements = 0;
  for (const JobDelta& d : deltas) {
    (d.improvement ? improvements : regressions) += 1;
    switch (d.kind) {
      case DeltaKind::kAdded:
        out += "  added:   " + d.name + " (" +
               driver::to_string(d.current_status) + ")\n";
        break;
      case DeltaKind::kRemoved:
        out += "  removed: " + d.name + " (was " +
               driver::to_string(d.baseline_status) + ")\n";
        break;
      case DeltaKind::kStatusChanged:
        out += "  status:  " + d.name + ": " +
               driver::to_string(d.baseline_status) + " -> " +
               driver::to_string(d.current_status) + "\n";
        break;
      case DeltaKind::kMetricDrift: {
        out += "  drift:   " + d.name + ":";
        bool first = true;
        for (const MetricDelta& m : d.metrics) {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%s %s %d -> %d (%+d)",
                        first ? "" : ",", m.metric, m.baseline, m.current,
                        m.current - m.baseline);
          out += buf;
          first = false;
        }
        out += "\n";
        break;
      }
    }
  }
  char verdict[160];
  if (clean()) {
    std::snprintf(verdict, sizeof(verdict),
                  "diff: clean — no drift (%d jobs compared)\n", jobs_compared);
  } else {
    std::snprintf(verdict, sizeof(verdict),
                  "diff: %d drifted of %d compared (%d regressions, "
                  "%d improvements, %d warnings)\n",
                  static_cast<int>(deltas.size()), jobs_compared, regressions,
                  improvements, static_cast<int>(warnings.size()));
  }
  out += verdict;
  return out;
}

std::string DiffReport::to_csv() const {
  std::string out = "name,kind,metric,baseline,current,delta\n";
  const auto row = [&](const std::string& name, DeltaKind kind,
                       const std::string& metric, const std::string& base,
                       const std::string& cur, const std::string& delta) {
    out += csv_escape(name);
    out += ',';
    out += to_string(kind);
    out += ',' + metric + ',' + base + ',' + cur + ',' + delta + '\n';
  };
  for (const JobDelta& d : deltas) {
    switch (d.kind) {
      case DeltaKind::kAdded:
        row(d.name, d.kind, "status", "", driver::to_string(d.current_status),
            "");
        break;
      case DeltaKind::kRemoved:
        row(d.name, d.kind, "status", driver::to_string(d.baseline_status), "",
            "");
        break;
      case DeltaKind::kStatusChanged:
        row(d.name, d.kind, "status", driver::to_string(d.baseline_status),
            driver::to_string(d.current_status), "");
        break;
      case DeltaKind::kMetricDrift:
        for (const MetricDelta& m : d.metrics) {
          row(d.name, d.kind, m.metric, std::to_string(m.baseline),
              std::to_string(m.current),
              std::to_string(m.current - m.baseline));
        }
        break;
    }
  }
  return out;
}

}  // namespace seance::store
