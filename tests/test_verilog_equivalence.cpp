// Differential tests for the single-pass Verilog codec and the
// allocation-free Expr::gate_count.
//
// to_verilog and parse_verilog are held to the stream writer and the
// token-vector reader they replaced (tests/oracles/netlist/): on every
// golden-corpus machine the two writers emit the same bytes and the two
// readers rebuild the same Netlist, and on a seeded gauntlet of mutated
// modules both readers accept the same texts and throw the same message.
// gate_count is held to the hash-set walk it replaced on every equation.

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/expr.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verilog_reference.hpp"
#include "search/search.hpp"

namespace seance::netlist {
namespace {

/// Expr::gate_count as it was: a hash set of every node visited.
int hash_set_gate_count(const logic::ExprPtr& root) {
  std::unordered_set<const logic::Expr*> seen;
  int count = 0;
  const auto walk = [&](auto&& self, const logic::Expr* e) -> void {
    if (!seen.insert(e).second) return;
    if (e->op() != logic::Op::kConst && e->op() != logic::Op::kVar) ++count;
    for (const logic::ExprPtr& k : e->kids()) self(self, k.get());
  };
  walk(walk, root.get());
  return count;
}

void expect_same_netlist(const Netlist& got, const Netlist& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.gates().size(); ++i) {
    const Gate& a = got.gates()[i];
    const Gate& b = want.gates()[i];
    EXPECT_EQ(a.kind, b.kind) << what << " gate n" << i;
    EXPECT_EQ(a.const_value, b.const_value) << what << " gate n" << i;
    EXPECT_EQ(a.fanin, b.fanin) << what << " gate n" << i;
    EXPECT_EQ(a.name, b.name) << what << " gate n" << i;
  }
  EXPECT_EQ(got.outputs(), want.outputs()) << what;
}

/// Reads `text` with both readers.  Both must accept it and rebuild the
/// same Netlist, or both must throw the same message, which is returned
/// ("" when accepted).
std::string read_both(const std::string& text) {
  std::optional<Netlist> got;
  std::optional<Netlist> want;
  std::string got_error;
  std::string want_error;
  try {
    got = parse_verilog(text);
  } catch (const std::runtime_error& e) {
    got_error = e.what();
  }
  try {
    want = reference_parse_verilog(text);
  } catch (const std::runtime_error& e) {
    want_error = e.what();
  }
  EXPECT_EQ(got_error, want_error) << text;
  if (got && want) expect_same_netlist(*got, *want, text);
  return got_error;
}

/// Writes `n` with both writers, then reads the text back with both
/// readers; returns the text.
std::string write_and_read_both(const Netlist& n, const std::string& what) {
  const std::string text = to_verilog(n, "m");
  EXPECT_EQ(text, reference_to_verilog(n, "m")) << what;
  EXPECT_EQ(read_both(text), "") << what;
  EXPECT_EQ(to_verilog(parse_verilog(text), "m"), text) << what;
  return text;
}

/// The golden corpus (tests/data/golden_corpus.csv) by part, with the
/// CLI's default seed, synthesized the way the batch runner does it.
std::vector<std::pair<std::string, core::FantomMachine>> golden_machines(
    const std::string& part) {
  driver::BatchRunner corpus;
  const std::uint64_t seed = bench_suite::GeneratorOptions{}.seed;
  if (part == "table1") corpus.add_table1_suite();
  if (part == "extra") corpus.add_extra_suite();
  if (part == "generated") corpus.add_generated(200, bench_suite::GeneratorOptions{});
  if (part == "hard") corpus.add_hard_generated(50, seed);
  if (part == "harder") corpus.add_harder_generated(25, seed);
  if (part == "hardest") corpus.add_hardest_generated(25, seed);
  search::TranspositionTable tt(core::SynthesisOptions::tt_mb << 20);
  std::vector<std::pair<std::string, core::FantomMachine>> machines;
  for (const driver::JobSpec& job : corpus.jobs()) {
    machines.emplace_back(job.name, core::synthesize(job.table, job.options, &tt));
  }
  return machines;
}

/// Both writers and readers on every machine of one part of the golden
/// corpus, and gate_count against the hash-set walk on its equations.
void check_golden_part(const std::string& part) {
  const auto machines = golden_machines(part);
  ASSERT_FALSE(machines.empty());
  for (const auto& [name, machine] : machines) {
    Netlist n;
    (void)build_fantom(machine, n);
    (void)write_and_read_both(n, name);
    std::vector<logic::ExprPtr> equations = {machine.fsv.expr, machine.ssd.expr};
    for (const auto& eq : machine.y) equations.push_back(eq.expr);
    for (const auto& eq : machine.z) equations.push_back(eq.expr);
    for (const logic::ExprPtr& e : equations) {
      if (e != nullptr) {
        EXPECT_EQ(e->gate_count(), hash_set_gate_count(e)) << name;
      }
    }
  }
}

TEST(VerilogEquivalence, GoldenTable1) { check_golden_part("table1"); }
TEST(VerilogEquivalence, GoldenExtra) { check_golden_part("extra"); }
TEST(VerilogEquivalence, GoldenGenerated) { check_golden_part("generated"); }
TEST(VerilogEquivalence, GoldenHard) { check_golden_part("hard"); }
TEST(VerilogEquivalence, GoldenHarder) { check_golden_part("harder"); }
TEST(VerilogEquivalence, GoldenHardest) { check_golden_part("hardest"); }

/// The sanitized-port netlists of test_verilog.cpp, plus a baseline
/// (fsv-less) FANTOM machine.
std::vector<Netlist> port_netlists() {
  std::vector<Netlist> all;
  {
    Netlist n;
    const int a = n.add_input("n7");
    n.set_output("F", n.add_gate(GateKind::kNot, {a}));
    all.push_back(n);
  }
  {
    Netlist n;
    const int a = n.add_input("module");
    const int b = n.add_input("a-b");
    const int c = n.add_input("1st");
    n.set_output("F", n.add_gate(GateKind::kAnd, {a, b, c}));
    all.push_back(n);
  }
  {
    Netlist n;
    const int a = n.add_input("a b");
    const int b = n.add_input("a_b");
    n.set_output("F", n.add_gate(GateKind::kOr, {a, b}));
    all.push_back(n);
  }
  {
    Netlist n;
    const int a = n.add_input("n7");
    const int b = n.add_input("module");
    n.set_output("F", n.add_gate(GateKind::kAnd, {a, b}));
    all.push_back(n);
  }
  {
    Netlist n;
    const int a = n.add_input("");
    const int one = n.add_const(true);
    const int inv = n.add_gate(GateKind::kNot, {a});
    const int buf = n.add_placeholder("fb");
    n.connect(buf, inv);
    n.set_output("K", one);
    n.set_output("in0", inv);
    n.set_output("x y", buf);
    all.push_back(n);
  }
  core::SynthesisOptions naive;
  naive.add_fsv = false;
  Netlist baseline;
  (void)build_fantom(
      core::synthesize(bench_suite::load(bench_suite::by_name("lion9")), naive),
      baseline);
  all.push_back(baseline);
  return all;
}

TEST(VerilogEquivalence, SanitizedPortNetlistsWriteAndReadAlike) {
  for (const Netlist& n : port_netlists()) (void)write_and_read_both(n, n.to_string());
}

// ---- mutation gauntlet ------------------------------------------------

/// Token spans of an emitted module: identifier/number runs and single
/// punctuation characters.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '$' || c == '\'';
  };
  for (std::size_t i = 0; i < text.size();) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    if (word(text[i])) {
      while (j < text.size() && word(text[j])) ++j;
    }
    spans.emplace_back(i, j - i);
    i = j;
  }
  return spans;
}

std::string mutate(const std::string& text, std::mt19937_64& rng) {
  const auto spans = token_spans(text);
  if (spans.empty()) return text;  // truncated to nothing by an earlier edit
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n));
  };
  std::string out = text;
  switch (rng() % 6) {
    case 0: {  // delete a token
      const auto [at, len] = spans[pick(spans.size())];
      out.erase(at, len);
      break;
    }
    case 1: {  // duplicate a token
      const auto [at, len] = spans[pick(spans.size())];
      out.insert(at, text.substr(at, len) + " ");
      break;
    }
    case 2: {  // swap two tokens
      auto a = spans[pick(spans.size())];
      auto b = spans[pick(spans.size())];
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) break;
      out = text.substr(0, a.first) + text.substr(b.first, b.second) +
            text.substr(a.first + a.second, b.first - a.first - a.second) +
            text.substr(a.first, a.second) + text.substr(b.first + b.second);
      break;
    }
    case 3: {  // flip a byte
      out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
      break;
    }
    case 4: {  // respell one n<k> as n0<k>
      std::vector<std::size_t> wires;
      for (const auto& [at, len] : spans) {
        if (len >= 2 && text[at] == 'n' &&
            std::isdigit(static_cast<unsigned char>(text[at + 1])) != 0) {
          wires.push_back(at);
        }
      }
      if (!wires.empty()) out.insert(wires[pick(wires.size())] + 1, "0");
      break;
    }
    default:  // truncate
      out.resize(pick(out.size()));
      break;
  }
  return out;
}

/// A diagnostic without its line, quoted tokens and numbers.
std::string diagnostic_kind(const std::string& error) {
  std::string kind;
  bool quoted = false;
  for (const char c : error.substr(error.find(": ", error.find("line")) + 2)) {
    if (c == '\'') quoted = !quoted;
    if (!quoted && std::isdigit(static_cast<unsigned char>(c)) == 0) kind += c;
  }
  return kind;
}

TEST(VerilogEquivalence, MutatedModulesFailAlike) {
  std::vector<std::string> texts;
  for (const Netlist& n : port_netlists()) texts.push_back(to_verilog(n, "m"));
  for (const auto& b : bench_suite::table1_suite()) {
    Netlist n;
    (void)build_fantom(core::synthesize(bench_suite::load(b)), n);
    texts.push_back(to_verilog(n, "fantom"));
  }
  std::mt19937_64 rng(36);
  std::set<std::string> messages;
  int accepted = 0;
  for (const std::string& text : texts) {
    for (int round = 0; round < 300; ++round) {
      // One to three edits: stacked edits put an error of one kind ahead
      // of another, which is where the readers' precedence rules show.
      std::string mutant = text;
      for (auto edits = 1 + rng() % 3; edits > 0; --edits) mutant = mutate(mutant, rng);
      const std::string error = read_both(mutant);
      if (error.empty()) {
        ++accepted;
      } else {
        messages.insert(diagnostic_kind(error));
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The gauntlet reaches both outcomes and a spread of diagnostics.
  EXPECT_GT(accepted, 0);
  EXPECT_GE(messages.size(), 15u);
}

}  // namespace
}  // namespace seance::netlist
