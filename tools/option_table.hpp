// Declarative option tables for seance_cli.
//
// Every subcommand used to hand-roll its own strcmp chain, so the four
// parsers drifted: different diagnostics for the same mistake, help text
// maintained by hand three screens away from the flag it described, and
// valued options that silently ate the next flag.  An OptionTable is the
// one place a flag is declared — name, value placeholder, help line,
// destination — and parse() gives every subcommand the same contract:
//
//   * unknown option        ->  "unknown <cmd> option --x"
//   * missing value         ->  "option --x requires a value"
//   * non-numeric value     ->  "option --x needs a number, got 'v'"
//   * out-of-range value    ->  "option --x needs an integer in [lo, hi],
//                                got 'v'" (or "a finite number")
//   * --help                ->  the generated table, kHelp (exit 0)
//
// Hidden entries (the shard worker protocol) parse normally but stay out
// of --help.  Non-dashed arguments go to the positional sink when the
// subcommand has one (diff paths, the single-table target) and are
// unknown-option errors otherwise.

#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace seance::cli {

enum class ParseResult {
  kOk,
  kHelp,   ///< --help was printed; exit 0 without running
  kError,  ///< diagnostic was printed; exit nonzero
};

class OptionTable {
 public:
  /// `context` names the subcommand in diagnostics ("batch", "diff", ...);
  /// empty means the bare single-table mode ("unknown option --x").
  explicit OptionTable(std::string context) : context_(std::move(context)) {}

  /// One synopsis line printed above the generated option listing.
  OptionTable& synopsis(std::string text) {
    synopsis_ = std::move(text);
    return *this;
  }

  OptionTable& flag(const std::string& name, std::string help,
                    std::function<void()> on_set) {
    return add(name, "", std::move(help), /*takes_value=*/false,
               [fn = std::move(on_set)](const std::string&) {
                 fn();
                 return true;
               });
  }

  OptionTable& flag(const std::string& name, std::string help, bool* out,
                    bool value = true) {
    return flag(name, std::move(help), [out, value] { *out = value; });
  }

  OptionTable& text(const std::string& name, std::string placeholder,
                    std::string help, std::string* out) {
    return add(name, std::move(placeholder), std::move(help),
               /*takes_value=*/true, [out](const std::string& v) {
                 *out = v;
                 return true;
               });
  }

  /// Repeatable string option (e.g. --kiss-file).
  OptionTable& each(const std::string& name, std::string placeholder,
                    std::string help, std::vector<std::string>* out) {
    return add(name, std::move(placeholder), std::move(help),
               /*takes_value=*/true, [out](const std::string& v) {
                 out->push_back(v);
                 return true;
               });
  }

  /// Numeric option.  Every target type takes the same rule: the whole
  /// value must parse and land inside the type's range, so an integer
  /// never wraps and a floating value is finite.  Out of range is an
  /// error naming the option, never a silent cast.
  template <typename T>
  OptionTable& number(const std::string& name, std::string placeholder,
                      std::string help, T* out) {
    static_assert(std::is_arithmetic_v<T>);
    // A finite double may still overflow a narrower floating type.
    static_assert(!std::is_floating_point_v<T> || std::is_same_v<T, double>);
    return add(name, std::move(placeholder), std::move(help),
               /*takes_value=*/true, [name, out](const std::string& v) {
                 char* end = nullptr;
                 errno = 0;
                 if constexpr (std::is_floating_point_v<T>) {
                   const double n = std::strtod(v.c_str(), &end);
                   if (end == v.c_str() || *end != '\0') {
                     return bad_number(name, v);
                   }
                   if (!std::isfinite(n)) {
                     return out_of_range(name, v, "a finite number");
                   }
                   *out = static_cast<T>(n);
                 } else if constexpr (std::is_unsigned_v<T>) {
                   // strtoull negates a signed value: "-1" would wrap.
                   const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
                   if (end == v.c_str() || *end != '\0') {
                     return bad_number(name, v);
                   }
                   if (v.find('-') != std::string::npos || errno == ERANGE ||
                       n > std::numeric_limits<T>::max()) {
                     return out_of_range(name, v, range_text<T>());
                   }
                   *out = static_cast<T>(n);
                 } else {
                   const long long n = std::strtoll(v.c_str(), &end, 10);
                   if (end == v.c_str() || *end != '\0') {
                     return bad_number(name, v);
                   }
                   if (errno == ERANGE || n < std::numeric_limits<T>::min() ||
                       n > std::numeric_limits<T>::max()) {
                     return out_of_range(name, v, range_text<T>());
                   }
                   *out = static_cast<T>(n);
                 }
                 return true;
               });
  }

  /// Valued option with a caller-owned validator; `apply` prints its own
  /// reason and returns false on a bad value.
  OptionTable& custom(const std::string& name, std::string placeholder,
                      std::string help,
                      std::function<bool(const std::string&)> apply) {
    return add(name, std::move(placeholder), std::move(help),
               /*takes_value=*/true, std::move(apply));
  }

  /// Marks the most recently added option as hidden from --help.
  OptionTable& hidden() {
    entries_.back().hidden = true;
    return *this;
  }

  /// Marks the most recently added option as orchestrator-side plumbing
  /// (shard control, output paths, thread budgets) rather than part of
  /// the corpus recipe.  forwarded_args() strips exactly these, so a new
  /// orchestrator flag declared here can never leak into worker argv —
  /// the strip list is generated from the declarations, not maintained
  /// by hand.
  OptionTable& orchestrator_only() {
    entries_.back().orchestrator_only = true;
    return *this;
  }

  /// argv[begin..) minus every orchestrator_only() option (and its
  /// value): the corpus recipe a re-exec'd worker needs to rebuild the
  /// same jobs.  Positionals and unknown arguments pass through.
  [[nodiscard]] std::vector<std::string> forwarded_args(int argc, char** argv,
                                                        int begin) const {
    std::vector<std::string> out;
    for (int i = begin; i < argc; ++i) {
      const std::string arg = argv[i];
      const Entry* entry = find(arg);
      if (entry != nullptr && entry->orchestrator_only) {
        if (entry->takes_value && i + 1 < argc) ++i;
        continue;
      }
      out.push_back(arg);
    }
    return out;
  }

  /// Parses argv[begin..).  Non-dashed arguments land in `positionals`
  /// when given, and are unknown-option errors otherwise.
  [[nodiscard]] ParseResult parse(
      int argc, char** argv, int begin,
      std::vector<std::string>* positionals = nullptr) const {
    for (int i = begin; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        std::printf("%s", help_text().c_str());
        return ParseResult::kHelp;
      }
      const Entry* entry = find(arg);
      if (entry == nullptr) {
        if (positionals != nullptr && arg.rfind("--", 0) != 0) {
          positionals->push_back(arg);
          continue;
        }
        if (context_.empty()) {
          std::printf("unknown option %s\n", arg.c_str());
        } else {
          std::printf("unknown %s option %s\n", context_.c_str(), arg.c_str());
        }
        return ParseResult::kError;
      }
      std::string value;
      if (entry->takes_value) {
        if (i + 1 >= argc) {
          std::printf("option %s requires a value\n", arg.c_str());
          return ParseResult::kError;
        }
        value = argv[++i];
      }
      if (!entry->apply(value)) return ParseResult::kError;
    }
    return ParseResult::kOk;
  }

  /// The generated help: the synopsis plus one aligned line per visible
  /// option.
  [[nodiscard]] std::string help_text() const {
    std::string out;
    if (!synopsis_.empty()) {
      out += synopsis_;
      out += "\noptions:\n";
    }
    std::size_t width = 0;
    for (const Entry& e : entries_) {
      if (!e.hidden) width = std::max(width, e.label().size());
    }
    for (const Entry& e : entries_) {
      if (e.hidden) continue;
      const std::string label = e.label();
      out += "  " + label + std::string(width - label.size() + 2, ' ') +
             e.help + "\n";
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string placeholder;
    std::string help;
    bool takes_value = false;
    bool hidden = false;
    bool orchestrator_only = false;
    std::function<bool(const std::string&)> apply;

    [[nodiscard]] std::string label() const {
      return placeholder.empty() ? name : name + " " + placeholder;
    }
  };

  static bool bad_number(const std::string& name, const std::string& value) {
    std::printf("option %s needs a number, got '%s'\n", name.c_str(),
                value.c_str());
    return false;
  }

  static bool out_of_range(const std::string& name, const std::string& value,
                           const std::string& range) {
    std::printf("option %s needs %s, got '%s'\n", name.c_str(), range.c_str(),
                value.c_str());
    return false;
  }

  template <typename T>
  static std::string range_text() {
    return "an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
           ", " + std::to_string(std::numeric_limits<T>::max()) + "]";
  }

  OptionTable& add(const std::string& name, std::string placeholder,
                   std::string help, bool takes_value,
                   std::function<bool(const std::string&)> apply) {
    Entry entry;
    entry.name = name;
    entry.placeholder = std::move(placeholder);
    entry.help = std::move(help);
    entry.takes_value = takes_value;
    entry.apply = std::move(apply);
    entries_.push_back(std::move(entry));
    return *this;
  }

  [[nodiscard]] const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  std::string context_;
  std::string synopsis_;
  std::vector<Entry> entries_;
};

}  // namespace seance::cli
