// ds_lint — the repo-invariant analyzer (DESIGN.md §14).
//
// The dynamic checkers (check_trace, explore, TSan) can only sample
// schedules we happen to execute; ds_lint enforces the invariants that are
// *textual* properties of the tree, on every line, at lint time:
//
//   wallclock              no wall/monotonic clock reads outside the obs
//                          wall-trace whitelist (trace.cpp epoch,
//                          support/timer.hpp) — everything else runs on
//                          virtual time.
//   unseeded-rng           no rand()/random_device/std engines; randomness
//                          goes through ds::Rng (xoshiro256**, explicitly
//                          seeded) so runs replay bit-exactly.
//   unordered-container    no std::unordered_{map,set,...} — hash-order
//                          iteration is a bitwise-determinism hazard.
//   pointer-key            no std::map/set keyed on raw pointers —
//                          allocation-order iteration, same hazard.
//   raw-trace-span         no bare obs::span_begin/span_end outside the
//                          tracer itself; use DS_TRACE_SPAN / SpanGuard so
//                          begin/end pair by construction (exceptions
//                          included).
//   hook-discipline        monitor slow paths (Monitor::on_*) are reached
//                          only through the one-branch hook_*() wrappers
//                          outside src/obs (tests poke them directly by
//                          design).
//   ledger-discipline      runner code charges ledgers with charge_traced()
//                          (span and charge are the same call, so traces
//                          reconcile with ledgers); bare charge() is for
//                          fixtures.
//   json-include-hygiene   src/obs/json.{hpp,cpp} include only their frozen
//                          allowlists — the "no dependencies beyond the
//                          standard library" contract.
//   worker-kernel-config   no `gemm_threads` assignment in src/ outside
//                          src/tensor and nn/forward_lanes.cpp: worker
//                          tasks get their kernel rules from
//                          worker_parallel_for, the one copy.
//   suppression-syntax     malformed // ds-lint: allow(...) comments (not a
//                          style rule: a typo'd suppression silently turns
//                          into no suppression).
//
// Deliberately dependency-free: a hand-written tokenizer over raw source,
// no LLVM. That caps precision at the token level — the rules are written
// so that everything they flag is worth a human look, and escapes go
// through `// ds-lint: allow(<rule>): <reason>` with a mandatory reason.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ds::lint {

// ---------------------------------------------------------------------
// Tokenizer. Comment and preprocessor tokens are kept (suppressions live
// in comments, include hygiene in directives); rules that read code skip
// them.
// ---------------------------------------------------------------------

enum class TokKind {
  kIdent,
  kNumber,
  kString,     // includes raw strings and char literals
  kPunct,      // "::" and "->" are single tokens; all else single chars
  kComment,    // text includes the // or /* */ delimiters
  kDirective,  // whole preprocessor directive (continuations folded)
};

struct Token {
  TokKind kind;
  std::string_view text;  // view into the source buffer
  int line;               // 1-based line of the token's first character
};

/// Tokenize C++ source. Never throws on malformed input — an unterminated
/// string or comment just ends the token at EOF (lint must not die on the
/// code it is judging).
std::vector<Token> tokenize(std::string_view source);

// ---------------------------------------------------------------------
// Configuration: per-directory rule sets.
// ---------------------------------------------------------------------

/// Enables or disables one rule for every path containing `path_fragment`
/// (substring match on the normalized path, so configs work for relative
/// and absolute invocations alike). Later overrides win.
struct PathOverride {
  std::string path_fragment;
  std::string rule;  // "*" = every rule
  bool enabled;
};

struct Config {
  /// Default enablement per rule id; rules absent from the map default on.
  std::map<std::string, bool, std::less<>> rule_defaults;
  std::vector<PathOverride> overrides;
  /// json-include-hygiene: path fragment -> exact allowed include set
  /// (as written between the <> or "" of the directive).
  std::map<std::string, std::vector<std::string>, std::less<>>
      include_allowlists;

  bool rule_enabled(std::string_view rule, std::string_view path) const;
};

/// The repo's invariants: every rule on everywhere, minus the documented
/// whitelists (wall-trace files, the tracer's own span implementation,
/// monitor tests, ...). The rule catalog in DESIGN.md §14 mirrors this.
Config default_config();

/// All known rule ids, in catalog order.
const std::vector<std::string>& rule_ids();

// ---------------------------------------------------------------------
// Linting.
// ---------------------------------------------------------------------

struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Lint one file's contents. `path` is used for rule selection (per-dir
/// config), whitelists, and the diagnostics; no filesystem access happens
/// here — callers (CLI, tests) read or synthesize the content.
///
/// Suppressions: a comment `// ds-lint: allow(<rule>): <reason>` silences
/// that rule on its own line and the line directly below (trailing and
/// comment-above styles). The reason is mandatory; an allow without one is
/// itself a diagnostic and suppresses nothing.
std::vector<Diagnostic> lint_file(const Config& config, std::string_view path,
                                  std::string_view source);

}  // namespace ds::lint
