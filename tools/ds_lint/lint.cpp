#include "ds_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>

namespace ds::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool at_line_start = true;  // only whitespace since the last newline

  auto advance_lines = [&](std::string_view text) {
    line += static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    const std::size_t start = i;
    const int tok_line = line;

    // Preprocessor directive: '#' first on its line; folds \-continuations.
    // Stops at a // comment so trailing suppressions still tokenize.
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (src[i] == '\n') {
          if (i > start && src[i - 1] == '\r' ? (i >= 2 && src[i - 2] == '\\')
                                              : (i >= 1 && src[i - 1] == '\\')) {
            ++line;
            ++i;
            continue;
          }
          break;
        }
        if (src[i] == '/' && i + 1 < n && src[i + 1] == '/') break;
        ++i;
      }
      out.push_back({TokKind::kDirective, src.substr(start, i - start),
                     tok_line});
      at_line_start = false;
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      out.push_back({TokKind::kComment, src.substr(start, i - start),
                     tok_line});
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = i + 1 < n ? i + 2 : n;
      const std::string_view text = src.substr(start, i - start);
      out.push_back({TokKind::kComment, text, tok_line});
      advance_lines(text);
      continue;
    }

    // Raw string literal (any prefix like LR"/u8R" lands here via the
    // identifier path below peeking ahead — plain R"( handled directly).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      while (j < n && src[j] != '(') ++j;
      const std::string_view delim = src.substr(i + 2, j - (i + 2));
      std::string closer = ")";
      closer += delim;
      closer += '"';
      const std::size_t end = src.find(closer, j);
      i = end == std::string_view::npos ? n : end + closer.size();
      const std::string_view text = src.substr(start, i - start);
      out.push_back({TokKind::kString, text, tok_line});
      advance_lines(text);
      continue;
    }

    // Ordinary string / char literal.
    if (c == '"' || c == '\'') {
      ++i;
      while (i < n && src[i] != c) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.push_back({TokKind::kString, src.substr(start, i - start),
                     tok_line});
      continue;
    }

    // Identifier (possibly a raw-string prefix like u8R"...").
    if (ident_start(c)) {
      while (i < n && ident_char(src[i])) ++i;
      if (i + 1 < n && src[i] == '"' && src[i - 1] == 'R') {
        // Encoding-prefixed raw string: back up and let the R" path run.
        i = start;
        std::size_t r = i;
        while (src[r] != 'R') ++r;
        // Tokenize the prefix chars as part of the string.
        std::size_t j = r + 2;
        while (j < n && src[j] != '(') ++j;
        const std::string_view delim = src.substr(r + 2, j - (r + 2));
        std::string closer = ")";
        closer += delim;
        closer += '"';
        const std::size_t end = src.find(closer, j);
        i = end == std::string_view::npos ? n : end + closer.size();
        const std::string_view text = src.substr(start, i - start);
        out.push_back({TokKind::kString, text, tok_line});
        advance_lines(text);
        continue;
      }
      out.push_back({TokKind::kIdent, src.substr(start, i - start),
                     tok_line});
      continue;
    }

    // pp-number.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      ++i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.push_back({TokKind::kNumber, src.substr(start, i - start),
                     tok_line});
      continue;
    }

    // Punctuation: keep :: and -> whole (the rules key on them), all other
    // operators as single chars — enough resolution for token-level rules.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      i += 2;
    } else if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      i += 2;
    } else {
      ++i;
    }
    out.push_back({TokKind::kPunct, src.substr(start, i - start), tok_line});
  }
  return out;
}

// ---------------------------------------------------------------------
// Config.
// ---------------------------------------------------------------------

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "wallclock",          "unseeded-rng",      "unordered-container",
      "pointer-key",        "raw-trace-span",    "hook-discipline",
      "ledger-discipline",  "json-include-hygiene", "worker-kernel-config",
      "suppression-syntax",
  };
  return ids;
}

bool Config::rule_enabled(std::string_view rule, std::string_view path) const {
  bool enabled = true;
  if (const auto it = rule_defaults.find(rule); it != rule_defaults.end()) {
    enabled = it->second;
  }
  for (const PathOverride& o : overrides) {
    if (o.rule != "*" && o.rule != rule) continue;
    if (path.find(o.path_fragment) == std::string_view::npos) continue;
    enabled = o.enabled;
  }
  return enabled;
}

Config default_config() {
  Config cfg;
  // Runner code must charge through charge_traced so traces reconcile with
  // ledgers; everywhere else (tests, tools building fixture results) bare
  // charge() is legitimate. Default off, on for the runner directories.
  cfg.rule_defaults["ledger-discipline"] = false;
  // The worker rules (gemm_threads = 1 per task) live in one place; only
  // the kernels that define the knob and that place may assign it.
  cfg.rule_defaults["worker-kernel-config"] = false;
  cfg.overrides = {
      // The virtual-time contract's two wall-clock doors: the tracer's
      // wall epoch and the bench harness timer.
      {"src/obs/trace.cpp", "wallclock", false},
      {"src/support/timer.hpp", "wallclock", false},
      // The tracer implements the span API; everyone else wraps it.
      {"src/obs/", "raw-trace-span", false},
      // The monitor implements its hooks; its tests poke the slow paths
      // directly to drive detectors without a fabric.
      {"src/obs/monitor/", "hook-discipline", false},
      {"tests/", "hook-discipline", false},
      // The tracer's own tests exercise the raw begin/end API (including
      // deliberate mispairing) — that IS their subject.
      {"tests/obs_trace_test.cpp", "raw-trace-span", false},
      {"tests/obs_overhead_test.cpp", "raw-trace-span", false},
      // The linter's sources and fixtures discuss the suppression syntax
      // in prose; only real code takes suppression-syntax findings.
      {"tools/ds_lint/", "suppression-syntax", false},
      {"tests/ds_lint_test.cpp", "suppression-syntax", false},
      {"src/core/", "ledger-discipline", true},
      {"src/comm/", "ledger-discipline", true},
      // ledger.cpp itself implements charge_traced in terms of charge().
      {"src/comm/ledger.cpp", "ledger-discipline", false},
      {"src/", "worker-kernel-config", true},
      {"src/tensor/", "worker-kernel-config", false},
      {"src/nn/forward_lanes.cpp", "worker-kernel-config", false},
  };
  cfg.include_allowlists["src/obs/json.hpp"] = {
      "cstdint", "map", "memory", "string", "string_view", "vector"};
  cfg.include_allowlists["src/obs/json.cpp"] = {
      "obs/json.hpp", "cctype", "cmath",  "cstdio",
      "cstdlib",      "sstream", "support/error.hpp"};
  return cfg;
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

namespace {

struct Suppression {
  int line;      // comment line the marker sits on
  int end_line;  // last covered line (through the next code line)
  std::string rule;
};

struct SuppressionScan {
  std::vector<Suppression> allows;
  std::vector<Diagnostic> errors;  // suppression-syntax findings
};

bool known_rule(std::string_view rule) {
  const auto& ids = rule_ids();
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

/// Parse every `ds-lint: allow(<rule>): <reason>` marker in a comment.
/// Malformed markers produce suppression-syntax diagnostics and no allow —
/// a typo'd suppression must fail loudly, not silently stop suppressing.
void scan_comment(const Token& tok, std::string_view path,
                  SuppressionScan& out) {
  const std::string_view text = tok.text;
  constexpr std::string_view kMarker = "ds-lint:";
  std::size_t pos = 0;
  while ((pos = text.find(kMarker, pos)) != std::string_view::npos) {
    std::size_t p = pos + kMarker.size();
    pos = p;
    while (p < text.size() && text[p] == ' ') ++p;
    constexpr std::string_view kAllow = "allow(";
    auto fail = [&](const char* why) {
      out.errors.push_back({std::string(path), tok.line,
                            "suppression-syntax", why});
    };
    if (text.compare(p, kAllow.size(), kAllow) != 0) {
      fail("expected `ds-lint: allow(<rule>): <reason>`");
      continue;
    }
    p += kAllow.size();
    const std::size_t close = text.find(')', p);
    if (close == std::string_view::npos) {
      fail("unterminated allow(<rule>)");
      continue;
    }
    const std::string rule(text.substr(p, close - p));
    if (!known_rule(rule)) {
      fail("unknown rule id in allow()");
      continue;
    }
    // Mandatory reason: `): <non-empty text>`.
    std::size_t r = close + 1;
    while (r < text.size() && text[r] == ' ') ++r;
    if (r >= text.size() || text[r] != ':') {
      fail("suppression needs a reason: `allow(<rule>): <why>`");
      continue;
    }
    ++r;
    while (r < text.size() && text[r] == ' ') ++r;
    std::size_t reason_end = r;
    while (reason_end < text.size() && text[reason_end] != '\n' &&
           !(text[reason_end] == '*' && reason_end + 1 < text.size() &&
             text[reason_end + 1] == '/')) {
      ++reason_end;
    }
    if (reason_end <= r) {
      fail("suppression needs a non-empty reason after the colon");
      continue;
    }
    out.allows.push_back({tok.line, tok.line + 1, rule});
  }
}

bool suppressed(const SuppressionScan& scan, std::string_view rule,
                int line) {
  for (const Suppression& s : scan.allows) {
    if (s.rule == rule && s.line <= line && line <= s.end_line) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Rule engine over the significant-token stream.
// ---------------------------------------------------------------------

struct Sig {
  std::vector<const Token*> toks;  // comments/directives stripped

  const Token* at(std::size_t i) const {
    return i < toks.size() ? toks[i] : nullptr;
  }
  const Token* prev(std::size_t i) const {
    return i > 0 ? toks[i - 1] : nullptr;
  }
};

bool is_punct(const Token* t, std::string_view p) {
  return t != nullptr && t->kind == TokKind::kPunct && t->text == p;
}
bool is_ident(const Token* t, std::string_view name) {
  return t != nullptr && t->kind == TokKind::kIdent && t->text == name;
}

/// True when token i is a member access (`x.f`, `x->f`) — rules about free
/// or std-qualified functions skip those.
bool member_access(const Sig& sig, std::size_t i) {
  const Token* p = sig.prev(i);
  return is_punct(p, ".") || is_punct(p, "->");
}

/// True when token i is qualified `std::<name>` (or unqualified).
/// `foo::time` for some other namespace is NOT flagged.
bool std_qualified_or_bare(const Sig& sig, std::size_t i) {
  const Token* p = sig.prev(i);
  if (!is_punct(p, "::")) return !member_access(sig, i);
  const Token* q = i >= 2 ? sig.toks[i - 2] : nullptr;
  return is_ident(q, "std") || is_ident(q, "chrono");
}

using Emit = void (*)(void*, int line, const char* rule, std::string msg);

struct RuleCtx {
  const Sig& sig;
  void* sink;
  Emit emit;
};

void rule_wallclock(const RuleCtx& ctx) {
  static const std::set<std::string_view> kAlways = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "gettimeofday",   "clock_gettime", "timespec_get",
      "localtime",      "gmtime",        "mktime",
  };
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent) continue;
    if (kAlways.count(t->text) > 0) {
      ctx.emit(ctx.sink, t->line, "wallclock",
               "wall/monotonic clock `" + std::string(t->text) +
                   "` outside the wall-trace whitelist — serve/simhw/"
                   "monitor run on virtual time (fabric clocks)");
      continue;
    }
    if (t->text == "time" && is_punct(sig.at(i + 1), "(") &&
        std_qualified_or_bare(sig, i)) {
      ctx.emit(ctx.sink, t->line, "wallclock",
               "`time()` call outside the wall-trace whitelist");
    }
  }
}

void rule_unseeded_rng(const RuleCtx& ctx) {
  static const std::set<std::string_view> kEngines = {
      "random_device", "mt19937",       "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0",  "ranlux24",   "ranlux48",
      "ranlux24_base", "ranlux48_base", "knuth_b",
  };
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent) continue;
    if (kEngines.count(t->text) > 0) {
      ctx.emit(ctx.sink, t->line, "unseeded-rng",
               "`" + std::string(t->text) +
                   "` breaks replayability — use ds::Rng (explicitly "
                   "seeded xoshiro256**)");
      continue;
    }
    if ((t->text == "rand" || t->text == "srand") &&
        is_punct(sig.at(i + 1), "(") && std_qualified_or_bare(sig, i)) {
      ctx.emit(ctx.sink, t->line, "unseeded-rng",
               "`" + std::string(t->text) +
                   "()` uses hidden global state — use ds::Rng");
    }
  }
}

void rule_unordered_container(const RuleCtx& ctx) {
  static const std::set<std::string_view> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const Token* t : ctx.sig.toks) {
    if (t->kind == TokKind::kIdent && kContainers.count(t->text) > 0) {
      ctx.emit(ctx.sink, t->line, "unordered-container",
               "`" + std::string(t->text) +
                   "` iterates in hash order — a bitwise-determinism "
                   "hazard; use std::map/std::set (or justify with an "
                   "allow if iteration order never escapes)");
    }
  }
}

void rule_pointer_key(const RuleCtx& ctx) {
  static const std::set<std::string_view> kOrdered = {"map", "set", "multimap",
                                                      "multiset"};
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent || kOrdered.count(t->text) == 0) continue;
    // Require std:: qualification — bare `map`/`set` identifiers are
    // everyday variable names.
    const Token* p = sig.prev(i);
    if (!is_punct(p, "::") || i < 2 || !is_ident(sig.toks[i - 2], "std")) {
      continue;
    }
    if (!is_punct(sig.at(i + 1), "<")) continue;
    // Scan the first template argument (angle depth 1) and flag a raw
    // pointer key: its last token before the `,`/`>` is `*`.
    int depth = 0;
    const Token* last = nullptr;
    for (std::size_t j = i + 1; j < sig.toks.size(); ++j) {
      const Token* u = sig.toks[j];
      if (u->kind != TokKind::kPunct) {
        last = u;
        continue;
      }
      if (u->text == "<" || u->text == "(") {
        ++depth;
      } else if (u->text == ">" || u->text == ")") {
        --depth;
        if (depth == 0) break;
      } else if (u->text == "," && depth == 1) {
        break;
      } else {
        last = u;
      }
      if (depth == 0) break;
    }
    if (is_punct(last, "*")) {
      ctx.emit(ctx.sink, t->line, "pointer-key",
               "std::" + std::string(t->text) +
                   " keyed on a raw pointer orders by allocation address "
                   "— nondeterministic across runs; key on a stable id");
    }
  }
}

void rule_raw_trace_span(const RuleCtx& ctx) {
  static const std::set<std::string_view> kSpanFns = {
      "span_begin", "span_end", "span_begin_at", "span_end_at"};
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent || kSpanFns.count(t->text) == 0) continue;
    if (!is_punct(sig.at(i + 1), "(")) continue;
    if (member_access(sig, i)) continue;
    ctx.emit(ctx.sink, t->line, "raw-trace-span",
             "raw `" + std::string(t->text) +
                 "` call — use DS_TRACE_SPAN / obs::SpanGuard so begin/"
                 "end pair under early returns and exceptions (and cost "
                 "one branch when tracing is off)");
  }
}

void rule_hook_discipline(const RuleCtx& ctx) {
  static const std::set<std::string_view> kSlowPaths = {
      "on_run_begin", "on_step",       "on_retransmit", "on_serve_reply",
      "on_serve_queue", "on_tick",     "on_failure",    "on_run_finalize"};
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent || kSlowPaths.count(t->text) == 0) {
      continue;
    }
    if (!member_access(sig, i) || !is_punct(sig.at(i + 1), "(")) continue;
    ctx.emit(ctx.sink, t->line, "hook-discipline",
             "direct monitor slow-path call `" + std::string(t->text) +
                 "` — go through obs::monitor::hook_*() (one relaxed load "
                 "+ one branch when the monitor is disabled)");
  }
}

void rule_ledger_discipline(const RuleCtx& ctx) {
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (t->kind != TokKind::kIdent || t->text != "charge") continue;
    if (!member_access(sig, i) || !is_punct(sig.at(i + 1), "(")) continue;
    ctx.emit(ctx.sink, t->line, "ledger-discipline",
             "bare ledger charge() in runner code — use charge_traced() "
             "so the span IS the charge and traces reconcile with the "
             "ledger");
  }
}

void rule_worker_kernel_config(const RuleCtx& ctx) {
  const Sig& sig = ctx.sig;
  for (std::size_t i = 0; i < sig.toks.size(); ++i) {
    const Token* t = sig.toks[i];
    if (!is_ident(t, "gemm_threads") || !is_punct(sig.at(i + 1), "=") ||
        is_punct(sig.at(i + 2), "=")) {
      continue;
    }
    ctx.emit(ctx.sink, t->line, "worker-kernel-config",
             "`gemm_threads` assigned outside src/tensor — run worker tasks "
             "through worker_parallel_for (nn/forward_lanes.hpp), which "
             "applies the worker rules once");
  }
}

void rule_json_include_hygiene(const Config& cfg, std::string_view path,
                               const std::vector<Token>& toks,
                               const RuleCtx& ctx) {
  const std::vector<std::string>* allow = nullptr;
  for (const auto& [fragment, list] : cfg.include_allowlists) {
    if (path.find(fragment) != std::string_view::npos) {
      allow = &list;
      break;
    }
  }
  if (allow == nullptr) return;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kDirective) continue;
    std::string_view text = t.text;
    const std::size_t inc = text.find("include");
    if (inc == std::string_view::npos) continue;
    text.remove_prefix(inc + 7);
    std::size_t b = text.find_first_of("<\"");
    if (b == std::string_view::npos) continue;
    const char close = text[b] == '<' ? '>' : '"';
    const std::size_t e = text.find(close, b + 1);
    if (e == std::string_view::npos) continue;
    const std::string target(text.substr(b + 1, e - b - 1));
    if (std::find(allow->begin(), allow->end(), target) == allow->end()) {
      ctx.emit(ctx.sink, t.line, "json-include-hygiene",
               "include of \"" + target +
                   "\" — obs/json carries a frozen include set (the "
                   "no-dependency contract); extend DESIGN.md §14 and the "
                   "ds_lint allowlist together if this is deliberate");
    }
  }
}

}  // namespace

std::vector<Diagnostic> lint_file(const Config& config, std::string_view path,
                                  std::string_view source) {
  const std::vector<Token> toks = tokenize(source);

  SuppressionScan scan;
  Sig sig;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kComment) {
      scan_comment(t, path, scan);
    } else if (t.kind != TokKind::kDirective) {
      sig.toks.push_back(&t);
    }
  }

  // An allow covers its own line and everything down to (and including) the
  // first code line below it, so wrapped justification comments still reach
  // the declaration they annotate.
  {
    std::set<int> code_lines;
    int max_line = 1;
    for (const Token* t : sig.toks) {
      code_lines.insert(t->line);
      max_line = std::max(max_line, t->line);
    }
    for (Suppression& s : scan.allows) {
      if (code_lines.count(s.line) > 0) continue;  // trailing-comment style
      int e = s.line + 1;
      while (e <= max_line && code_lines.count(e) == 0) ++e;
      s.end_line = e;
    }
  }

  struct Sink {
    const Config* config;
    std::string_view path;
    const SuppressionScan* scan;
    std::vector<Diagnostic> diags;
  } sink{&config, path, &scan, {}};

  const Emit emit = [](void* raw, int line, const char* rule,
                       std::string msg) {
    Sink& s = *static_cast<Sink*>(raw);
    if (!s.config->rule_enabled(rule, s.path)) return;
    if (suppressed(*s.scan, rule, line)) return;
    s.diags.push_back({std::string(s.path), line, rule, std::move(msg)});
  };
  const RuleCtx ctx{sig, &sink, emit};

  rule_wallclock(ctx);
  rule_unseeded_rng(ctx);
  rule_unordered_container(ctx);
  rule_pointer_key(ctx);
  rule_raw_trace_span(ctx);
  rule_hook_discipline(ctx);
  if (config.rule_enabled("ledger-discipline", path)) {
    rule_ledger_discipline(ctx);
  }
  rule_json_include_hygiene(config, path, toks, ctx);
  rule_worker_kernel_config(ctx);

  if (config.rule_enabled("suppression-syntax", path)) {
    for (Diagnostic& d : scan.errors) sink.diags.push_back(std::move(d));
  }

  std::sort(sink.diags.begin(), sink.diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return std::move(sink.diags);
}

}  // namespace ds::lint
