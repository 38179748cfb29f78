// Fixture suite for ds_lint (DESIGN.md §14): one known-bad snippet per
// rule, asserting exactly one diagnostic with the right rule id and line;
// plus suppression-comment and whitelist-path behavior, and tokenizer
// edge cases (strings, raw strings, comments must never trip rules).

#include "ds_lint/lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using ds::lint::Config;
using ds::lint::Diagnostic;
using ds::lint::default_config;
using ds::lint::lint_file;

std::vector<Diagnostic> lint(std::string_view path, std::string_view src) {
  return lint_file(default_config(), path, src);
}

/// Exactly one finding, with the expected rule and line.
void expect_single(const std::vector<Diagnostic>& diags,
                   const std::string& rule, int line) {
  ASSERT_EQ(diags.size(), 1u) << "want exactly one " << rule << " finding";
  EXPECT_EQ(diags[0].rule, rule);
  EXPECT_EQ(diags[0].line, line);
}

// ---------------------------------------------------------------------
// One seeded violation per rule.
// ---------------------------------------------------------------------

TEST(DsLintRules, WallclockChronoClock) {
  const char* src =
      "#include <chrono>\n"
      "double now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  expect_single(lint("src/serve/bad.cpp", src), "wallclock", 3);
}

TEST(DsLintRules, WallclockBareTimeCall) {
  const char* src = "long stamp() { return time(nullptr); }\n";
  expect_single(lint("src/simhw/bad.cpp", src), "wallclock", 1);
}

TEST(DsLintRules, WallclockGettimeofday) {
  const char* src = "void f(timeval* tv) { gettimeofday(tv, nullptr); }\n";
  expect_single(lint("src/core/bad.cpp", src), "wallclock", 1);
}

TEST(DsLintRules, UnseededRng) {
  const char* src =
      "#include <random>\n"
      "int roll() {\n"
      "  std::random_device rd;\n"
      "  return static_cast<int>(rd());\n"
      "}\n";
  expect_single(lint("src/data/bad.cpp", src), "unseeded-rng", 3);
}

TEST(DsLintRules, UnseededRandCall) {
  const char* src = "int roll() { return rand() % 6; }\n";
  expect_single(lint("src/data/bad.cpp", src), "unseeded-rng", 1);
}

TEST(DsLintRules, UnorderedContainer) {
  const char* src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> counts;\n";
  expect_single(lint("src/comm/bad.cpp", src), "unordered-container", 2);
}

TEST(DsLintRules, PointerKey) {
  const char* src =
      "#include <map>\n"
      "struct Node;\n"
      "std::map<const Node*, int> order;\n";
  expect_single(lint("src/core/bad.cpp", src), "pointer-key", 3);
}

TEST(DsLintRules, PointerKeyCleanOnValueKeys) {
  const char* src =
      "#include <map>\n"
      "std::map<std::string, int*> fine;  // pointer VALUES are fine\n"
      "std::map<int, int> also_fine;\n";
  EXPECT_TRUE(lint("src/core/ok.cpp", src).empty());
}

TEST(DsLintRules, RawTraceSpan) {
  const char* src =
      "void step() {\n"
      "  obs::span_begin(\"layer\", \"fwd\");\n"
      "  work();\n"
      "  obs::span_end();\n"
      "}\n";
  const auto diags = lint("src/nn/bad.cpp", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "raw-trace-span");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].rule, "raw-trace-span");
  EXPECT_EQ(diags[1].line, 4);
}

TEST(DsLintRules, HookDiscipline) {
  const char* src =
      "void drive(ds::obs::monitor::Monitor& m) {\n"
      "  m.on_step(0, 1.0, 0.5);\n"
      "}\n";
  expect_single(lint("src/core/bad.cpp", src), "hook-discipline", 2);
}

TEST(DsLintRules, LedgerDiscipline) {
  const char* src =
      "void account(ds::CostLedger& ledger) {\n"
      "  ledger.charge(ds::Phase::kCpuUpdate, 0.25);\n"
      "}\n";
  expect_single(lint("src/core/bad.cpp", src), "ledger-discipline", 2);
}

TEST(DsLintRules, LedgerDisciplineOffOutsideRunners) {
  // Bare charge() is fine in tests and tools (fixture construction).
  const char* src = "void f(L& l) { l.charge(P::kInit, 1.0); }\n";
  EXPECT_TRUE(lint("tests/some_test.cpp", src).empty());
}

TEST(DsLintRules, JsonIncludeHygiene) {
  const char* src =
      "#include <map>\n"
      "#include <sstream>\n"  // not in json.hpp's frozen allowlist
      "#include <string>\n";
  expect_single(lint("src/obs/json.hpp", src), "json-include-hygiene", 2);
}

TEST(DsLintRules, JsonIncludeHygieneOnlyAppliesToJsonFiles) {
  const char* src = "#include <sstream>\n#include <iostream>\n";
  EXPECT_TRUE(lint("src/obs/chrome_trace.cpp", src).empty());
}

// ---------------------------------------------------------------------
// Whitelist paths: the per-directory config, not the rule, decides.
// ---------------------------------------------------------------------

TEST(DsLintWhitelist, WallTraceFilesMayReadClocks) {
  const char* src =
      "auto epoch = std::chrono::steady_clock::now();\n"
      "long t = time(nullptr);\n";
  EXPECT_TRUE(lint("src/obs/trace.cpp", src).empty());
  EXPECT_TRUE(lint("src/support/timer.hpp", src).empty());
  // ... and the identical content flags anywhere else.
  EXPECT_EQ(lint("src/serve/server.cpp", src).size(), 2u);
}

TEST(DsLintWhitelist, TracerImplementsRawSpans) {
  const char* src = "void span_begin(const char* c, const char* n) {}\n"
                    "void user() { span_begin(\"a\", \"b\"); }\n";
  EXPECT_TRUE(lint("src/obs/trace.cpp", src).empty());
}

TEST(DsLintWhitelist, MonitorTestsMayCallSlowPaths) {
  const char* src = "void f(M& m) { m.on_run_begin(4); }\n";
  EXPECT_TRUE(lint("tests/monitor_test.cpp", src).empty());
  EXPECT_EQ(lint("src/serve/server.cpp", src).size(), 1u);
}

TEST(DsLintWhitelist, AbsoluteAndRelativePathsMatchTheSameConfig) {
  const char* src = "std::unordered_set<int> s;\n";
  EXPECT_EQ(lint("src/comm/x.cpp", src).size(), 1u);
  EXPECT_EQ(lint("/root/repo/src/comm/x.cpp", src).size(), 1u);
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

TEST(DsLintSuppression, TrailingAllowSilencesItsLine) {
  const std::string src =
      "std::unordered_map<int, int> m;  "
      "// ds-lint: allow(unordered-container): lookup only, never iterated\n";
  EXPECT_TRUE(lint("src/comm/x.cpp", src).empty());
}

TEST(DsLintSuppression, AllowAboveCoversTheNextCodeLine) {
  const std::string src =
      "// ds-lint: allow(unordered-container): membership probe, order\n"
      "// never observed by any output path\n"
      "std::unordered_set<int> seen;\n";
  EXPECT_TRUE(lint("src/comm/x.cpp", src).empty());
}

TEST(DsLintSuppression, AllowOnlySilencesTheNamedRule) {
  const std::string src =
      "// ds-lint: allow(wallclock): wrong rule for this line\n"
      "std::unordered_set<int> seen;\n";
  expect_single(lint("src/comm/x.cpp", src), "unordered-container", 2);
}

TEST(DsLintSuppression, AllowDoesNotLeakPastTheNextCodeLine) {
  const std::string src =
      "// ds-lint: allow(unordered-container): only the first declaration\n"
      "std::unordered_set<int> a;\n"
      "std::unordered_set<int> b;\n";
  expect_single(lint("src/comm/x.cpp", src), "unordered-container", 3);
}

TEST(DsLintSuppression, MissingReasonIsItselfADiagnostic) {
  const std::string src =
      "// ds-lint: allow(unordered-container)\n"
      "std::unordered_set<int> seen;\n";
  const auto diags = lint("src/comm/x.cpp", src);
  ASSERT_EQ(diags.size(), 2u);  // the bad allow AND the unsuppressed finding
  EXPECT_EQ(diags[0].rule, "suppression-syntax");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].rule, "unordered-container");
  EXPECT_EQ(diags[1].line, 2);
}

TEST(DsLintSuppression, UnknownRuleIdIsRejected) {
  const std::string src =
      "// ds-lint: allow(not-a-rule): reason text\n"
      "int x = 0;\n";
  expect_single(lint("src/comm/x.cpp", src), "suppression-syntax", 1);
}

// ---------------------------------------------------------------------
// Tokenizer: rule words inside strings, raw strings, and comments are
// inert; member calls and non-std qualifiers don't fool the call rules.
// ---------------------------------------------------------------------

TEST(DsLintTokenizer, StringsAndCommentsAreInert) {
  const char* src =
      "const char* a = \"std::unordered_map rand() steady_clock\";\n"
      "const char* b = R\"(gettimeofday(span_begin))\";\n"
      "/* random_device time(nullptr) */\n"
      "int c = 0;  // mt19937 unordered_set\n";
  EXPECT_TRUE(lint("src/comm/x.cpp", src).empty());
}

TEST(DsLintTokenizer, MemberAndForeignQualifiersDontTrip) {
  const char* src =
      "double t = timer.time();\n"       // member call, not ::time
      "int r = dice.rand();\n"           // member call, not ::rand
      "double v = sim::time(clk);\n";    // foreign namespace
  EXPECT_TRUE(lint("src/serve/x.cpp", src).empty());
}

TEST(DsLintTokenizer, LineNumbersSurviveMultilineConstructs) {
  const char* src =
      "/* a\n"
      "   multi-line\n"
      "   comment */\n"
      "auto s = R\"(raw\n"
      "string)\";\n"
      "std::unordered_map<int, int> m;\n";
  expect_single(lint("src/comm/x.cpp", src), "unordered-container", 6);
}

TEST(DsLintRules, WorkerKernelConfig) {
  const char* src =
      "void task() {\n"
      "  KernelConfig c = kernel_config();\n"
      "  c.gemm_threads = 1;\n"
      "  if (c.gemm_threads == 1) run();\n"
      "}\n";
  expect_single(lint("src/serve/lanes.cpp", src), "worker-kernel-config", 3);
}

TEST(DsLintRules, WorkerKernelConfigAllowsTheKernelsAndTheLanes) {
  const char* src = "void f(KernelConfig& c) { c.gemm_threads = 4; }\n";
  EXPECT_TRUE(lint("src/tensor/gemm.cpp", src).empty());
  EXPECT_TRUE(lint("src/nn/forward_lanes.cpp", src).empty());
  EXPECT_TRUE(lint("tests/gemm_property_test.cpp", src).empty());
}

// ---------------------------------------------------------------------
// Library plumbing.
// ---------------------------------------------------------------------

TEST(DsLintConfig, RuleCatalogIsStable) {
  const auto& ids = ds::lint::rule_ids();
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(ids.front(), "wallclock");
}

TEST(DsLintConfig, DisablingARuleByConfigWins) {
  Config cfg = default_config();
  cfg.overrides.push_back({"src/", "unordered-container", false});
  const char* src = "std::unordered_map<int, int> m;\n";
  EXPECT_TRUE(lint_file(cfg, "src/comm/x.cpp", src).empty());
}

TEST(DsLintConfig, DiagnosticsCarryPathRuleAndLine) {
  const auto diags = lint("src/serve/x.cpp", "int r = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].path, "src/serve/x.cpp");
  EXPECT_EQ(diags[0].rule, "unseeded-rng");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_FALSE(diags[0].message.empty());
}

}  // namespace
