// chaos_demo — seeded 4-rank Sync-EASGD run over the fault-injecting fabric
// with tracing on and the online health monitor installed, used by CI to
// exercise the whole observability path end to end:
//
//   1. honor DEEPSCALE_TRACE=<path> (default chaos_trace.json when unset);
//   2. run Sync EASGD over a 4-rank fabric with drops + a 3x straggler on
//      rank 2, all draws seeded so the run replays bit-for-bit;
//   3. check the ledger↔trace contract: per-phase sums of the "ledger"
//      complete spans must equal the RunResult's CostLedger to 1e-9;
//   4. assert the ONLINE straggler-drift detector fired and named rank 2,
//      and that the OFFLINE sync-round critical-path analysis over the same
//      trace names the same rank;
//   5. flush the Chrome trace, dump the postmortem bundle + flight trace,
//      and re-validate all three (Chrome-trace check, postmortem schema
//      check, analysis ingest).
//
// Exit 0 iff every check passes — CI gates the artifact uploads on it.
//
//   argv[1] (optional): bundle path, default monitor_bundle.json; the
//   flight trace lands next to it as <bundle stem>.trace.json.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "comm/ledger.hpp"
#include "core/fabric_algorithms.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/json.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("  ok    %s\n", what);
  } else {
    std::printf("  FAIL  %s\n", what);
    ++g_failures;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Sum of the "ledger"-category virtual complete spans, per phase name.
double ledger_span_sum(const std::vector<ds::obs::ThreadEvents>& threads,
                       const char* phase) {
  double sum = 0.0;
  for (const ds::obs::ThreadEvents& te : threads) {
    for (const ds::obs::Event& e : te.events) {
      if (e.type == ds::obs::EventType::kCompleteV &&
          std::strcmp(e.category, "ledger") == 0 &&
          std::strcmp(e.name, phase) == 0) {
        sum += e.value;
      }
    }
  }
  return sum;
}

/// Chrome-trace validation of `text`, printing any errors under `label`.
void check_chrome_trace(const std::string& text, const char* label,
                        const char* what) {
  const ds::obs::TraceValidation v =
      ds::obs::validate_chrome_trace_text(text);
  for (const std::string& e : v.errors) {
    std::printf("  %s error: %s\n", label, e.c_str());
  }
  check(v.ok(), what);
  std::printf("%s: %zu events, %zu spans, %zu processes\n", label,
              v.event_count, v.span_count, v.process_count);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bundle_path =
      argc > 1 ? argv[1] : std::string("monitor_bundle.json");
  constexpr std::int64_t kStragglerRank = 2;

  // DEEPSCALE_TRACE already enabled tracing at static-init time if set;
  // otherwise default the output path and switch the recorder on here.
  // Tracing also feeds the monitor's flight recorder.
  if (ds::obs::trace_path().empty()) {
    ds::obs::set_trace_path("chaos_trace.json");
  }
  ds::obs::set_tracing_enabled(true);
  std::printf("chaos demo: 4-rank fabric Sync EASGD, straggler on rank %lld, "
              "trace -> %s, bundle -> %s\n",
              static_cast<long long>(kStragglerRank),
              ds::obs::trace_path().c_str(), bundle_path.c_str());

  // Tiny synthetic problem: big enough that every phase charges, small
  // enough for CI.
  ds::SyntheticSpec spec;
  spec.classes = 4;
  spec.channels = 1;
  spec.height = 8;
  spec.width = 8;
  spec.train_count = 512;
  spec.test_count = 128;
  spec.noise = 0.9;
  spec.seed = 99;
  ds::TrainTest data = ds::make_synthetic(spec);
  const auto stats = ds::normalize(data.train);
  ds::normalize_with(data.test, stats.first, stats.second);

  ds::AlgoContext ctx;
  ctx.factory = [] {
    ds::Rng rng(17);
    return ds::make_tiny_mlp(rng);
  };
  ctx.train = &data.train;
  ctx.test = &data.test;
  ctx.config.workers = 4;  // = fabric ranks
  ctx.config.iterations = 60;
  ctx.config.batch_size = 16;
  ctx.config.eval_every = 30;
  ctx.config.eval_samples = 128;
  ctx.config.learning_rate = 0.05f;
  ctx.config.rho = 0.9f / (4.0f * 0.05f);
  ctx.config.seed = 1234;

  ds::FabricClusterConfig cluster;
  cluster.faults.seed = 0xC0FFEE;
  cluster.faults.with_drop(0.05).with_straggler(
      static_cast<std::size_t>(kStragglerRank), 3.0);
  cluster.faults.max_send_attempts = 12;  // reliable-after-retransmit wire

  // Window ≈ a couple of compute steps (fb_s ≈ 1.9 ms at these settings) so
  // the straggler's 3x drift shows up within a few windows of warmup.
  ds::obs::monitor::MonitorConfig mcfg;
  mcfg.sample_interval_vs = 0.005;
  // A single retransmit in a 5 ms window already reads as 200/vs; raise the
  // storm bar so the drop-rate background noise stays below it and the
  // straggler alert is the one that arms the dump.
  mcfg.storm_retransmits_per_vs = 2000.0;
  mcfg.bundle_path = bundle_path;
  mcfg.dump_on_alert = true;  // the straggler alert IS the dump trigger here
  ds::obs::monitor::Monitor monitor(mcfg);

  ds::RunResult res;
  {
    const ds::obs::monitor::InstallScope scope(monitor);
    res = run_fabric_easgd(ctx, cluster);
  }
  std::printf("run: %s — %s, %.4f vseconds, acc %.3f\n", res.method.c_str(),
              res.fault_summary().c_str(), res.total_seconds,
              res.final_accuracy);
  std::printf("wire: %llu messages, %llu bytes, %llu retransmits\n",
              static_cast<unsigned long long>(res.messages_sent),
              static_cast<unsigned long long>(res.bytes_sent),
              static_cast<unsigned long long>(res.retransmits));

  check(!res.aborted, "run completed every round");
  check(res.messages_sent > 0, "fabric counted messages");
  check(res.retransmits > 0, "drops forced retransmits");
  check(monitor.finalized(), "monitor finalized at run end");
  check(monitor.windows_closed() > 10, "monitor closed rolling windows");

  // --- ledger <-> trace contract: the "ledger" spans ARE the charges ------
  const std::vector<ds::obs::ThreadEvents> threads = ds::obs::snapshot();
  bool rollup_ok = true;
  for (std::size_t i = 0; i < ds::kPhaseCount; ++i) {
    const ds::Phase phase = static_cast<ds::Phase>(i);
    const double from_spans =
        ledger_span_sum(threads, ds::phase_name(phase));
    const double from_ledger = res.ledger.seconds(phase);
    if (std::fabs(from_spans - from_ledger) > 1e-9) {
      std::printf("  phase %s: spans %.12f != ledger %.12f\n",
                  ds::phase_name(phase), from_spans, from_ledger);
      rollup_ok = false;
    }
  }
  check(rollup_ok, "ledger span rollup matches CostLedger (1e-9)");
  check(ds::obs::dropped_events() == 0, "no trace events dropped");

  // --- online detection ----------------------------------------------------
  bool straggler_alert = false;
  std::int64_t online_rank = ds::obs::kNoRank;
  for (const ds::obs::monitor::Alert& a : monitor.alerts()) {
    if (a.kind == ds::obs::monitor::AlertKind::kStragglerDrift) {
      straggler_alert = true;
      online_rank = a.rank;
      std::printf("online: %s\n", a.detail.c_str());
      break;
    }
  }
  check(straggler_alert, "straggler-drift detector fired online");
  check(online_rank == kStragglerRank,
        "online detector named the injected straggler rank");

  // --- offline agreement ---------------------------------------------------
  const ds::obs::analysis::StragglerReport offline =
      ds::obs::analysis::attribute_stragglers(ds::obs::analysis::sync_rounds(
          ds::obs::analysis::ingest_snapshot(threads)));
  std::printf("offline: top straggler rank %lld over %zu gated rounds\n",
              static_cast<long long>(offline.top_rank()),
              offline.gated_rounds);
  check(offline.top_rank() == kStragglerRank,
        "offline critical-path attribution names the same rank");

  // --- Chrome trace --------------------------------------------------------
  check(ds::obs::flush_now(), "trace file written");
  check_chrome_trace(read_file(ds::obs::trace_path()), "trace",
                     "written trace validates as Chrome trace_event JSON");

  // --- bundle + flight trace -----------------------------------------------
  check(monitor.triggered(), "alert armed the dump trigger");
  check(monitor.write_bundle(), "postmortem bundle written");

  const std::string bundle_text = read_file(bundle_path);
  check(!bundle_text.empty(), "bundle file is non-empty");
  try {
    const ds::obs::JsonValue doc = ds::obs::parse_json(bundle_text);
    const std::vector<std::string> errors =
        ds::obs::monitor::validate_postmortem_json(doc);
    for (const std::string& e : errors) {
      std::printf("  bundle error: %s\n", e.c_str());
    }
    check(errors.empty(), "bundle validates as deepscale.postmortem.v1");
  } catch (const ds::Error& e) {
    std::printf("  bundle parse error: %s\n", e.what());
    check(false, "bundle parses as JSON");
  }

  std::string flight_path = bundle_path;
  if (flight_path.size() >= 5 &&
      flight_path.compare(flight_path.size() - 5, 5, ".json") == 0) {
    flight_path.resize(flight_path.size() - 5);
  }
  flight_path += ".trace.json";
  const std::string flight_text = read_file(flight_path);
  check(!flight_text.empty(), "flight trace written next to the bundle");
  check_chrome_trace(flight_text, "flight",
                     "flight trace validates as Chrome trace_event JSON");
  try {
    const ds::obs::analysis::TraceData flight =
        ds::obs::analysis::ingest_chrome_trace(
            ds::obs::parse_json(flight_text));
    check(!flight.empty() || !flight.instants.empty(),
          "flight trace ingests through analysis::ingest_chrome_trace");
  } catch (const ds::Error& e) {
    std::printf("  flight ingest error: %s\n", e.what());
    check(false, "flight trace ingests through analysis::ingest_chrome_trace");
  }

  std::printf("%s\n", g_failures == 0 ? "CHAOS DEMO PASSED"
                                      : "CHAOS DEMO FAILED");
  return g_failures == 0 ? 0 : 1;
}
