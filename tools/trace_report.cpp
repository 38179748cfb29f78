// trace_report <trace.json> — human-readable profile of an exported Chrome
// trace: top virtual spans, the per-phase Table-3 rollup, sync-round
// critical-path / straggler attribution, and the comm-vs-compute overlap
// split. The programmatic twin of opening the file in Perfetto.
//
//   --top N        how many span rows to print (default 12)
//   --per-rank     also print the per-rank phase breakdown
//   --json         emit the deepscale.trace_report.v1 JSON document instead
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/analysis/analysis.hpp"
#include "obs/analysis/trace_report_doc.hpp"
#include "support/error.hpp"

namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::size_t top_n = 12;
  bool per_rank = false;
  bool as_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_n = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--per-rank") == 0) {
      per_rank = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(
          stderr,
          "usage: trace_report [--top N] [--per-rank] [--json] <trace.json>\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(
        stderr,
        "usage: trace_report [--top N] [--per-rank] [--json] <trace.json>\n");
    return 2;
  }

  using namespace ds::obs::analysis;
  try {
    const ds::obs::JsonValue doc = ds::obs::parse_json(read_file(path));
    const TraceData trace = ingest_chrome_trace(doc);

    if (as_json) {
      // Self-check the document against the schema before printing it, so a
      // build/validate drift fails loudly here, not in a downstream parser.
      const ds::obs::JsonValue report = build_trace_report_doc(trace, top_n);
      const std::vector<std::string> errors =
          validate_trace_report_json(report);
      for (const std::string& e : errors) {
        std::fprintf(stderr, "trace_report: %s\n", e.c_str());
      }
      if (!errors.empty()) return 1;
      std::printf("%s\n", ds::obs::write_json(report).c_str());
      return 0;
    }

    std::printf("%s: %zu virtual spans, %zu wall spans", path,
                trace.vspans.size(), trace.spans.size());
    if (trace.dropped_events > 0) {
      std::printf(" (%llu events DROPPED by the recorder ring)",
                  static_cast<unsigned long long>(trace.dropped_events));
    }
    std::printf("\n\n");

    // --- top spans -----------------------------------------------------
    const Rollup rollup = rollup_vspans(trace);
    std::printf("top virtual spans (of %.6g s total)\n", rollup.total);
    std::printf("  %-40s %10s %12s %12s %12s\n", "category/name", "count",
                "total s", "mean s", "max s");
    std::size_t printed = 0;
    for (const auto& [key, stats] : rollup.top()) {
      if (printed++ >= top_n) break;
      std::printf("  %-40s %10llu %12.6g %12.6g %12.6g\n", key.c_str(),
                  static_cast<unsigned long long>(stats.count), stats.total,
                  stats.mean(), stats.max);
    }

    // --- per-phase ledger rollup --------------------------------------
    const auto phases = ledger_rollup(trace);
    double phase_total = 0.0;
    for (const double s : phases) phase_total += s;
    std::printf("\nper-phase breakdown (ledger spans, %.6g s)\n", phase_total);
    for (std::size_t p = 0; p < ds::kPhaseCount; ++p) {
      if (phases[p] == 0.0) continue;
      std::printf("  %-20s %12.6g s  %5.1f%%\n",
                  ds::phase_name(static_cast<ds::Phase>(p)), phases[p],
                  phase_total > 0.0 ? 100.0 * phases[p] / phase_total : 0.0);
    }
    if (per_rank) {
      for (const auto& [rank, by_phase] : ledger_rollup_by_rank(trace)) {
        std::printf("  rank %lld:", static_cast<long long>(rank));
        for (std::size_t p = 0; p < ds::kPhaseCount; ++p) {
          if (by_phase[p] == 0.0) continue;
          std::printf(" %s=%.4g", ds::phase_name(static_cast<ds::Phase>(p)),
                      by_phase[p]);
        }
        std::printf("\n");
      }
    }

    // --- sync rounds / stragglers -------------------------------------
    const auto rounds = sync_rounds(trace);
    const StragglerReport stragglers = attribute_stragglers(rounds);
    std::printf("\nsync rounds: %zu matched, %zu gated\n",
                stragglers.total_rounds, stragglers.gated_rounds);
    for (const StragglerStat& s : stragglers.ranking) {
      if (s.rounds_gated == 0) continue;
      std::printf("  rank %-4lld gated %4zu rounds, imposed %10.6g s idle\n",
                  static_cast<long long>(s.rank), s.rounds_gated,
                  s.idle_imposed);
    }

    // --- kernel counters ----------------------------------------------
    // Cumulative tracks the tensor kernels emit while tracing (conv.flops,
    // im2col.bytes, col2im.bytes): last sample = run total. The flops-to-
    // lowering-bytes ratio is what makes an im2col-vs-direct switch visible
    // — direct-kernel layers grow conv.flops without growing im2col.bytes.
    if (!trace.counters.empty()) {
      std::printf("\nkernel counters (cumulative, final sample)\n");
      for (const auto& [name, track] : trace.counters) {
        std::printf("  %-40s %14.6g  (%zu samples)\n", name.c_str(),
                    track.last(), track.samples.size());
      }
    }

    // --- serving request lifecycle ------------------------------------
    // Present only when the trace came from the serving front-end
    // (src/serve): the queue-wait vs compute vs reply split of where the
    // latency went, shed counts, and exact latency quantiles.
    const ServeLifecycle serve = request_lifecycle(trace);
    if (!serve.empty()) {
      std::printf("\nserving lifecycle (%zu requests)\n", serve.requests);
      std::printf(
          "  served %zu, shed %zu (%.1f%%), %zu batches (mean batch %.2f), "
          "scale +%zu/-%zu\n",
          serve.served, serve.shed, 100.0 * serve.shed_rate(), serve.batches,
          serve.mean_batch(), serve.scale_ups, serve.scale_downs);
      std::printf(
          "  time split: queue-wait %.6g s, compute %.6g s, reply %.6g s\n",
          serve.queue_wait_seconds, serve.compute_seconds,
          serve.reply_seconds);
      std::printf(
          "  latency: mean %.4g ms, p50 %.4g ms, p95 %.4g ms, p99 %.4g ms\n",
          serve.latency_mean * 1e3, serve.latency_p50 * 1e3,
          serve.latency_p95 * 1e3, serve.latency_p99 * 1e3);
    }

    // --- overlap split -------------------------------------------------
    const OverlapSplit split = comm_compute_split(trace);
    std::printf(
        "\ncomm %.6g s, compute %.6g s, overlap %.6g s (%.1f%% of the "
        "smaller side hidden), busy %.6g s\n",
        split.comm_seconds, split.compute_seconds, split.overlap_seconds,
        100.0 * split.overlap_fraction(), split.busy_seconds);
    return 0;
  } catch (const ds::Error& e) {
    std::fprintf(stderr, "trace_report: %s\n", e.what());
    return 1;
  }
}
