// fms_report CLI.
//
//   fms_report --out report.html [--title T] [--trace RUN.trace.jsonl]
//              [--metrics RUN.metrics.csv] [--health RUN.health.json]
//              [--bench BENCH_perf.json] [--history BENCH_history.jsonl]
//              [--peak fms_peak.json]
//   fms_report --compare TRACE_A TRACE_B [--out diff.html]
//
// Report mode fuses one run's observability artifacts into a single
// self-contained HTML file; every input is optional and missing ones
// degrade to placeholder sections. Compare mode diffs two trace JSONL
// files round-by-round, prints the first diverging round/field, writes
// an optional diff HTML, and exits 1 on divergence. Exit code 2 means
// usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "src/common/check.h"
#include "src/obs/report.h"

namespace {

constexpr const char* kUsage = R"(usage:
  fms_report --out report.html [inputs]      generate a run report
  fms_report --compare A B [--out diff.html] diff two trace JSONL files

inputs (all optional; missing files become "no data" sections):
  --title T       report title (default "fms run report")
  --trace PATH    trace JSONL (rounds, profile zones with their costs)
  --metrics PATH  metrics CSV snapshot
  --health PATH   health.json from the search-health monitor
  --bench PATH    BENCH_perf.json
  --history PATH  BENCH_history.jsonl
  --peak PATH     machine-peak sidecar (roofline ceilings)
)";

}  // namespace

int main(int argc, char** argv) {
  fms::obs::ReportInputs inputs;
  std::string out_path;
  std::string compare_a;
  std::string compare_b;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      auto need_value = [&](const char* flag) -> const char* {
        FMS_CHECK_MSG(i + 1 < argc, "missing value for " << flag);
        return argv[++i];
      };
      if (std::strcmp(arg, "--out") == 0) {
        out_path = need_value("--out");
      } else if (std::strcmp(arg, "--title") == 0) {
        inputs.title = need_value("--title");
      } else if (std::strcmp(arg, "--trace") == 0) {
        inputs.trace_jsonl_path = need_value("--trace");
      } else if (std::strcmp(arg, "--metrics") == 0) {
        inputs.metrics_csv_path = need_value("--metrics");
      } else if (std::strcmp(arg, "--health") == 0) {
        inputs.health_json_path = need_value("--health");
      } else if (std::strcmp(arg, "--bench") == 0) {
        inputs.bench_json_path = need_value("--bench");
      } else if (std::strcmp(arg, "--history") == 0) {
        inputs.history_jsonl_path = need_value("--history");
      } else if (std::strcmp(arg, "--peak") == 0) {
        inputs.peak_json_path = need_value("--peak");
      } else if (std::strcmp(arg, "--compare") == 0) {
        compare_a = need_value("--compare");
        FMS_CHECK_MSG(i + 1 < argc, "--compare needs two trace paths");
        compare_b = argv[++i];
      } else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        FMS_CHECK_MSG(false, "unknown flag " << arg);
      }
    }

    if (!compare_a.empty()) {
      const fms::obs::RunDiff diff =
          fms::obs::diff_runs(compare_a, compare_b);
      std::fputs(fms::obs::diff_summary(diff).c_str(), stdout);
      if (!out_path.empty()) {
        std::ofstream f(out_path);
        FMS_CHECK_MSG(f.good(), "cannot open " << out_path);
        f << fms::obs::generate_diff_html(diff, compare_a, compare_b);
        std::printf("report written to %s\n", out_path.c_str());
      }
      return diff.identical ? 0 : 1;
    }

    FMS_CHECK_MSG(!out_path.empty(), "--out is required in report mode");
    fms::obs::write_report_html(inputs, out_path);
    std::printf("report written to %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fms_report: %s\n%s", e.what(), kUsage);
    return 2;
  }
}
