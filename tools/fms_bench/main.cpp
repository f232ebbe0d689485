// fms_bench CLI.
//
//   fms_bench [--out BENCH_perf.json] [--filter SUBSTR]
//             [--repeats K] [--warmup W] [--quick] [--list] [--profile]
//   fms_bench --compare OLD.json NEW.json [--gate PCT]
//
// Run mode emits the benchmark suite's BENCH_perf.json; compare mode
// diffs two such files and exits 1 when any shared benchmark's median
// regressed by more than --gate percent (default 10). Exit code 2 means
// usage or parse error.
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>

#include "src/common/check.h"
#include "src/obs/profile.h"
#include "src/obs/roofline.h"
#include "tools/fms_bench/bench.h"

namespace {

constexpr const char* kUsage = R"(usage:
  fms_bench [options]                      run the suite
  fms_bench --compare OLD NEW [--gate PCT] gate NEW against OLD

options:
  --out PATH      output JSON path (default BENCH_perf.json)
  --filter SUBSTR run only benchmarks whose name contains SUBSTR
  --repeats K     timed repetitions per benchmark (default 9)
  --warmup W      discarded warm-up repetitions (default 3)
  --quick         repeats=3 warmup=1 (smoke-test mode)
  --profile       print the merged self-time table after the run
  --list          list benchmark names and exit
  --gate PCT      regression gate percentage for --compare (default 10)
  --history PATH  append one {sha, timestamp, src/ non-blank lines,
                  per-bench medians} row
  --git-sha SHA   git sha recorded in the history row (default unknown)
  --timestamp T   unix timestamp for the outputs (default: current time)
  --peak PATH     machine-peak sidecar; calibrates + caches when absent,
                  then prints a per-benchmark %%-of-roofline table
)";

int run_compare(const std::string& old_path, const std::string& new_path,
                double gate_pct) {
  const fms::bench::BenchFile oldf = fms::bench::load_bench_file(old_path);
  const fms::bench::BenchFile newf = fms::bench::load_bench_file(new_path);
  const fms::bench::CompareOutcome outcome =
      fms::bench::compare_bench_files(oldf, newf, gate_pct);
  std::fputs(fms::bench::format_compare(outcome).c_str(), stdout);
  return outcome.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_perf.json";
  std::string compare_old;
  std::string compare_new;
  std::string history_path;
  std::string git_sha = "unknown";
  std::string peak_path;
  long long stamp_override = -1;
  bool list_only = false;
  bool profile_table = false;
  double gate_pct = 10.0;
  fms::bench::RunOptions opts;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      auto need_value = [&](const char* flag) -> const char* {
        FMS_CHECK_MSG(i + 1 < argc, "missing value for " << flag);
        return argv[++i];
      };
      if (std::strcmp(arg, "--out") == 0) {
        out_path = need_value("--out");
      } else if (std::strcmp(arg, "--filter") == 0) {
        opts.filter = need_value("--filter");
      } else if (std::strcmp(arg, "--repeats") == 0) {
        opts.repeats = std::stoi(need_value("--repeats"));
      } else if (std::strcmp(arg, "--warmup") == 0) {
        opts.warmup = std::stoi(need_value("--warmup"));
      } else if (std::strcmp(arg, "--quick") == 0) {
        opts.repeats = 3;
        opts.warmup = 1;
      } else if (std::strcmp(arg, "--profile") == 0) {
        profile_table = true;
      } else if (std::strcmp(arg, "--list") == 0) {
        list_only = true;
      } else if (std::strcmp(arg, "--gate") == 0) {
        gate_pct = std::stod(need_value("--gate"));
      } else if (std::strcmp(arg, "--history") == 0) {
        history_path = need_value("--history");
      } else if (std::strcmp(arg, "--git-sha") == 0) {
        git_sha = need_value("--git-sha");
      } else if (std::strcmp(arg, "--timestamp") == 0) {
        stamp_override = std::stoll(need_value("--timestamp"));
      } else if (std::strcmp(arg, "--peak") == 0) {
        peak_path = need_value("--peak");
      } else if (std::strcmp(arg, "--compare") == 0) {
        compare_old = need_value("--compare");
        FMS_CHECK_MSG(i + 1 < argc, "--compare needs OLD and NEW paths");
        compare_new = argv[++i];
      } else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        FMS_CHECK_MSG(false, "unknown flag " << arg);
      }
    }

    if (!compare_old.empty()) {
      return run_compare(compare_old, compare_new, gate_pct);
    }

    const std::vector<fms::bench::Benchmark> suite =
        fms::bench::default_benchmarks();
    if (list_only) {
      for (const fms::bench::Benchmark& b : suite) {
        std::printf("%s\n", b.name.c_str());
      }
      return 0;
    }

    if (profile_table) {
      fms::obs::set_profiling_enabled(true);
      fms::obs::reset_profiler();
    }
    const std::vector<fms::bench::BenchResult> results =
        fms::bench::run_benchmarks(suite, opts, [](const std::string& line) {
          std::printf("%s\n", line.c_str());
        });
    FMS_CHECK_MSG(!results.empty(), "no benchmark matched the filter");
    if (profile_table) {
      std::printf("\n-- merged self-time table (timed repetitions) --\n%s",
                  fms::obs::self_time_table(fms::obs::collect_profile())
                      .c_str());
      fms::obs::set_profiling_enabled(false);
    }

    // Wall-clock stamp so archived BENCH_perf.json files order
    // themselves into a trajectory; it never influences a measurement.
    // --timestamp overrides it for reproducible artifacts (CI, tests).
    const long long stamp =
        stamp_override >= 0
            ? stamp_override
            : static_cast<long long>(std::time(nullptr));  // fms-lint: allow(wall-clock) -- metadata timestamp, not measurement
    std::ofstream f(out_path);
    FMS_CHECK_MSG(f.good(), "cannot open " << out_path);
    f << fms::bench::to_json(results, stamp);
    std::printf("wrote %s (%zu benchmarks)\n", out_path.c_str(),
                results.size());

    if (!history_path.empty()) {
      fms::bench::append_history_row(
          history_path,
          fms::bench::history_row_json(
              results, git_sha, stamp,
              fms::bench::count_source_lines(FMS_SOURCE_ROOT)));
      std::printf("appended history row to %s (sha %s)\n",
                  history_path.c_str(), git_sha.c_str());
    }

    if (!peak_path.empty()) {
      const fms::obs::MachinePeak peak =
          fms::obs::load_or_calibrate(peak_path);
      std::printf(
          "\nmachine peak: vector %.2f GF/s  scalar %.2f GF/s  "
          "stream %.2f GB/s\n",
          peak.vector_gflops, peak.scalar_gflops, peak.stream_gbps);
      std::printf("%-28s %10s %8s %8s\n", "benchmark", "GF/s", "ai",
                  "%roof");
      for (const fms::bench::BenchResult& r : results) {
        const double gf = fms::bench::achieved_gflops(r);
        if (gf <= 0.0) continue;
        const double ai = fms::bench::bench_arithmetic_intensity(r);
        std::printf("%-28s %10.3f %8.2f %7.1f%%\n", r.name.c_str(), gf,
                    ai, fms::obs::roof_percent(peak, gf, ai));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fms_bench: %s\n%s", e.what(), kUsage);
    return 2;
  }
}
