// fms_bench — unified micro + macro benchmark harness with a regression
// gate.
//
// Each Benchmark owns a setup closure (runs once, outside timing) that
// returns the iteration closure. A run executes `warmup` discarded
// repetitions, then `repeats` timed repetitions of `iters` iterations
// each; the per-iteration nanosecond cost of every repetition feeds the
// median / p10 / p90 summary. One extra untimed accounting repetition
// runs with the profiler and the allocation ledger enabled to report
// bytes allocated and the zone tree (so timing repetitions stay free of
// instrumentation overhead).
//
// The emitted BENCH_perf.json is the machine-readable perf trajectory:
// `fms_bench --compare old.json new.json --gate 10` exits nonzero when
// any shared benchmark's median regressed by more than the gate
// percentage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace fms::bench {

struct Benchmark {
  std::string name;
  int iters = 1;  // iterations per repetition (amortizes clock overhead)
  // Runs once per benchmark; the returned closure is one iteration.
  std::function<std::function<void()>()> setup;
};

struct ZoneSummary {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t excl_ns = 0;  // incl minus child zones (no double count)
};

struct BenchResult {
  std::string name;
  double median_ns = 0.0;  // per iteration
  double p10_ns = 0.0;
  double p90_ns = 0.0;
  // Tensor bytes allocated across ONE full repetition (iters iterations)
  // of the accounting pass — deterministic for a fixed seed and config.
  std::uint64_t bytes_alloc = 0;
  std::uint64_t allocs = 0;
  // Work-ledger totals across ONE full repetition of the accounting
  // pass (src/obs/work conventions; exact and deterministic).
  std::uint64_t flops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  int iters = 0;
  int repeats = 0;
  std::map<std::string, ZoneSummary> zones;  // profiler path -> summary
};

// Achieved GFLOP/s at the measured median: flops are per repetition,
// median_ns is per iteration, so (flops / iters) / median_ns is exactly
// FLOPs-per-nanosecond = GFLOP/s. 0 when the benchmark records no work.
double achieved_gflops(const BenchResult& r);
// FLOPs per byte moved (read + written); 0 when no bytes were recorded.
double bench_arithmetic_intensity(const BenchResult& r);

struct RunOptions {
  int repeats = 9;
  int warmup = 3;
  std::string filter;  // substring match on benchmark name; empty = all
  bool accounting_pass = true;  // profiler + alloc ledger repetition
};

// The full benchmark suite (micro kernels, aggregation estimators,
// checkpoint serialize/restore, whole federated rounds). Fixed seeds
// throughout — results differ only by machine and code, never by run.
std::vector<Benchmark> default_benchmarks();

// Runs `list` (after filtering) and returns one result per benchmark.
// `log`, when set, receives a one-line progress message per benchmark.
std::vector<BenchResult> run_benchmarks(
    const std::vector<Benchmark>& list, const RunOptions& opts,
    const std::function<void(const std::string&)>& log = {});

// --- BENCH_perf.json ---

struct BenchFile {
  int schema = 1;
  long long timestamp_unix = 0;
  std::map<std::string, BenchResult> benchmarks;
};

std::string to_json(const std::vector<BenchResult>& results,
                    long long timestamp_unix);

// Parses what to_json emits, through obs::parse_json. Throws
// fms::CheckError on malformed JSON, trailing content, schema != 1, a
// missing "benchmarks", a field of the wrong kind, a non-finite number,
// or an integer field that is not an exact integer in its type's range.
BenchFile parse_bench_json(const std::string& text);
BenchFile load_bench_file(const std::string& path);

// --- regression gate ---

struct CompareRow {
  std::string name;
  double old_median_ns = 0.0;
  double new_median_ns = 0.0;
  double delta_pct = 0.0;  // +x% = slower
  bool regressed = false;
};

struct CompareOutcome {
  std::vector<CompareRow> rows;       // benchmarks present in both files
  std::vector<std::string> only_old;  // disappeared benchmarks
  std::vector<std::string> only_new;  // new benchmarks (not gated)
  double gate_pct = 0.0;
  bool ok = true;  // false when any row regressed past the gate
};

CompareOutcome compare_bench_files(const BenchFile& oldf,
                                   const BenchFile& newf, double gate_pct);
std::string format_compare(const CompareOutcome& outcome);

// --- BENCH_history.jsonl ---

// One appendable history row: {"schema": 1, "git_sha": ..,
// "timestamp_unix": .., "src_loc": .., "benchmarks": {name:
// {"median_ns": .., "gflops": .., "ai": ..}, ..}} on a single line.
// src_loc is the code-size trajectory next to the speed one.
std::string history_row_json(const std::vector<BenchResult>& results,
                             const std::string& git_sha,
                             long long timestamp_unix, std::uint64_t src_loc);

// Non-blank lines over every *.h / *.cpp file under `root`, recursively.
// Throws fms::CheckError when `root` is not a directory.
std::uint64_t count_source_lines(const std::string& root);

// Appends `row` (newline-terminated) to `path`. Throws fms::CheckError
// when the file cannot be opened for append.
void append_history_row(const std::string& path, const std::string& row);

}  // namespace fms::bench
