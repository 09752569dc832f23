#ifndef MOVD_BENCH_LIB_BENCH_H_
#define MOVD_BENCH_LIB_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib/report.h"
#include "util/exec_options.h"
#include "util/flags.h"
#include "util/summary.h"

namespace movd {
class Trace;
}

namespace movd::bench {

/// Declarative benchmark harness (DESIGN.md §10). A bench binary declares
/// its workloads with BENCH(name) and delegates main to RunMain, which
/// owns everything the fifteen binaries used to hand-roll: flag parsing
/// with Flags::WarnUnused, deterministic seeding, warmup + repetition
/// policy, noise-aware summaries (util/summary.h), per-phase splits from
/// the trace aggregation, the human-readable result table, and the
/// machine-readable BENCH_<suite>.json emission that tools/bench_diff
/// gates regressions on.
///
///   BENCH(fig08) {
///     const auto sizes = ctx.flags().GetSizeList("sizes", "16,32");
///     for (const size_t n : sizes) {
///       const MolqQuery query = MakeQuery({n, n, n}, ctx.seed());
///       BenchCase& c = ctx.Case("rrb/n=" + std::to_string(n))
///                          .Param("algo", "rrb").Param("n", n);
///       double cost = 0.0;
///       ctx.Measure(c, [&] { cost = Solve(query, ctx.MakeExec()); });
///       c.Metric("cost", cost);
///     }
///   }
///   MOVD_BENCH_MAIN("fig08_molq_three_types")
///
/// Flags shared by every harnessed binary:
///   --threads=N        pipeline parallelism (0 = hardware threads)
///   --seed=S           deterministic workload seed
///   --repetitions=R    timed repetitions per case (default 3)
///   --warmup=W         untimed warmup runs per case (default 1)
///   --json=FILE        report path (default BENCH_<suite>.json; "off"
///                      disables emission)
///   --phases[=0]       per-phase splits via an ambient Trace (default on)
///   --trace=FILE       additionally write a Chrome trace_event profile
///   --audit            run the invariant auditors inside measured code
///   --filter=SUBSTR    only run benches whose name contains SUBSTR
///   --list             print registered bench names and exit
class BenchContext;

/// Handle for one case under construction. Param/Metric/Derived return
/// *this so declaration reads as one fluent chain. The handle stays valid
/// until RunMain returns (cases are stored in a deque-like list).
class BenchCase {
 public:
  BenchCase& Param(const std::string& key, const std::string& value);
  BenchCase& Param(const std::string& key, int64_t value);
  BenchCase& Param(const std::string& key, size_t value);
  BenchCase& Param(const std::string& key, double value);

  /// Deterministic output of the measured code (cost, OVR count, bytes).
  /// bench_diff compares these exactly across runs; record a value here
  /// only if it must not change run-to-run for a fixed seed.
  BenchCase& Metric(const std::string& key, double value);

  /// Timing-derived informational value (speedup ratio, ns/op). Never
  /// gated by bench_diff.
  BenchCase& Derived(const std::string& key, double value);

  /// Wall-time summary; valid after BenchContext::Measure.
  const Summary& wall() const { return result_.wall; }

  /// The accumulated record (harness reporter/emitter use).
  const BenchCaseResult& result() const { return result_; }

 private:
  friend class BenchContext;
  BenchCaseResult result_;
};

/// Per-run context handed to every BENCH body.
class BenchContext {
 public:
  const Flags& flags() const { return flags_; }
  uint64_t seed() const { return seed_; }
  int threads() const { return threads_; }
  int repetitions() const { return repetitions_; }
  int warmup() const { return warmup_; }

  /// Execution knobs for pipeline entry points: --threads, --audit, and
  /// the harness's ambient trace (null with --phases=0).
  ExecOptions MakeExec() const;

  /// Declares a new case. `name` must be unique within the bench.
  BenchCase& Case(std::string name);

  /// Runs `fn` warmup() untimed times, then repetitions() timed times;
  /// summarises the timed wall seconds into c.wall() and attributes trace
  /// phase deltas (per-repetition mean seconds) to the case. The returned
  /// reference is the case's summary — use it for derived ratios.
  const Summary& Measure(BenchCase& c, const std::function<void()>& fn);

  /// Harness-internal: construction and case access belong to RunMain's
  /// driver loop, not to BENCH bodies.
  BenchContext(const Flags& flags, const std::string& bench_name,
               Trace* trace);
  const std::vector<std::unique_ptr<BenchCase>>& cases() const {
    return cases_;
  }

 private:
  const Flags& flags_;
  std::string bench_name_;
  Trace* trace_;  // null when --phases=0
  uint64_t seed_;
  int threads_;
  int repetitions_;
  int warmup_;
  bool audit_;
  std::vector<std::unique_ptr<BenchCase>> cases_;
};

using BenchFn = void (*)(BenchContext&);

/// Static registrar behind the BENCH macro.
class BenchRegistrar {
 public:
  BenchRegistrar(const char* name, BenchFn fn);
};

/// Declares a benchmark body `void (BenchContext& ctx)` and registers it
/// under `name`. One binary may register several (the micro suites do).
#define BENCH(name)                                                       \
  static void movd_bench_body_##name(::movd::bench::BenchContext& ctx);   \
  static const ::movd::bench::BenchRegistrar movd_bench_reg_##name(       \
      #name, &movd_bench_body_##name);                                    \
  static void movd_bench_body_##name(::movd::bench::BenchContext& ctx)

/// Shared main: runs every registered bench, prints the result tables,
/// emits BENCH_<suite>.json, and reports unused flags. Returns the
/// process exit code.
int RunMain(const std::string& suite, int argc, char** argv);

/// Defines main() for a bench binary.
#define MOVD_BENCH_MAIN(suite)                                 \
  int main(int argc, char** argv) {                            \
    return ::movd::bench::RunMain(suite, argc, argv);          \
  }

/// In-process harness run for unit tests: executes the registered benches
/// against synthetic argv and returns the report instead of writing it.
BenchReport RunBenchesForTest(const std::string& suite,
                              const std::vector<std::string>& args);

/// Keeps a value alive and opaque to the optimizer so measured kernels
/// are not dead-code-eliminated (the micro suites' DoNotOptimize).
template <class T>
inline void Keep(T const& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace movd::bench

#endif  // MOVD_BENCH_LIB_BENCH_H_
