// Shared helpers for the paper-reproduction experiment binaries.
//
// Every bench prints (1) what the paper's table/figure reports, (2) the
// numbers this reproduction produces — from the analytic model (paper
// parameters priced over the real schemes' operation logs) and, where
// applicable, the device-level simulation — and (3) a SHAPE CHECK section
// asserting the qualitative findings the paper draws from that experiment.

#ifndef WAVEKIT_BENCH_COMMON_H_
#define WAVEKIT_BENCH_COMMON_H_

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "model/maintenance_model.h"
#include "model/params.h"
#include "model/query_model.h"
#include "model/space_model.h"
#include "model/total_work.h"
#include "obs/metrics.h"
#include "sim/driver.h"
#include "sim/table_printer.h"
#include "storage/backend_registry.h"
#include "util/format.h"
#include "wave/scheme.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace bench {

inline const std::vector<SchemeKind>& PaperSchemes() {
  static const std::vector<SchemeKind> kSchemes = {
      SchemeKind::kDel,          SchemeKind::kReindex,
      SchemeKind::kReindexPlus,  SchemeKind::kReindexPlusPlus,
      SchemeKind::kWata,         SchemeKind::kRata,
  };
  return kSchemes;
}

inline bool SchemeValid(SchemeKind kind, int num_indexes) {
  if ((kind == SchemeKind::kWata || kind == SchemeKind::kRata) &&
      num_indexes < 2) {
    return false;
  }
  return true;
}

/// Prints a banner naming the experiment and the paper's claim.
inline void Banner(const std::string& title, const std::string& paper_claim) {
  std::cout << "=================================================================\n"
            << title << "\n"
            << "-----------------------------------------------------------------\n"
            << "Paper: " << paper_claim << "\n"
            << "=================================================================\n";
}

/// Tracks shape-check outcomes and prints a summary; returns an exit code.
class ShapeChecks {
 public:
  void Check(bool ok, const std::string& description) {
    results_.emplace_back(ok, description);
  }

  int Finish() const {
    int failures = 0;
    std::cout << "\nSHAPE CHECKS (paper findings reproduced?)\n";
    for (const auto& [ok, description] : results_) {
      std::cout << "  [" << (ok ? "OK" : "MISMATCH") << "] " << description
                << "\n";
      if (!ok) ++failures;
    }
    std::cout << (failures == 0 ? "All shape checks passed.\n"
                                : "Some shape checks FAILED.\n");
    return failures == 0 ? 0 : 1;
  }

 private:
  std::vector<std::pair<bool, std::string>> results_;
};

/// Storage-backend selection shared by the bench binaries: any experiment
/// accepting `--backend <name>` (plus optional `--path`, `--direct`,
/// `--queue-depth`) can run its workload on a real device instead of the
/// modeled MemoryDevice. Aborts on an unknown backend name, listing what the
/// registry actually has.
struct BackendChoice {
  std::string backend = "memory";
  std::string path;
  bool direct_io = false;
  int queue_depth = 64;
};

inline BackendChoice ParseBackendFlags(int argc, char** argv) {
  BackendChoice choice;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      choice.backend = argv[++i];
    } else if (arg == "--path" && i + 1 < argc) {
      choice.path = argv[++i];
    } else if (arg == "--direct") {
      choice.direct_io = true;
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      choice.queue_depth = std::atoi(argv[++i]);
    }
  }
  if (!BackendRegistry::Global().Contains(choice.backend)) {
    std::string names;
    for (const std::string& name : BackendRegistry::Global().Names()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    Status::InvalidArgument("unknown --backend '" + choice.backend +
                            "' (registered: " + names + ")")
        .Abort("ParseBackendFlags");
  }
  return choice;
}

inline void ApplyBackend(const BackendChoice& choice,
                         WaveService::Options* options) {
  options->storage_backend = choice.backend;
  options->storage_path = choice.path;
  options->direct_io = choice.direct_io;
  options->io_queue_depth = choice.queue_depth;
}

/// Total-work (model) for one configuration; aborts on config errors since
/// bench inputs are static.
inline model::TotalWork TotalWorkOrDie(SchemeKind scheme,
                                       UpdateTechniqueKind technique,
                                       const model::CaseParams& params,
                                       int window, int num_indexes) {
  auto work =
      model::EstimateTotalWork(scheme, technique, params, window, num_indexes);
  if (!work.ok()) work.status().Abort("EstimateTotalWork");
  return std::move(work).ValueOrDie();
}

inline std::string Fmt(double v, int precision = 1) {
  return FormatDouble(v, precision);
}

/// The first line `command` prints, or "" when it prints nothing or fails.
inline std::string FirstOutputLine(const std::string& command) {
  std::string line;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// Writes the "provenance" member of a BENCH_*.json object: the commit of
/// the checkout the bench ran in (suffixed "-dirty" when tracked files
/// differ from it), the build type, the CPUs this process may run on (what
/// `nproc` prints) and how many timed repetitions each reported figure
/// aggregates.
inline void WriteProvenance(std::ostream& out, int repetitions) {
  const std::string git =
      std::string("git -C '") + WAVEKIT_SOURCE_DIR + "' ";
  std::string commit = FirstOutputLine(git + "rev-parse HEAD 2>/dev/null");
  if (commit.empty()) {
    commit = "unknown";
  } else if (!FirstOutputLine(git +
                              "status --porcelain --untracked-files=no "
                              "2>/dev/null")
                  .empty()) {
    commit += "-dirty";
  }
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  out << "  \"provenance\": {\"commit\": \"" << commit
      << "\", \"build_type\": \"" << WAVEKIT_BUILD_TYPE
      << "\", \"nproc\": " << nproc << ", \"repetitions\": " << repetitions
      << "},\n";
}

/// Writes `registry` as a standalone JSON file next to the bench's main
/// BENCH_*.json, so a run leaves the full metric state (device phase
/// counters, cache shard stats, ...) behind for offline analysis.
inline void WriteMetricsJson(const obs::MetricsRegistry& registry,
                             const std::string& path) {
  std::ofstream out(path);
  out << registry.RenderJson();
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace wavekit

#endif  // WAVEKIT_BENCH_COMMON_H_
