// Out-of-core mining end to end: generate, mine, and compare two
// 1M-transaction Quest datasets (the paper's 1M.20L.1K family, same
// generating process, independent samples) WITHOUT ever materializing
// either database — against the in-memory pipeline doing the same work
// the way a served snapshot gets it (flat VerticalIndex per dataset,
// Apriori over the materialized database, index-extended deviation).
//
// Each phase runs in a forked child so /proc/self/status VmHWM is a
// per-phase peak (fork resets the high-water mark to the parent's small
// orchestration footprint):
//   generate_block  GenerateQuestTo -> BlockTransactionDbWriter, both
//                   datasets streamed straight to block files
//   mine_block      BlockTransactionDb + TxnSourceRef Apriori + streaming
//                   LitsDeviation, bounded by the block cache budget
//   mine_memory     GenerateQuest (materialize) + VerticalIndex + Apriori
//                   + index deviation — RSS-unbounded. Generation
//                   is timed apart (mine_memory_generate_s), so
//                   mine_memory_s and mine_block_s time the same work.
//
// The deviation doubles from both pipelines are FOCUS_CHECKed identical.
// At FOCUS_FULL=1 the block phases must stay under --budget-mib (default
// 256) while the in-memory phase must exceed it — the point of the PR.
// Emits one JSON line (appended to $FOCUS_BENCH_JSON when set):
//   {"bench":"ooc_mine","transactions":…,"dataset":"1M.20L.1K…",
//    "block_size_kib":…,"budget_mib":…,"generate_block_s":…,
//    "generate_block_vm_hwm_mib":…,"block_file_mib":…,"mine_block_s":…,
//    "mine_block_vm_hwm_mib":…,"mine_block_txn_per_s":…,
//    "mine_memory_generate_s":…,"mine_memory_s":…,
//    "mine_memory_vm_hwm_mib":…,"mine_memory_txn_per_s":…,"deviation":…,
//    "checked":true}
// Flags:
//   --budget-mib=N      RSS budget asserted at FOCUS_FULL (default 256)
//   --rlimit-as-mib=N   setrlimit(RLIMIT_AS) in the block-phase children —
//                       the ctest row proves the out-of-core mine really
//                       runs inside a hard address-space cap (not applied,
//                       and said so, in an AddressSanitizer build)
//   --block-size-kib=N  block payload size (default 1024 = 1 MiB)

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "bench_common.h"
#include "common/check.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/functions.h"
#include "core/lits_deviation.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"

namespace focus {
namespace {

// AddressSanitizer reserves its shadow memory as address space up front,
// far beyond any RLIMIT_AS the block phases could run under.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

int64_t ReadVmHwmKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return -1;
}

// What a phase child reports back through its pipe.
struct PhaseResult {
  int64_t vm_hwm_kib = 0;
  double seconds = 0.0;           // excludes generate_seconds
  double generate_seconds = 0.0;  // input generation inside the phase
  double deviation = 0.0;         // 0 for phases that compute none
  int64_t aux = 0;                // phase-specific (e.g. block file bytes)
};

// Runs `phase` in a forked child (optionally under RLIMIT_AS) and returns
// its timing, VmHWM, and payload. Any failure inside the child — a
// FOCUS_CHECK, an allocation over the rlimit — fails the parent.
PhaseResult RunPhase(const char* name, int64_t rlimit_as_mib,
                     const std::function<PhaseResult()>& phase) {
  int fds[2];
  FOCUS_CHECK_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  FOCUS_CHECK_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    if (rlimit_as_mib > 0) {
      const rlim_t bytes = static_cast<rlim_t>(rlimit_as_mib) << 20;
      rlimit limit{bytes, bytes};
      if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(3);
    }
    common::Timer timer;
    PhaseResult result = phase();
    result.seconds = timer.Seconds() - result.generate_seconds;
    result.vm_hwm_kib = ReadVmHwmKib();
    const ssize_t written = write(fds[1], &result, sizeof(result));
    _exit(written == static_cast<ssize_t>(sizeof(result)) ? 0 : 2);
  }
  close(fds[1]);
  PhaseResult result;
  const ssize_t got = read(fds[0], &result, sizeof(result));
  close(fds[0]);
  int status = 0;
  FOCUS_CHECK_EQ(waitpid(pid, &status, 0), pid);
  FOCUS_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "phase " << name << " failed (status " << status << ")";
  FOCUS_CHECK_EQ(got, static_cast<ssize_t>(sizeof(result)));
  std::printf("  %-14s %8.2fs  VmHWM %6.1f MiB\n", name, result.seconds,
              static_cast<double>(result.vm_hwm_kib) / 1024.0);
  return result;
}

datagen::QuestParams DatasetParams(int64_t n, uint64_t seed) {
  // Same generating process (shared pattern table), independent samples —
  // the paper's "same distribution" pair, so the deviation is the
  // interesting small-but-nonzero kind.
  datagen::QuestParams params = bench::PaperQuestParams(n, 4000, 4, seed);
  params.pattern_seed = 1;
  return params;
}

int64_t WriteQuestBlocks(const datagen::QuestParams& params,
                         const std::string& path, int64_t block_size) {
  auto out = data::OpenBlockFileForWrite(path);
  FOCUS_CHECK(out != nullptr) << path;
  data::BlockTransactionDbWriter writer(*out, params.num_items, block_size);
  datagen::GenerateQuestTo(params, [&writer](std::span<const int32_t> items) {
    writer.Add(items);
  });
  writer.Finish();
  FOCUS_CHECK_EQ(writer.num_transactions(), params.num_transactions);
  return static_cast<int64_t>(out->tellp());
}

std::unique_ptr<data::BlockTransactionDb> OpenBlocks(
    const std::string& path, common::ThreadPool* pool) {
  data::BlockStoreOptions options;
  options.pool = pool;
  std::string error;
  auto db = data::BlockTransactionDb::OpenFile(path, options, &error);
  FOCUS_CHECK(db != nullptr) << error;
  return db;
}

int Run(int argc, char** argv) {
  int64_t budget_mib = 256;
  int64_t rlimit_as_mib = 0;
  int64_t block_size_kib = 1024;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budget-mib=", 13) == 0) {
      budget_mib = std::atoll(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--rlimit-as-mib=", 16) == 0) {
      rlimit_as_mib = std::atoll(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--block-size-kib=", 17) == 0) {
      block_size_kib = std::atoll(argv[i] + 17);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (kAddressSanitizer && rlimit_as_mib > 0) {
    std::printf("ooc_mine: AddressSanitizer build, --rlimit-as-mib=%lld "
                "not applied\n",
                static_cast<long long>(rlimit_as_mib));
    rlimit_as_mib = 0;
  }
  const int64_t block_size = block_size_kib << 10;
  const bool full = common::GetEnvBool("FOCUS_FULL", false);
  const int64_t n = bench::ScaledCount(20000, 1000000);
  const datagen::QuestParams p1 = DatasetParams(n, /*seed=*/1);
  const datagen::QuestParams p2 = DatasetParams(n, /*seed=*/2);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string path1 =
      dir + "/ooc_mine_d1_" + std::to_string(getpid()) + ".fblk";
  const std::string path2 =
      dir + "/ooc_mine_d2_" + std::to_string(getpid()) + ".fblk";

  lits::AprioriOptions apriori;
  apriori.min_support = 0.01;
  apriori.max_itemset_size = 3;
  const core::DeviationFunction fn;

  std::printf("ooc_mine: 2 x %s, block_size %lld KiB, budget %lld MiB%s\n",
              p1.Name().c_str(), static_cast<long long>(block_size_kib),
              static_cast<long long>(budget_mib),
              rlimit_as_mib > 0 ? " (RLIMIT_AS capped)" : "");

  const PhaseResult gen =
      RunPhase("generate_block", rlimit_as_mib, [&]() {
        PhaseResult result;
        result.aux = WriteQuestBlocks(p1, path1, block_size) +
                     WriteQuestBlocks(p2, path2, block_size);
        return result;
      });

  const PhaseResult mine_block =
      RunPhase("mine_block", rlimit_as_mib, [&]() {
        common::ThreadPool pool(2);
        const auto d1 = OpenBlocks(path1, &pool);
        const auto d2 = OpenBlocks(path2, &pool);
        const data::TxnSourceRef s1(*d1);
        const data::TxnSourceRef s2(*d2);
        const lits::LitsModel m1 = lits::Apriori(s1, apriori);
        const lits::LitsModel m2 = lits::Apriori(s2, apriori);
        PhaseResult result;
        result.deviation = core::LitsDeviation(m1, s1, m2, s2, fn);
        result.aux = static_cast<int64_t>(m1.size() + m2.size());
        return result;
      });

  const PhaseResult mine_memory = RunPhase("mine_memory", 0, [&]() {
    PhaseResult result;
    common::Timer generate;
    const data::TransactionDb d1 = datagen::GenerateQuest(p1);
    const data::TransactionDb d2 = datagen::GenerateQuest(p2);
    result.generate_seconds = generate.Seconds();
    const data::VerticalIndex i1(d1);
    const data::VerticalIndex i2(d2);
    const lits::LitsModel m1 = lits::Apriori(d1, apriori, &i1);
    const lits::LitsModel m2 = lits::Apriori(d2, apriori, &i2);
    result.deviation = core::LitsDeviation(m1, &i1, m2, &i2, fn);
    result.aux = static_cast<int64_t>(m1.size() + m2.size());
    return result;
  });

  std::remove(path1.c_str());
  std::remove(path2.c_str());

  // The two pipelines must agree bit for bit: same models (streamed vs.
  // in-memory scans), same deviation (streamed counting vs. vertical
  // AND+popcount).
  FOCUS_CHECK_EQ(mine_block.aux, mine_memory.aux);
  FOCUS_CHECK(mine_block.deviation == mine_memory.deviation)
      << mine_block.deviation << " vs " << mine_memory.deviation;

  const double block_hwm_mib =
      static_cast<double>(mine_block.vm_hwm_kib) / 1024.0;
  const double gen_hwm_mib = static_cast<double>(gen.vm_hwm_kib) / 1024.0;
  const double memory_hwm_mib =
      static_cast<double>(mine_memory.vm_hwm_kib) / 1024.0;
  if (full) {
    // The point of the exercise: the paper-scale mine fits the budget out
    // of core and does not fit it in memory.
    FOCUS_CHECK_LE(gen_hwm_mib, static_cast<double>(budget_mib));
    FOCUS_CHECK_LE(block_hwm_mib, static_cast<double>(budget_mib));
    FOCUS_CHECK_GT(memory_hwm_mib, static_cast<double>(budget_mib));
  }

  char line[768];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"ooc_mine\",\"transactions\":%lld,\"dataset\":\"%s\","
      "\"block_size_kib\":%lld,\"budget_mib\":%lld,"
      "\"generate_block_s\":%.3f,\"generate_block_vm_hwm_mib\":%.1f,"
      "\"block_file_mib\":%.1f,"
      "\"mine_block_s\":%.3f,\"mine_block_vm_hwm_mib\":%.1f,"
      "\"mine_block_txn_per_s\":%.0f,\"mine_memory_generate_s\":%.3f,"
      "\"mine_memory_s\":%.3f,\"mine_memory_vm_hwm_mib\":%.1f,"
      "\"mine_memory_txn_per_s\":%.0f,"
      "\"frequent_itemsets\":%lld,\"deviation\":%.17g,\"checked\":true}",
      static_cast<long long>(n), p1.Name().c_str(),
      static_cast<long long>(block_size_kib),
      static_cast<long long>(budget_mib), gen.seconds, gen_hwm_mib,
      static_cast<double>(gen.aux) / (1024.0 * 1024.0), mine_block.seconds,
      block_hwm_mib, static_cast<double>(2 * n) / mine_block.seconds,
      mine_memory.generate_seconds, mine_memory.seconds,
      memory_hwm_mib, static_cast<double>(2 * n) / mine_memory.seconds,
      static_cast<long long>(mine_block.aux), mine_block.deviation);
  bench::EmitBenchJson(line);
  return 0;
}

}  // namespace
}  // namespace focus

int main(int argc, char** argv) { return focus::Run(argc, argv); }
