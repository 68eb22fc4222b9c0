#include "campaign/orchestrator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "campaign/shard_runner.hpp"
#include "campaign/store.hpp"

namespace bansim::campaign {
namespace {

using Clock = std::chrono::steady_clock;

/// argv[1] sentinel that routes a re-exec'd child into worker mode.  The
/// double-underscore shape keeps it from colliding with any real CLI verb.
constexpr const char* kWorkerSentinel = "__bansim_campaign_worker__";

/// Worker id the orchestrator writes its own records (quarantines) under;
/// real worker ids count up from 0 and can never reach it.
constexpr std::uint32_t kOrchestratorWorkerId = 0xFFFFFFFFu;

/// SIGTERM flags: one for an orchestrating process, one for a worker.
/// They are distinct because the orchestrator and worker code paths live
/// in the same binary but never in the same process.
volatile std::sig_atomic_t g_orchestrator_sigterm = 0;
volatile std::sig_atomic_t g_worker_sigterm = 0;

void on_orchestrator_sigterm(int) { g_orchestrator_sigterm = 1; }
void on_worker_sigterm(int) { g_worker_sigterm = 1; }

/// Installs a SIGTERM handler without SA_RESTART (poll/read must wake
/// with EINTR so the shutdown flag gets seen) and restores the previous
/// disposition on scope exit.
class ScopedSigterm {
 public:
  explicit ScopedSigterm(void (*handler)(int)) {
    struct sigaction action {};
    action.sa_handler = handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGTERM, &action, &previous_);
  }
  ~ScopedSigterm() { ::sigaction(SIGTERM, &previous_, nullptr); }
  ScopedSigterm(const ScopedSigterm&) = delete;
  ScopedSigterm& operator=(const ScopedSigterm&) = delete;

 private:
  struct sigaction previous_ {};
};

/// waitpid that retries on EINTR — a signal delivered mid-reap (SIGTERM,
/// SIGCHLD from another worker) must not make us silently mis-reap.
pid_t waitpid_eintr(pid_t pid, int* status) {
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(pid, status, 0);
  } while (reaped < 0 && errno == EINTR);
  return reaped;
}

/// Shard index peeked from a kShardResult/kQuarantine payload without
/// full decode — both codecs lead with the u64 shard index, so the
/// completeness diff only needs these bytes.
[[nodiscard]] std::optional<std::uint64_t> peek_shard_index(
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(payload[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

/// What the store already accounts for: durable shard results and durable
/// quarantine markers.  A shard with both counts as done (data wins).
struct StoreProgress {
  std::set<std::size_t> done;
  std::set<std::size_t> quarantined;
};

[[nodiscard]] StoreProgress store_progress(const std::filesystem::path& dir) {
  StoreProgress progress;
  const StoreScan scan = scan_store(dir);
  for (const SegmentScan& segment : scan.segments) {
    for (const Record& record : segment.records) {
      if (record.type != RecordType::kShardResult &&
          record.type != RecordType::kQuarantine) {
        continue;
      }
      if (const auto index = peek_shard_index(record.payload)) {
        auto& bucket = record.type == RecordType::kShardResult
                           ? progress.done
                           : progress.quarantined;
        bucket.insert(static_cast<std::size_t>(*index));
      }
    }
  }
  for (const std::size_t index : progress.done) {
    progress.quarantined.erase(index);
  }
  return progress;
}

/// One parsed worker_chaos entry set (see orchestrator.hpp).  Ordinal
/// entries only arm inside the first worker of a run; poison entries arm
/// in every worker, including respawns — that is what makes a shard
/// *deterministically* poisonous.
struct WorkerChaos {
  enum class OrdinalMode { kMid, kTorn, kPost, kHang };
  std::size_t ordinal{0};  ///< 1-based executed-shard count (0 = off)
  OrdinalMode ordinal_mode{OrdinalMode::kMid};
  enum class PoisonMode { kHang, kCrash };
  std::map<std::size_t, PoisonMode> poison;  ///< global shard index -> mode
};

[[nodiscard]] WorkerChaos parse_worker_chaos(const std::string& text,
                                             bool arm_ordinal) {
  WorkerChaos chaos;
  if (text.empty() || text == "-") return chaos;
  std::istringstream in(text);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    if (entry.empty()) continue;
    const auto colon = entry.find(':');
    if (colon == std::string::npos) {
      throw StoreError(
          "worker chaos entry must be <ordinal>:<mode> or shard=<k>:<mode>, "
          "got '" +
          entry + "'");
    }
    const std::string where = entry.substr(0, colon);
    const std::string mode = entry.substr(colon + 1);
    if (where.rfind("shard=", 0) == 0) {
      std::size_t index = 0;
      try {
        index = std::stoul(where.substr(6));
      } catch (const std::exception&) {
        throw StoreError("worker chaos: bad shard index in '" + entry + "'");
      }
      if (mode == "hang") {
        chaos.poison[index] = WorkerChaos::PoisonMode::kHang;
      } else if (mode == "crash") {
        chaos.poison[index] = WorkerChaos::PoisonMode::kCrash;
      } else {
        throw StoreError("worker chaos: poison mode must be hang|crash, got '" +
                         mode + "'");
      }
      continue;
    }
    std::size_t ordinal = 0;
    try {
      ordinal = std::stoul(where);
    } catch (const std::exception&) {
      throw StoreError("worker chaos: bad ordinal in '" + entry + "'");
    }
    WorkerChaos::OrdinalMode ordinal_mode;
    if (mode == "mid") {
      ordinal_mode = WorkerChaos::OrdinalMode::kMid;
    } else if (mode == "torn") {
      ordinal_mode = WorkerChaos::OrdinalMode::kTorn;
    } else if (mode == "post") {
      ordinal_mode = WorkerChaos::OrdinalMode::kPost;
    } else if (mode == "hang") {
      ordinal_mode = WorkerChaos::OrdinalMode::kHang;
    } else {
      throw StoreError(
          "worker chaos mode must be mid|torn|post|hang, got '" + mode + "'");
    }
    if (arm_ordinal) {
      chaos.ordinal = ordinal;
      chaos.ordinal_mode = ordinal_mode;
    }
  }
  return chaos;
}

[[noreturn]] void kill_self() {
  ::raise(SIGKILL);
  ::_exit(137);  // unreachable; placate noreturn if the raise is blocked
}

/// The wedge-forever hook: what a worker stuck in an infinite loop or a
/// deadlock looks like from the outside.  SIGTERM-proof by design — only
/// the watchdog's SIGKILL ends it.
[[noreturn]] void wedge_forever() {
  for (;;) ::pause();
}

void apply_worker_rlimits(std::uint32_t cpu_limit_s,
                          std::uint32_t mem_limit_mb) {
  if (cpu_limit_s != 0) {
    // Soft limit delivers SIGXCPU at the cap; the hard limit a beat later
    // is the SIGKILL backstop should the default disposition be blocked.
    struct rlimit limit {};
    limit.rlim_cur = cpu_limit_s;
    limit.rlim_max = cpu_limit_s + 2;
    ::setrlimit(RLIMIT_CPU, &limit);
  }
  if (mem_limit_mb != 0) {
    struct rlimit limit {};
    limit.rlim_cur = static_cast<rlim_t>(mem_limit_mb) * 1024 * 1024;
    limit.rlim_max = limit.rlim_cur;
    ::setrlimit(RLIMIT_AS, &limit);
  }
}

/// Reads one '\n'-terminated line from fd, retrying on EINTR.  Returns
/// false on EOF or when a SIGTERM asked the worker to wind down.
bool read_work_line(int fd, std::string& line) {
  line.clear();
  char byte = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n < 0) {
      if (errno == EINTR) {
        if (g_worker_sigterm != 0) return false;
        continue;
      }
      return false;
    }
    if (n == 0) return false;  // EOF: normal shutdown
    if (byte == '\n') return true;
    line.push_back(byte);
  }
}

/// The worker loop: read global shard indices off stdin (one per line),
/// execute each against warmed cells, append the result to this worker's
/// segment, and speak the heartbeat protocol on stdout ("start <k>", one
/// "hb <k>" per patient, "done <k>").  EOF or SIGTERM is a clean
/// shutdown: the in-flight shard finishes, a final checkpoint records the
/// worker's true progress, and the process exits 0.
int worker_main(const std::filesystem::path& dir, std::uint32_t generation,
                std::uint32_t worker_id, std::size_t checkpoint_every,
                const std::string& chaos_text, std::uint32_t cpu_limit_s,
                std::uint32_t mem_limit_mb) {
  ScopedSigterm sigterm(on_worker_sigterm);
  apply_worker_rlimits(cpu_limit_s, mem_limit_mb);
  const WorkerChaos chaos =
      parse_worker_chaos(chaos_text, /*arm_ordinal=*/worker_id == 0);
  const LoadedCampaign campaign = load_campaign(dir);
  const std::vector<ShardSpec> shards = plan_shards(campaign.spec);
  ShardRunner runner(campaign.spec, campaign.base);
  SegmentWriter writer(dir, SegmentId{generation, worker_id});

  std::size_t executed = 0;
  std::size_t last_index = 0;
  const auto flush_final_checkpoint = [&] {
    // The cadence checkpoint already covered an exact multiple; anything
    // else gets its progress pinned by one final record.
    if (executed == 0 || checkpoint_every == 0) return;
    if (executed % checkpoint_every == 0) return;
    Checkpoint checkpoint;
    checkpoint.shards_completed = executed;
    checkpoint.last_shard = last_index;
    writer.append(RecordType::kCheckpoint, encode_checkpoint(checkpoint));
  };

  std::string line;
  while (g_worker_sigterm == 0 && read_work_line(STDIN_FILENO, line)) {
    if (line.empty()) continue;
    std::size_t index = 0;
    try {
      index = std::stoul(line);
    } catch (const std::exception&) {
      std::cerr << "worker " << worker_id << ": bad shard index '" << line
                << "'\n";
      return 2;
    }
    if (index >= shards.size()) {
      std::cerr << "worker " << worker_id << ": shard " << index
                << " out of range (" << shards.size() << " planned)\n";
      return 2;
    }
    ++executed;
    last_index = index;
    std::cout << "start " << index << "\n" << std::flush;

    const bool ordinal_here =
        chaos.ordinal != 0 && executed == chaos.ordinal;
    if (ordinal_here && chaos.ordinal_mode == WorkerChaos::OrdinalMode::kMid) {
      kill_self();
    }
    if (ordinal_here &&
        chaos.ordinal_mode == WorkerChaos::OrdinalMode::kHang) {
      wedge_forever();
    }
    if (const auto poison = chaos.poison.find(index);
        poison != chaos.poison.end()) {
      if (poison->second == WorkerChaos::PoisonMode::kHang) wedge_forever();
      kill_self();
    }

    runner.set_progress([&](std::size_t) {
      std::cout << "hb " << index << "\n" << std::flush;
    });
    const ShardResult result = runner.run(shards[index]);
    const std::vector<std::uint8_t> payload = encode_shard_result(result);
    if (ordinal_here &&
        chaos.ordinal_mode == WorkerChaos::OrdinalMode::kTorn) {
      // Die mid-write: land the frame header plus half the payload, the
      // organic torn tail a SIGKILL during write() produces.
      writer.append_torn(RecordType::kShardResult, payload,
                         12 + payload.size() / 2);
      kill_self();
    }
    writer.append(RecordType::kShardResult, payload);
    if (ordinal_here &&
        chaos.ordinal_mode == WorkerChaos::OrdinalMode::kPost) {
      kill_self();
    }

    if (checkpoint_every != 0 && executed % checkpoint_every == 0) {
      Checkpoint checkpoint;
      checkpoint.shards_completed = executed;
      checkpoint.last_shard = index;
      writer.append(RecordType::kCheckpoint, encode_checkpoint(checkpoint));
    }
    std::cout << "done " << index << "\n" << std::flush;
  }
  flush_final_checkpoint();
  return 0;
}

/// One spawned worker process and its work-queue plumbing.
struct WorkerProc {
  pid_t pid{-1};
  int to_child{-1};    ///< write end: shard assignments
  int from_child{-1};  ///< read end: heartbeat/done replies
  std::uint32_t id{0};
  std::string buf;
  std::optional<std::size_t> inflight;
  Clock::time_point last_progress{};  ///< dispatch/start/hb/done time
  Clock::time_point inflight_start{};
  bool alive{false};
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

[[nodiscard]] WorkerProc spawn_worker(const std::filesystem::path& dir,
                                      std::uint32_t generation,
                                      std::uint32_t worker_id,
                                      const RunCampaignOptions& options) {
  int in_pipe[2];   // orchestrator -> worker stdin
  int out_pipe[2];  // worker stdout -> orchestrator
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) {
    throw StoreError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw StoreError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string dir_str = dir.string();
    const std::string gen_str = std::to_string(generation);
    const std::string id_str = std::to_string(worker_id);
    const std::string ckpt_str = std::to_string(options.checkpoint_every);
    const std::string chaos_str =
        options.worker_chaos.empty() ? "-" : options.worker_chaos;
    const std::string cpu_str = std::to_string(options.worker_cpu_limit_s);
    const std::string mem_str = std::to_string(options.worker_mem_limit_mb);
    const char* argv[] = {"bansim-campaign-worker",
                          kWorkerSentinel,
                          dir_str.c_str(),
                          gen_str.c_str(),
                          id_str.c_str(),
                          ckpt_str.c_str(),
                          chaos_str.c_str(),
                          cpu_str.c_str(),
                          mem_str.c_str(),
                          nullptr};
    ::execv("/proc/self/exe", const_cast<char* const*>(argv));
    std::perror("execv /proc/self/exe");
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  WorkerProc worker;
  worker.pid = pid;
  worker.to_child = in_pipe[1];
  worker.from_child = out_pipe[0];
  worker.id = worker_id;
  worker.alive = true;
  worker.last_progress = Clock::now();
  return worker;
}

/// Why a shard attempt failed — recorded in the quarantine record when
/// the budget runs out.
enum class FailKind { kHang, kCrash, kExit };

[[nodiscard]] QuarantineRecord::Reason to_reason(FailKind kind) {
  switch (kind) {
    case FailKind::kHang:
      return QuarantineRecord::Reason::kHang;
    case FailKind::kCrash:
      return QuarantineRecord::Reason::kCrash;
    case FailKind::kExit:
      return QuarantineRecord::Reason::kExit;
  }
  return QuarantineRecord::Reason::kExit;
}

/// The multi-process orchestration loop with the worker-health layer.
/// Kept as a class because the watchdog, retry, and dispatch decisions
/// share a lot of state the old lambda soup obscured.
class MultiprocessRun {
 public:
  MultiprocessRun(const std::filesystem::path& dir,
                  const RunCampaignOptions& options, const CampaignSpec& spec,
                  std::uint32_t generation, std::deque<std::size_t> pending,
                  RunCampaignResult result)
      : dir_(dir),
        options_(options),
        spec_(spec),
        shards_(plan_shards(spec)),
        generation_(generation),
        pending_(std::move(pending)),
        result_(std::move(result)),
        estimate_ms_(spec.variant_count(), 0.0) {}

  RunCampaignResult run() {
    // A dead worker's queue pipe raises SIGPIPE on write; we want the
    // EPIPE return instead so the shard can be requeued.
    ::signal(SIGPIPE, SIG_IGN);
    g_orchestrator_sigterm = 0;
    ScopedSigterm sigterm(on_orchestrator_sigterm);

    const unsigned initial = std::min<unsigned>(
        options_.workers,
        static_cast<unsigned>(std::max<std::size_t>(pending_.size(), 1)));
    // Retry budgets bound the deaths any one shard can cause; this is the
    // global backstop against pathologies the budgets don't see (e.g. a
    // config that kills workers before they ever take a shard).
    respawn_budget_ = 4 * options_.workers + 8 +
                      static_cast<unsigned>(4 * spec_.retry_budget);
    // Pre-size for the common case so a mid-loop spawn() rarely moves
    // workers_; loops that spawn must still not hold WorkerProc
    // references across the call (see run_watchdog).
    workers_.reserve(initial + respawn_budget_ + 1);
    for (unsigned i = 0; i < initial; ++i) spawn();

    while (true) {
      if (g_orchestrator_sigterm != 0 && !stopping_) {
        // Operator shutdown: stop handing out work, let in-flight shards
        // finish (the watchdog stays armed so a wedged worker cannot hold
        // the shutdown hostage), then return incomplete-but-valid.
        stopping_ = true;
        pending_.clear();
      }
      const Clock::time_point now = Clock::now();
      run_watchdog(now);
      feed_workers(now);

      std::size_t live = 0;
      std::size_t busy = 0;
      for (const WorkerProc& worker : workers_) {
        if (worker.alive) ++live;
        if (worker.alive && worker.inflight) ++busy;
      }
      if (pending_.empty() && busy == 0) break;
      if (live == 0) {
        if (may_respawn()) {
          spawn();
          continue;
        }
        break;
      }
      poll_and_read(now);
    }

    for (WorkerProc& worker : workers_) {
      if (!worker.alive) continue;
      close_fd(worker.to_child);
      close_fd(worker.from_child);
      int status = 0;
      waitpid_eintr(worker.pid, &status);
    }
    const std::size_t accounted =
        result_.shards_run + result_.shards_already_complete +
        result_.shards_already_quarantined + result_.shards_quarantined;
    result_.incomplete = accounted < result_.shards_total;
    return result_;
  }

 private:
  void spawn() {
    workers_.push_back(
        spawn_worker(dir_, generation_, next_worker_id_++, options_));
    ++result_.workers_spawned;
  }

  [[nodiscard]] bool may_respawn() const {
    return options_.respawn_dead_workers &&
           result_.workers_died < respawn_budget_ && !stopping_ &&
           !pending_.empty();
  }

  /// Wall-clock deadline for the worker's in-flight shard: the ceiling
  /// while its variant has no runtime estimate yet (first shard pays cell
  /// warm-up), else factor x the trailing estimate, clamped.
  [[nodiscard]] double deadline_ms(const WorkerProc& worker) const {
    const double estimate = estimate_ms_[shards_[*worker.inflight].variant];
    if (estimate <= 0.0) return spec_.deadline_ceiling_ms;
    return std::clamp(spec_.deadline_factor * estimate,
                      static_cast<double>(spec_.deadline_floor_ms),
                      static_cast<double>(spec_.deadline_ceiling_ms));
  }

  /// Charges one failed attempt to a shard: back under budget it is
  /// requeued behind an exponential backoff; at budget it is quarantined
  /// — a durable store record every later resume skips.
  void note_failure(std::size_t index, FailKind kind) {
    if (stopping_) return;  // winding down: the next resume retries it
    ShardState& state = shard_state_[index];
    ++state.attempts;
    if (state.attempts >= spec_.retry_budget) {
      QuarantineRecord record;
      record.shard = index;
      record.attempts = static_cast<std::uint32_t>(state.attempts);
      record.reason = to_reason(kind);
      if (!quarantine_writer_) {
        quarantine_writer_.emplace(
            dir_, SegmentId{generation_, kOrchestratorWorkerId});
      }
      quarantine_writer_->append(RecordType::kQuarantine,
                                 encode_quarantine(record));
      ++result_.shards_quarantined;
      return;
    }
    constexpr std::uint32_t kBackoffCapMs = 2000;
    const std::uint64_t shift =
        std::min<std::uint64_t>(state.attempts - 1, 20);
    const std::uint64_t backoff = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(options_.backoff_base_ms) << shift,
        kBackoffCapMs);
    state.eligible_at = Clock::now() + std::chrono::milliseconds(backoff);
    pending_.push_front(index);
  }

  void reap(WorkerProc& worker, std::optional<FailKind> forced) {
    // EOF from an idle worker whose queue we already closed is clean
    // retirement, not a death — it ran out of work and exited 0.
    const bool retired = !forced && !worker.inflight && worker.to_child < 0;
    worker.alive = false;
    close_fd(worker.to_child);
    close_fd(worker.from_child);
    int status = 0;
    waitpid_eintr(worker.pid, &status);
    if (retired) return;
    ++result_.workers_died;
    if (worker.inflight) {
      const FailKind kind =
          forced ? *forced
                 : (WIFSIGNALED(status) ? FailKind::kCrash : FailKind::kExit);
      const std::size_t index = *worker.inflight;
      worker.inflight.reset();
      note_failure(index, kind);
    }
  }

  void run_watchdog(Clock::time_point now) {
    // Index-based on purpose: spawn() appends to workers_, which would
    // invalidate range-for iterators and any held WorkerProc reference.
    const std::size_t count = workers_.size();
    for (std::size_t i = 0; i < count; ++i) {
      WorkerProc& worker = workers_[i];
      if (!worker.alive || !worker.inflight) continue;
      const double silent_ms =
          std::chrono::duration<double, std::milli>(now -
                                                    worker.last_progress)
              .count();
      if (silent_ms <= deadline_ms(worker)) continue;
      ::kill(worker.pid, SIGKILL);
      ++result_.workers_hung;
      reap(worker, FailKind::kHang);
      if (may_respawn()) spawn();
    }
  }

  /// Assigns the next *eligible* pending shard (skipping ones still in
  /// backoff) to every idle worker; closes a worker's queue when no work
  /// remains at all.  A write that finds the worker dead reaps it.
  void feed_workers(Clock::time_point now) {
    for (WorkerProc& worker : workers_) {
      if (!worker.alive || worker.inflight) continue;
      if (pending_.empty()) {
        close_fd(worker.to_child);
        continue;
      }
      if (holding_for_die_after()) return;
      const auto eligible =
          std::find_if(pending_.begin(), pending_.end(), [&](std::size_t k) {
            const auto it = shard_state_.find(k);
            return it == shard_state_.end() || it->second.eligible_at <= now;
          });
      if (eligible == pending_.end()) continue;  // all waiting out backoff
      const std::size_t index = *eligible;
      const std::string line = std::to_string(index) + "\n";
      const ssize_t n = ::write(worker.to_child, line.data(), line.size());
      if (n != static_cast<ssize_t>(line.size())) {
        reap(worker, std::nullopt);
        continue;
      }
      pending_.erase(eligible);
      worker.inflight = index;
      worker.last_progress = now;
      worker.inflight_start = now;
    }
  }

  /// die_after_shards kills at exactly that many completions.  A shard
  /// handed out beyond them could still become durable before the kill
  /// (a 16-shard campaign killed after 15 could end up complete), so no
  /// shard is dispatched once those in flight reach the kill point.
  [[nodiscard]] bool holding_for_die_after() const {
    if (options_.die_after_shards == 0) return false;
    std::size_t out = result_.shards_run;
    for (const WorkerProc& worker : workers_) {
      if (worker.alive && worker.inflight) ++out;
    }
    return out >= options_.die_after_shards;
  }

  /// Bounded poll timeout: the soonest watchdog deadline or backoff
  /// expiry, clamped so the loop always revisits its state within a
  /// second even if the arithmetic says "longer".
  [[nodiscard]] int poll_timeout_ms(Clock::time_point now) const {
    double soonest = 1000.0;
    for (const WorkerProc& worker : workers_) {
      if (!worker.alive || !worker.inflight) continue;
      const double elapsed =
          std::chrono::duration<double, std::milli>(now -
                                                    worker.last_progress)
              .count();
      soonest = std::min(soonest, deadline_ms(worker) - elapsed);
    }
    for (const std::size_t index : pending_) {
      const auto it = shard_state_.find(index);
      if (it == shard_state_.end()) continue;
      const double wait = std::chrono::duration<double, std::milli>(
                              it->second.eligible_at - now)
                              .count();
      if (wait > 0) soonest = std::min(soonest, wait);
    }
    return std::clamp(static_cast<int>(soonest) + 1, 1, 1000);
  }

  void poll_and_read(Clock::time_point now) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_owner;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back(pollfd{workers_[i].from_child, POLLIN, 0});
      fd_owner.push_back(i);
    }
    if (::poll(fds.data(), fds.size(), poll_timeout_ms(now)) < 0) {
      if (errno == EINTR) return;  // SIGTERM: the loop head handles it
      throw StoreError(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& worker = workers_[fd_owner[f]];
      char chunk[256];
      const ssize_t n = ::read(worker.from_child, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;  // signal, not a dead worker
      if (n <= 0) {
        reap(worker, std::nullopt);
        if (may_respawn()) spawn();
        continue;
      }
      worker.buf.append(chunk, static_cast<std::size_t>(n));
      consume_replies(worker);
    }
  }

  void consume_replies(WorkerProc& worker) {
    std::size_t nl = 0;
    while (worker.alive &&
           (nl = worker.buf.find('\n')) != std::string::npos) {
      const std::string line = worker.buf.substr(0, nl);
      worker.buf.erase(0, nl + 1);
      std::size_t index = 0;
      char verb[8] = {0};
      if (std::sscanf(line.c_str(), "%7s %zu", verb, &index) != 2 ||
          !worker.inflight || *worker.inflight != index) {
        protocol_violation(worker);
        return;
      }
      const Clock::time_point now = Clock::now();
      const std::string verb_str(verb);
      if (verb_str == "start") {
        worker.last_progress = now;
        worker.inflight_start = now;
      } else if (verb_str == "hb") {
        worker.last_progress = now;
      } else if (verb_str == "done") {
        worker.last_progress = now;
        update_estimate(index, now - worker.inflight_start);
        worker.inflight.reset();
        shard_state_.erase(index);
        ++result_.shards_run;
        maybe_chaos_stop();
      } else {
        protocol_violation(worker);
        return;
      }
    }
  }

  void protocol_violation(WorkerProc& worker) {
    // Garbage or out-of-protocol reply: the worker is broken software,
    // not a crashed process — kill it and charge the shard as an exit.
    ::kill(worker.pid, SIGKILL);
    reap(worker, FailKind::kExit);
    if (may_respawn()) spawn();
  }

  void update_estimate(std::size_t index, Clock::duration elapsed) {
    const std::size_t variant = shards_[index].variant;
    const double sample =
        std::chrono::duration<double, std::milli>(elapsed).count();
    double& estimate = estimate_ms_[variant];
    estimate = estimate <= 0.0 ? sample : 0.5 * estimate + 0.5 * sample;
  }

  void maybe_chaos_stop() {
    if (options_.die_after_shards != 0 &&
        result_.shards_run >= options_.die_after_shards) {
      for (WorkerProc& worker : workers_) {
        if (worker.alive) ::kill(worker.pid, SIGKILL);
      }
      kill_self();
    }
    if (options_.stop_after_shards != 0 &&
        result_.shards_run >= options_.stop_after_shards) {
      stopping_ = true;
      pending_.clear();
    }
  }

  struct ShardState {
    std::size_t attempts{0};
    Clock::time_point eligible_at{};
  };

  const std::filesystem::path& dir_;
  const RunCampaignOptions& options_;
  const CampaignSpec& spec_;
  std::vector<ShardSpec> shards_;
  std::uint32_t generation_;
  std::deque<std::size_t> pending_;
  RunCampaignResult result_;
  std::vector<double> estimate_ms_;  ///< trailing per-variant runtime EWMA
  std::vector<WorkerProc> workers_;
  std::map<std::size_t, ShardState> shard_state_;  ///< failed shards only
  std::optional<SegmentWriter> quarantine_writer_;
  std::uint32_t next_worker_id_{0};
  unsigned respawn_budget_{0};
  bool stopping_{false};
};

RunCampaignResult run_in_process(const std::filesystem::path& dir,
                                 const RunCampaignOptions& options,
                                 std::uint32_t generation,
                                 const LoadedCampaign& campaign,
                                 const std::deque<std::size_t>& pending,
                                 RunCampaignResult result) {
  g_worker_sigterm = 0;
  ScopedSigterm sigterm(on_worker_sigterm);
  const std::vector<ShardSpec> shards = plan_shards(campaign.spec);
  ShardRunner runner(campaign.spec, campaign.base);
  SegmentWriter writer(dir, SegmentId{generation, 0});
  std::size_t executed = 0;
  std::size_t last_index = 0;
  bool stopped = false;
  for (std::size_t index : pending) {
    if (g_worker_sigterm != 0) {
      stopped = true;
      break;
    }
    const ShardResult shard_result = runner.run(shards[index]);
    writer.append(RecordType::kShardResult,
                  encode_shard_result(shard_result));
    ++executed;
    last_index = index;
    ++result.shards_run;
    if (options.checkpoint_every != 0 &&
        executed % options.checkpoint_every == 0) {
      Checkpoint checkpoint;
      checkpoint.shards_completed = executed;
      checkpoint.last_shard = index;
      writer.append(RecordType::kCheckpoint, encode_checkpoint(checkpoint));
    }
    if (options.die_after_shards != 0 &&
        result.shards_run >= options.die_after_shards) {
      kill_self();
    }
    if (options.stop_after_shards != 0 &&
        result.shards_run >= options.stop_after_shards) {
      stopped = true;
      break;
    }
  }
  if (stopped && executed != 0 && options.checkpoint_every != 0 &&
      executed % options.checkpoint_every != 0) {
    Checkpoint checkpoint;
    checkpoint.shards_completed = executed;
    checkpoint.last_shard = last_index;
    writer.append(RecordType::kCheckpoint, encode_checkpoint(checkpoint));
  }
  const std::size_t accounted =
      result.shards_run + result.shards_already_complete +
      result.shards_already_quarantined + result.shards_quarantined;
  result.incomplete = accounted < result.shards_total;
  return result;
}

}  // namespace

void create_campaign(const std::filesystem::path& dir, const CampaignSpec& spec,
                     const core::BanConfig& base) {
  write_campaign(dir, spec, base);
}

RunCampaignResult run_campaign(const std::filesystem::path& dir,
                               const RunCampaignOptions& options) {
  const LoadedCampaign campaign = load_campaign(dir);
  const std::vector<ShardSpec> shards = plan_shards(campaign.spec);
  const StoreProgress progress = store_progress(dir);
  // Fail fast on a malformed chaos spec before any worker is spawned.
  (void)parse_worker_chaos(options.worker_chaos, true);

  RunCampaignResult result;
  result.generation = max_generation(dir) + 1;
  result.shards_total = shards.size();
  std::deque<std::size_t> pending;
  for (const ShardSpec& shard : shards) {
    if (progress.done.count(shard.index) != 0) {
      ++result.shards_already_complete;
    } else if (progress.quarantined.count(shard.index) != 0) {
      ++result.shards_already_quarantined;
    } else {
      pending.push_back(shard.index);
    }
  }
  if (pending.empty()) return result;

  if (options.workers == 0) {
    return run_in_process(dir, options, result.generation, campaign, pending,
                          result);
  }
  return MultiprocessRun(dir, options, campaign.spec, result.generation,
                         std::move(pending), std::move(result))
      .run();
}

int maybe_worker_main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != kWorkerSentinel) return -1;
  if (argc != 9) {
    std::cerr << "worker mode needs <dir> <gen> <worker> <ckpt> <chaos> "
                 "<cpu_s> <mem_mb>\n";
    return 2;
  }
  try {
    return worker_main(argv[2],
                       static_cast<std::uint32_t>(std::stoul(argv[3])),
                       static_cast<std::uint32_t>(std::stoul(argv[4])),
                       std::stoul(argv[5]), argv[6],
                       static_cast<std::uint32_t>(std::stoul(argv[7])),
                       static_cast<std::uint32_t>(std::stoul(argv[8])));
  } catch (const std::exception& e) {
    std::cerr << "campaign worker failed: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace bansim::campaign
