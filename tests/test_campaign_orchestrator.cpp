// Crash-recovery and worker-health battery for the campaign orchestrator.
//
// Every test pins the same contract from a different failure angle: a
// campaign that is killed, torn, corrupted or split mid-flight and then
// resumed must produce aggregates EXACTLY equal (bit-identical doubles)
// to the same campaign run once, uninterrupted — across all four MAC
// protocols at once (every spec here sweeps static TDMA, dynamic TDMA,
// ALOHA and slotted CSMA/CA as variants).
//
// The watchdog half (DESIGN.md §5i) extends the contract to hostile
// shards: hung workers are SIGKILLed within their deadline, poison shards
// are quarantined after exactly `retry_budget` attempts, and a store with
// quarantined gaps renders byte-identically to one that never attempted
// those shards at all.
//
// The binary carries a custom main(): worker children that the
// orchestrator re-execs via /proc/self/exe re-enter through
// maybe_worker_main() before gtest ever initializes, so the forked
// workers run this test build's code.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/orchestrator.hpp"
#include "campaign/report.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace bansim;

/// The battery's scenario space: all four MAC protocols, 4 patients per
/// variant, one patient per shard (maximum kill granularity) -> 16 shards.
campaign::CampaignSpec battery_spec() {
  campaign::CampaignSpec spec;
  spec.patients = 4;
  spec.shard_size = 1;
  spec.protocols = {mac::Protocol::kStaticTdma, mac::Protocol::kDynamicTdma,
                    mac::Protocol::kAloha, mac::Protocol::kCsmaCa};
  spec.seeds = {11};
  spec.measure = sim::Duration::milliseconds(300);
  spec.settle = sim::Duration::milliseconds(500);
  spec.join_deadline = sim::Duration::seconds(20);
  spec.cdf_bins = 16;
  return spec;
}

/// Smaller space for the watchdog battery (2 protocols -> 8 shards) with
/// tight-but-safe health knobs: a shard here takes milliseconds, so a
/// 1.5 s floor / 4 s ceiling is two orders of magnitude of headroom
/// against sanitizer slowdown while keeping each deliberate hang short.
campaign::CampaignSpec watchdog_spec() {
  campaign::CampaignSpec spec = battery_spec();
  spec.protocols = {mac::Protocol::kStaticTdma, mac::Protocol::kCsmaCa};
  spec.retry_budget = 2;
  spec.deadline_floor_ms = 1500;
  spec.deadline_ceiling_ms = 4000;
  spec.deadline_factor = 8.0;
  return spec;
}

core::BanConfig battery_base() {
  core::BanConfig config;
  config.num_nodes = 3;
  config.tdma =
      mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 3);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;
  config.stagger = sim::Duration::milliseconds(2);
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 20.0;  // finite lifetimes
  return config;
}

campaign::CampaignAggregates aggregates_of(const fs::path& dir) {
  return campaign::aggregate(campaign::load_campaign(dir),
                             campaign::collect_results(dir));
}

/// Exact-equality assertion between two stores' aggregates: per-variant
/// rows compare as raw doubles (operator== is fieldwise, bit-exact),
/// the lifetime CDFs as integral bin counts + identical edges, and the
/// rendered artifacts byte-for-byte.
void expect_identical_aggregates(const fs::path& reference_dir,
                                 const fs::path& candidate_dir) {
  const campaign::CampaignAggregates a = aggregates_of(reference_dir);
  const campaign::CampaignAggregates b = aggregates_of(candidate_dir);
  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t v = 0; v < a.variants.size(); ++v) {
    EXPECT_TRUE(a.variants[v].rows == b.variants[v].rows)
        << "variant " << a.variants[v].variant.label()
        << " rows differ (exact-double comparison)";
  }
  EXPECT_EQ(a.lifetime_cdf.bin_count, b.lifetime_cdf.bin_count);
  EXPECT_EQ(a.lifetime_cdf.upper_edge, b.lifetime_cdf.upper_edge);
  EXPECT_EQ(a.lifetime_cdf.count, b.lifetime_cdf.count);
  EXPECT_EQ(a.lifetime_cdf.unbounded, b.lifetime_cdf.unbounded);
  EXPECT_EQ(campaign::render_csv(a), campaign::render_csv(b));
  EXPECT_EQ(campaign::render_report(a), campaign::render_report(b));
}

/// The quarantine analogue: both stores must be complete EXCEPT for the
/// same quarantined shard set, and the rendered artifacts byte-identical
/// — which only holds because the report renders quarantine gaps from
/// manifest geometry, never from the failure history.
void expect_identical_quarantined_outputs(const fs::path& reference_dir,
                                          const fs::path& candidate_dir) {
  const campaign::CampaignAggregates a = aggregates_of(reference_dir);
  const campaign::CampaignAggregates b = aggregates_of(candidate_dir);
  ASSERT_TRUE(a.complete_except_quarantined());
  ASSERT_TRUE(b.complete_except_quarantined());
  EXPECT_EQ(a.quarantined_shards, b.quarantined_shards);
  EXPECT_EQ(campaign::render_csv(a), campaign::render_csv(b));
  EXPECT_EQ(campaign::render_report(a), campaign::render_report(b));
}

class CampaignOrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("orch_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Creates and runs the battery campaign start-to-finish in-process —
  /// the uninterrupted reference every chaos scenario compares against.
  fs::path run_reference() {
    const fs::path dir = root_ / "reference";
    campaign::create_campaign(dir, battery_spec(), battery_base());
    campaign::RunCampaignOptions in_process;
    in_process.workers = 0;
    const auto result = campaign::run_campaign(dir, in_process);
    EXPECT_FALSE(result.incomplete);
    return dir;
  }

  fs::path make_campaign(const std::string& name) {
    const fs::path dir = root_ / name;
    campaign::create_campaign(dir, battery_spec(), battery_base());
    return dir;
  }

  fs::path make_campaign_with(const std::string& name,
                              const campaign::CampaignSpec& spec) {
    const fs::path dir = root_ / name;
    campaign::create_campaign(dir, spec, battery_base());
    return dir;
  }

  /// In-process reference run for an arbitrary spec (pre-seeded stores
  /// included — quarantined shards are skipped, not failures).
  fs::path run_reference_with(const campaign::CampaignSpec& spec,
                              const std::string& name = "reference") {
    const fs::path dir = make_campaign_with(name, spec);
    campaign::RunCampaignOptions in_process;
    in_process.workers = 0;
    const auto result = campaign::run_campaign(dir, in_process);
    EXPECT_FALSE(result.incomplete);
    return dir;
  }

  fs::path root_;
};

TEST_F(CampaignOrchestratorTest, MultiProcessMatchesInProcess) {
  const fs::path reference = run_reference();
  const fs::path dir = make_campaign("multiproc");
  campaign::RunCampaignOptions options;
  options.workers = 3;
  const auto result = campaign::run_campaign(dir, options);
  EXPECT_FALSE(result.incomplete);
  EXPECT_EQ(result.workers_spawned, 3U);
  EXPECT_EQ(result.workers_died, 0U);
  EXPECT_EQ(result.shards_run, 16U);
  expect_identical_aggregates(reference, dir);

  const campaign::VerifyReport verify = campaign::verify_store(dir);
  EXPECT_TRUE(verify.ok) << verify.render();
}

TEST_F(CampaignOrchestratorTest, WorkerSigkilledMidShardAtManyPoints) {
  // The first worker is SIGKILLed at a sweep of shard ordinals before its
  // record lands ("mid").  A respawned worker re-runs the lost shard; the
  // final aggregates must not show a trace of the crash.
  const fs::path reference = run_reference();
  for (const std::size_t ordinal : {1UL, 3UL, 7UL, 16UL}) {
    const fs::path dir =
        make_campaign("kill_mid_" + std::to_string(ordinal));
    campaign::RunCampaignOptions options;
    options.workers = 1;  // every shard flows through the chaos worker
    options.worker_chaos = std::to_string(ordinal) + ":mid";
    const auto result = campaign::run_campaign(dir, options);
    EXPECT_FALSE(result.incomplete) << "ordinal " << ordinal;
    EXPECT_GE(result.workers_died, 1U) << "ordinal " << ordinal;
    expect_identical_aggregates(reference, dir);
  }
}

TEST_F(CampaignOrchestratorTest, WorkerTornWriteAndPostWriteKills) {
  const fs::path reference = run_reference();
  // "torn": killed halfway through the record write — the store gains a
  // torn tail, the shard re-runs.  "post": killed after the record but
  // before reporting — the shard is durable, the orchestrator re-runs it
  // anyway (it cannot know), and last-writer-wins dedups the result.
  for (const std::string mode : {"torn", "post"}) {
    const fs::path dir = make_campaign("kill_" + mode);
    campaign::RunCampaignOptions options;
    options.workers = 2;
    options.worker_chaos = "2:" + mode;
    const auto result = campaign::run_campaign(dir, options);
    EXPECT_FALSE(result.incomplete) << mode;
    EXPECT_GE(result.workers_died, 1U) << mode;
    expect_identical_aggregates(reference, dir);

    const campaign::StoreScan scan = campaign::scan_store(dir);
    if (mode == "torn") {
      EXPECT_TRUE(scan.any_tail_error()) << "torn kill left no torn tail?";
    } else {
      EXPECT_GE(campaign::collect_results(dir).duplicates +
                    campaign::verify_store(dir).duplicates,
                1U)
          << "post kill should leave a duplicate record";
    }
    // Either way the store still verifies complete: torn tails are
    // warnings, duplicates are legal.
    EXPECT_TRUE(campaign::verify_store(dir).ok);
  }
}

TEST_F(CampaignOrchestratorTest, WholeCampaignSigkilledThenResumed) {
  // The outside-in crash: the whole orchestrator process group (parent +
  // workers) is SIGKILLed mid-campaign at a sweep of points, then a fresh
  // process resumes the directory.  This is the scenario the CI smoke
  // drives through the CLI; here it runs in-API via fork().
  const fs::path reference = run_reference();
  for (const std::size_t kill_after : {2UL, 8UL, 15UL}) {
    const fs::path dir =
        make_campaign("sigkill_" + std::to_string(kill_after));
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: run with workers and die_after — run_campaign
      // SIGKILLs the workers and then this process.  Nothing returns.
      campaign::RunCampaignOptions options;
      options.workers = 2;
      options.die_after_shards = kill_after;
      try {
        (void)campaign::run_campaign(dir, options);
      } catch (...) {
      }
      _exit(99);  // only reachable if the kill failed
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of dying (status " << status << ")";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The store is valid but incomplete; resume finishes it.
    const campaign::VerifyReport before = campaign::verify_store(dir);
    EXPECT_FALSE(before.ok);
    EXPECT_GE(before.shards_present, kill_after);
    campaign::RunCampaignOptions resume;
    resume.workers = 2;
    const auto resumed = campaign::run_campaign(dir, resume);
    EXPECT_FALSE(resumed.incomplete);
    EXPECT_GT(resumed.shards_already_complete, 0U);
    expect_identical_aggregates(reference, dir);
    EXPECT_TRUE(campaign::verify_store(dir).ok);
  }
}

TEST_F(CampaignOrchestratorTest, TruncatedStoreTailResumes) {
  // Chop bytes off a finished segment's tail (fs-level damage after a
  // power cut): the truncated records become invisible, resume re-runs
  // exactly those shards, aggregates stay identical.
  const fs::path reference = run_reference();
  const fs::path dir = make_campaign("truncate");
  campaign::RunCampaignOptions in_process;
  in_process.workers = 0;
  (void)campaign::run_campaign(dir, in_process);

  const fs::path segment = campaign::segments_dir(dir) / "gen1-w0.seg";
  ASSERT_TRUE(fs::exists(segment));
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 37);  // tear mid-record

  const campaign::StoreScan scan = campaign::scan_store(dir);
  ASSERT_TRUE(scan.any_tail_error());
  const auto resumed = campaign::run_campaign(dir, in_process);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_GE(resumed.shards_run, 1U);
  expect_identical_aggregates(reference, dir);
}

TEST_F(CampaignOrchestratorTest, BitFlipPlusDoubleResumeDedupsLastWriterWins) {
  // The nastiest store history we can manufacture: corrupt a mid-segment
  // record (hiding it and everything after), resume (re-runs those shards
  // into generation 2), then REPAIR the flipped bit — now both the old
  // generation-1 records and the new generation-2 records are visible for
  // the same shards.  Last-writer-wins must pick generation 2, and the
  // aggregates must still be bit-identical to the uninterrupted run.
  const fs::path reference = run_reference();
  const fs::path dir = make_campaign("bitflip");
  campaign::RunCampaignOptions in_process;
  in_process.workers = 0;
  (void)campaign::run_campaign(dir, in_process);

  const fs::path segment = campaign::segments_dir(dir) / "gen1-w0.seg";
  const campaign::SegmentScan before = campaign::scan_segment(segment);
  ASSERT_GE(before.records.size(), 16U);

  // Flip a bit inside the 5th record's payload.
  std::uint64_t offset = 24;  // header
  for (int r = 0; r < 4; ++r) offset += 12 + before.records[r].payload.size();
  offset += 30;  // inside record 4's payload
  const auto flip = [&] {
    std::fstream file(segment,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x08);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  };
  flip();
  ASSERT_LT(campaign::scan_segment(segment).records.size(), 16U);

  // First resume: re-runs every hidden shard into generation 2.
  const auto resume1 = campaign::run_campaign(dir, in_process);
  EXPECT_FALSE(resume1.incomplete);
  EXPECT_GE(resume1.shards_run, 1U);

  // Repair the bit: the generation-1 originals reappear as duplicates.
  flip();
  ASSERT_EQ(campaign::scan_segment(segment).records.size(),
            before.records.size());
  const campaign::CollectedResults collected = campaign::collect_results(dir);
  EXPECT_GE(collected.duplicates, 1U);
  expect_identical_aggregates(reference, dir);

  // Second resume: everything is durable, so it must be a no-op...
  const auto resume2 = campaign::run_campaign(dir, in_process);
  EXPECT_EQ(resume2.shards_run, 0U);
  EXPECT_FALSE(resume2.incomplete);
  // ...and the aggregates still hold after the double resume.
  expect_identical_aggregates(reference, dir);
  EXPECT_TRUE(campaign::verify_store(dir).ok);
}

TEST_F(CampaignOrchestratorTest, StopAfterShardsLeavesResumableStore) {
  const fs::path reference = run_reference();
  const fs::path dir = make_campaign("stop");
  campaign::RunCampaignOptions stop;
  stop.workers = 0;
  stop.stop_after_shards = 5;
  const auto partial = campaign::run_campaign(dir, stop);
  EXPECT_TRUE(partial.incomplete);
  EXPECT_EQ(partial.shards_run, 5U);

  campaign::RunCampaignOptions in_process;
  in_process.workers = 0;
  const auto resumed = campaign::run_campaign(dir, in_process);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_EQ(resumed.shards_already_complete, 5U);
  EXPECT_EQ(resumed.shards_run, 11U);
  expect_identical_aggregates(reference, dir);
}

TEST_F(CampaignOrchestratorTest, WorkerDeathWithoutRespawnReportsIncomplete) {
  const fs::path dir = make_campaign("norespawn");
  campaign::RunCampaignOptions options;
  options.workers = 1;
  options.respawn_dead_workers = false;
  options.worker_chaos = "3:mid";
  const auto result = campaign::run_campaign(dir, options);
  EXPECT_TRUE(result.incomplete);
  EXPECT_EQ(result.workers_died, 1U);
  EXPECT_LT(result.shards_run, result.shards_total);
  EXPECT_FALSE(campaign::verify_store(dir).ok);  // incomplete, by design

  // And a resume with healthy workers completes it.
  campaign::RunCampaignOptions resume;
  resume.workers = 2;
  const auto resumed = campaign::run_campaign(dir, resume);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_TRUE(campaign::verify_store(dir).ok);
}

// ---------------------------------------------------------------------------
// Watchdog, retry-budget, and quarantine battery (DESIGN.md §5i).

TEST_F(CampaignOrchestratorTest, HungWorkerKilledWithinDeadlineAndCompletes) {
  // The first worker wedges forever (SIGTERM-proof infinite loop) at its
  // 2nd shard.  The watchdog must SIGKILL it once its heartbeat gap
  // exceeds the shard deadline, requeue the shard, and the campaign must
  // still complete with aggregates identical to the clean run — a single
  // hang is a retry, never a quarantine with budget 2.
  const fs::path reference = run_reference_with(watchdog_spec());
  const fs::path dir = make_campaign_with("hang", watchdog_spec());
  campaign::RunCampaignOptions options;
  options.workers = 2;
  options.worker_chaos = "2:hang";
  options.backoff_base_ms = 10;
  const auto result = campaign::run_campaign(dir, options);
  EXPECT_FALSE(result.incomplete);
  EXPECT_GE(result.workers_hung, 1U);
  EXPECT_EQ(result.shards_quarantined, 0U);
  EXPECT_EQ(result.shards_run, 8U);
  expect_identical_aggregates(reference, dir);
  EXPECT_TRUE(campaign::verify_store(dir).ok);
}

TEST_F(CampaignOrchestratorTest, PoisonShardCrashQuarantinedAfterExactBudget) {
  // Shard 3 SIGKILLs every worker that touches it.  With retry_budget 2
  // it must be quarantined after exactly 2 attempts while the 7 healthy
  // shards complete, and a resume must skip it without a single retry.
  const campaign::CampaignSpec spec = watchdog_spec();
  const fs::path dir = make_campaign_with("poison", spec);
  campaign::RunCampaignOptions options;
  options.workers = 2;
  options.worker_chaos = "shard=3:crash";
  options.backoff_base_ms = 10;
  const auto result = campaign::run_campaign(dir, options);
  EXPECT_FALSE(result.incomplete);
  EXPECT_TRUE(result.complete_except_quarantined());
  EXPECT_EQ(result.shards_quarantined, 1U);
  EXPECT_EQ(result.shards_run, 7U);
  EXPECT_GE(result.workers_died, 2U);  // one death per attempt

  // The durable quarantine record carries the exact failure history.
  const campaign::StoreScan scan = campaign::scan_store(dir);
  std::size_t quarantine_records = 0;
  for (const campaign::SegmentScan& segment : scan.segments) {
    for (const campaign::Record& record : segment.records) {
      if (record.type != campaign::RecordType::kQuarantine) continue;
      ++quarantine_records;
      const campaign::QuarantineRecord q =
          campaign::decode_quarantine(record.payload);
      EXPECT_EQ(q.shard, 3U);
      EXPECT_EQ(q.attempts, spec.retry_budget);
      EXPECT_EQ(q.reason, campaign::QuarantineRecord::Reason::kCrash);
    }
  }
  EXPECT_EQ(quarantine_records, 1U);

  // Resume (same poison chaos still armed): the quarantined shard is
  // never dispatched, so nothing crashes and nothing re-runs.
  const auto resumed = campaign::run_campaign(dir, options);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_TRUE(resumed.complete_except_quarantined());
  EXPECT_EQ(resumed.shards_already_quarantined, 1U);
  EXPECT_EQ(resumed.shards_already_complete, 7U);
  EXPECT_EQ(resumed.shards_run, 0U);
  EXPECT_EQ(resumed.workers_died, 0U);

  const campaign::VerifyReport verify = campaign::verify_store(dir);
  EXPECT_TRUE(verify.ok) << verify.render();
  EXPECT_EQ(verify.shards_quarantined, 1U);
}

TEST_F(CampaignOrchestratorTest, PoisonHangAndCrashQuarantinedTogether) {
  // The acceptance scenario: one always-hanging and one always-crashing
  // shard in the same campaign.  All 6 healthy shards must complete,
  // exactly those two must be quarantined after their budgets, and a
  // SIGKILL mid-run followed by a resume must converge to byte-identical
  // report/CSV and the identical quarantine set.
  const campaign::CampaignSpec spec = watchdog_spec();
  campaign::RunCampaignOptions options;
  options.workers = 2;
  options.worker_chaos = "shard=2:hang,shard=5:crash";
  options.backoff_base_ms = 10;

  const fs::path straight = make_campaign_with("straight", spec);
  const auto result = campaign::run_campaign(straight, options);
  EXPECT_FALSE(result.incomplete);
  EXPECT_TRUE(result.complete_except_quarantined());
  EXPECT_EQ(result.shards_run, 6U);
  EXPECT_EQ(result.shards_quarantined, 2U);
  EXPECT_GE(result.workers_hung, 2U);  // two attempts on the hang shard
  const campaign::CampaignAggregates straight_agg = aggregates_of(straight);
  EXPECT_EQ(straight_agg.quarantined_shards,
            (std::vector<std::size_t>{2, 5}));
  const campaign::VerifyReport verify = campaign::verify_store(straight);
  EXPECT_TRUE(verify.ok) << verify.render();
  EXPECT_EQ(verify.shards_quarantined, 2U);

  // Same campaign, but the whole orchestrator is SIGKILLed after 3
  // healthy completions, then resumed by a fresh process (poison still
  // armed — it is a property of the input, not of one run).
  const fs::path killed = make_campaign_with("killed", spec);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    campaign::RunCampaignOptions chaos = options;
    chaos.die_after_shards = 3;
    try {
      (void)campaign::run_campaign(killed, chaos);
    } catch (...) {
    }
    _exit(99);  // only reachable if the kill failed
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const auto resumed = campaign::run_campaign(killed, options);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_TRUE(resumed.complete_except_quarantined());
  expect_identical_quarantined_outputs(straight, killed);
}

TEST_F(CampaignOrchestratorTest, QuarantineMatchesRunThatNeverSawPoison) {
  // The determinism contract: aggregates and report must be pure
  // functions of (present results, quarantined indices).  A store whose
  // shard 5 was quarantined up front by hand — the run never even
  // attempted it — must render byte-identically to one whose shard 5
  // fought through 2 crashes and was quarantined organically.
  const campaign::CampaignSpec spec = watchdog_spec();
  const fs::path manual = make_campaign_with("manual", spec);
  {
    campaign::SegmentWriter writer(manual, {1, 999});
    campaign::QuarantineRecord q;
    q.shard = 5;
    q.attempts = 0;
    q.reason = campaign::QuarantineRecord::Reason::kManual;
    writer.append(campaign::RecordType::kQuarantine,
                  campaign::encode_quarantine(q));
  }
  campaign::RunCampaignOptions in_process;
  in_process.workers = 0;
  const auto manual_result = campaign::run_campaign(manual, in_process);
  EXPECT_FALSE(manual_result.incomplete);
  EXPECT_EQ(manual_result.shards_already_quarantined, 1U);
  EXPECT_EQ(manual_result.shards_run, 7U);
  EXPECT_TRUE(manual_result.complete_except_quarantined());

  const fs::path organic = make_campaign_with("organic", spec);
  campaign::RunCampaignOptions options;
  options.workers = 2;
  options.worker_chaos = "shard=5:crash";
  options.backoff_base_ms = 10;
  const auto organic_result = campaign::run_campaign(organic, options);
  EXPECT_TRUE(organic_result.complete_except_quarantined());

  expect_identical_quarantined_outputs(manual, organic);
}

TEST_F(CampaignOrchestratorTest, QuarantineRecordSurvivesTornTail) {
  // A quarantine record followed by a torn record (the orchestrator
  // SIGKILLed mid-append): the durable record must survive the valid-
  // prefix scan, the torn one must vanish, and a resume must skip only
  // the surviving quarantine.
  const campaign::CampaignSpec spec = watchdog_spec();
  const fs::path dir = make_campaign_with("torn_quarantine", spec);
  {
    campaign::SegmentWriter writer(dir, {1, 0});
    campaign::QuarantineRecord durable;
    durable.shard = 0;
    durable.attempts = 2;
    durable.reason = campaign::QuarantineRecord::Reason::kHang;
    writer.append(campaign::RecordType::kQuarantine,
                  campaign::encode_quarantine(durable));
    campaign::QuarantineRecord torn;
    torn.shard = 1;
    torn.attempts = 2;
    torn.reason = campaign::QuarantineRecord::Reason::kCrash;
    writer.append_torn(campaign::RecordType::kQuarantine,
                       campaign::encode_quarantine(torn), 19);
  }
  const campaign::StoreScan scan = campaign::scan_store(dir);
  ASSERT_EQ(scan.total_records(), 1U);
  EXPECT_TRUE(scan.any_tail_error());
  const campaign::CollectedResults collected = campaign::collect_results(dir);
  ASSERT_EQ(collected.quarantined.size(), 1U);
  EXPECT_EQ(collected.quarantined.count(0), 1U);

  // Resume: shard 0 stays quarantined, shard 1 (its marker torn away)
  // simply re-runs like any other missing shard.
  campaign::RunCampaignOptions in_process;
  in_process.workers = 0;
  const auto resumed = campaign::run_campaign(dir, in_process);
  EXPECT_FALSE(resumed.incomplete);
  EXPECT_EQ(resumed.shards_already_quarantined, 1U);
  EXPECT_EQ(resumed.shards_run, 7U);
  const campaign::VerifyReport verify = campaign::verify_store(dir);
  EXPECT_TRUE(verify.ok) << verify.render();  // torn tail is a warning
  EXPECT_EQ(verify.shards_quarantined, 1U);
  EXPECT_FALSE(verify.warnings.empty());
}

TEST_F(CampaignOrchestratorTest, SigtermShutdownCheckpointsAndResumes) {
  // Operator shutdown: SIGTERM a running multi-worker campaign.  The
  // orchestrator must stop dispatching, drain in-flight shards, and exit
  // by the normal return path; the store must verify error-free with the
  // workers' final checkpoints present, and a resume must reproduce the
  // uninterrupted aggregates bit-identically.
  const fs::path reference = run_reference();
  const fs::path dir = make_campaign("sigterm");
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    campaign::RunCampaignOptions options;
    options.workers = 2;
    options.checkpoint_every = 3;
    try {
      const auto result = campaign::run_campaign(dir, options);
      _exit(result.incomplete ? 3 : 0);
    } catch (...) {
      _exit(77);
    }
  }
  // Let the campaign make some progress before pulling the plug; if it
  // finishes first, the exit-0 branch below still holds.
  bool saw_progress = false;
  for (int i = 0; i < 500 && !saw_progress; ++i) {
    try {
      saw_progress = campaign::scan_store(dir).total_records() >= 1;
    } catch (...) {
    }
    if (!saw_progress) usleep(10 * 1000);
  }
  EXPECT_TRUE(saw_progress);
  ASSERT_EQ(kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "SIGTERM must be a clean exit, got "
                                 << status;
  const int code = WEXITSTATUS(status);
  EXPECT_TRUE(code == 0 || code == 3) << "exit " << code;

  const campaign::VerifyReport before = campaign::verify_store(dir);
  EXPECT_TRUE(before.errors.empty()) << before.render();
  if (before.shard_records >= 1) {
    // Every worker that executed a shard flushed a cadence or final
    // checkpoint before exiting.
    EXPECT_GE(before.checkpoints, 1U) << before.render();
  }

  campaign::RunCampaignOptions resume;
  resume.workers = 2;
  const auto resumed = campaign::run_campaign(dir, resume);
  EXPECT_FALSE(resumed.incomplete);
  expect_identical_aggregates(reference, dir);
  EXPECT_TRUE(campaign::verify_store(dir).ok);
}

}  // namespace

// Custom main: the worker hook must run before gtest — orchestrator tests
// re-exec this binary as their worker processes.
int main(int argc, char** argv) {
  if (const int rc = bansim::campaign::maybe_worker_main(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
