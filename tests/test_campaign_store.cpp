// Campaign store edge cases: the malformed-file taxonomy (empty store,
// header-only segment, torn final record, mid-file corruption, version
// mismatch) and the duplicate-record resolution rule (last-writer-wins by
// generation and file order).  Everything here works on hand-built or
// hand-damaged segment files — no simulation runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace bansim;
using campaign::RecordType;

class CampaignStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A small synthetic shard result (no simulation involved).
  static campaign::ShardResult make_result(std::uint64_t shard,
                                           double salt = 0.0) {
    campaign::ShardResult result;
    result.shard = shard;
    for (std::uint64_t i = 0; i < 3; ++i) {
      energy::CampaignRunRow row;
      row.seed = shard * 100 + i;
      row.total_mj = 31.25 + static_cast<double>(i) + salt;
      row.radio_mj = 11.5 + salt;
      row.mcu_mj = 15.125;
      row.asic_mj = row.total_mj - row.radio_mj - row.mcu_mj;
      row.lifetime_hours =
          i == 2 ? std::numeric_limits<double>::infinity() : 48.5 + salt;
      row.join_ms = 101.5;
      row.data_packets = 400 + i;
      row.delivered_packets = 399;
      row.joined = true;
      result.rows.push_back(row);
    }
    return result;
  }

  fs::path dir_;
};

TEST_F(CampaignStoreTest, EmptyStoreScansEmpty) {
  // No segments/ directory at all: a created-but-never-run campaign.
  const campaign::StoreScan scan = campaign::scan_store(dir_);
  EXPECT_TRUE(scan.segments.empty());
  EXPECT_EQ(scan.total_records(), 0U);
  EXPECT_EQ(campaign::max_generation(dir_), 0U);

  // An existing but empty segments/ scans the same way.
  fs::create_directories(campaign::segments_dir(dir_));
  EXPECT_TRUE(campaign::scan_store(dir_).segments.empty());
  EXPECT_TRUE(campaign::collect_results(dir_).by_shard.empty());
}

TEST_F(CampaignStoreTest, HeaderOnlySegmentIsValidAndEmpty) {
  { campaign::SegmentWriter writer(dir_, {1, 0}); }  // header, no records
  const campaign::StoreScan scan = campaign::scan_store(dir_);
  ASSERT_EQ(scan.segments.size(), 1U);
  EXPECT_TRUE(scan.segments[0].tail_error.empty());
  EXPECT_TRUE(scan.segments[0].records.empty());
  EXPECT_EQ(scan.segments[0].id.generation, 1U);
  EXPECT_EQ(scan.segments[0].valid_bytes, scan.segments[0].file_bytes);
  EXPECT_EQ(campaign::max_generation(dir_), 1U);
}

TEST_F(CampaignStoreTest, RecordRoundTripIsBitExact) {
  const campaign::ShardResult original = make_result(7);
  {
    campaign::SegmentWriter writer(dir_, {1, 0});
    writer.append(RecordType::kShardResult,
                  campaign::encode_shard_result(original));
  }
  const campaign::StoreScan scan = campaign::scan_store(dir_);
  ASSERT_EQ(scan.total_records(), 1U);
  const campaign::ShardResult decoded =
      campaign::decode_shard_result(scan.segments[0].records[0].payload);
  EXPECT_TRUE(decoded == original);  // exact doubles, inf included
}

TEST_F(CampaignStoreTest, TornFinalRecordKeepsThePrefix) {
  {
    campaign::SegmentWriter writer(dir_, {1, 0});
    writer.append(RecordType::kShardResult,
                  campaign::encode_shard_result(make_result(0)));
    writer.append(RecordType::kShardResult,
                  campaign::encode_shard_result(make_result(1)));
    // The final record stops halfway through its payload, as a SIGKILL
    // mid-write leaves it.
    writer.append_torn(RecordType::kShardResult,
                       campaign::encode_shard_result(make_result(2)), 40);
  }
  const campaign::SegmentScan scan =
      campaign::scan_segment(campaign::segments_dir(dir_) / "gen1-w0.seg");
  ASSERT_EQ(scan.records.size(), 2U);
  EXPECT_FALSE(scan.tail_error.empty());
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);
  // The two complete records are untouched by the tear.
  EXPECT_EQ(campaign::decode_shard_result(scan.records[1].payload).shard, 1U);
}

TEST_F(CampaignStoreTest, MidFileCorruptionHidesEverythingAfter) {
  fs::path seg_path;
  {
    campaign::SegmentWriter writer(dir_, {1, 0});
    for (std::uint64_t s = 0; s < 4; ++s) {
      writer.append(RecordType::kShardResult,
                    campaign::encode_shard_result(make_result(s)));
    }
    seg_path = writer.path();
  }
  const campaign::SegmentScan before = campaign::scan_segment(seg_path);
  ASSERT_EQ(before.records.size(), 4U);

  // Flip one bit inside record 1's payload region.
  std::fstream file(seg_path,
                    std::ios::binary | std::ios::in | std::ios::out);
  const std::streamoff offset = 24 /* header */ +
                                static_cast<std::streamoff>(
                                    12 + before.records[0].payload.size()) +
                                20;  // a byte inside record 1
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(offset);
  file.write(&byte, 1);
  file.close();

  const campaign::SegmentScan after = campaign::scan_segment(seg_path);
  // Scan-prefix semantics: record 0 survives, records 1..3 are invisible.
  EXPECT_EQ(after.records.size(), 1U);
  EXPECT_NE(after.tail_error.find("CRC"), std::string::npos);
}

TEST_F(CampaignStoreTest, VersionMismatchIsAHardError) {
  // Hand-build a header identical to the real one except version 99 (with
  // a correct header CRC, so it is unambiguously a version problem).
  std::vector<std::uint8_t> header;
  for (char c : {'B', 'A', 'N', 'S', 'E', 'G', '0', '1'}) {
    header.push_back(static_cast<std::uint8_t>(c));
  }
  const auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(99);  // format version from the future
  put_u32(1);   // generation
  put_u32(0);   // worker
  put_u32(campaign::crc32(header.data(), header.size()));

  fs::create_directories(campaign::segments_dir(dir_));
  const fs::path seg_path = campaign::segments_dir(dir_) / "gen1-w0.seg";
  std::ofstream(seg_path, std::ios::binary)
      .write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));

  EXPECT_THROW((void)campaign::scan_segment(seg_path), campaign::StoreError);
  EXPECT_THROW((void)campaign::scan_store(dir_), campaign::StoreError);
}

TEST_F(CampaignStoreTest, CorruptedHeaderIsTornNotVersionError) {
  // Bad magic / short header must scan as a torn segment (zero records),
  // not a hard error: a worker killed mid-header-write leaves exactly this.
  fs::create_directories(campaign::segments_dir(dir_));
  const fs::path short_path = campaign::segments_dir(dir_) / "gen1-w0.seg";
  std::ofstream(short_path, std::ios::binary).write("BANSEG", 6);
  const campaign::SegmentScan short_scan = campaign::scan_segment(short_path);
  EXPECT_TRUE(short_scan.records.empty());
  EXPECT_NE(short_scan.tail_error.find("short header"), std::string::npos);

  const fs::path magic_path = campaign::segments_dir(dir_) / "gen1-w1.seg";
  std::ofstream(magic_path, std::ios::binary)
      .write("NOTASEGMENT_AT_ALL_HERE!", 24);
  const campaign::SegmentScan magic_scan = campaign::scan_segment(magic_path);
  EXPECT_TRUE(magic_scan.records.empty());
  EXPECT_NE(magic_scan.tail_error.find("bad magic"), std::string::npos);
}

TEST_F(CampaignStoreTest, DuplicateShardRecordsResolveLastWriterWins) {
  // Shard 3 written three times: twice in generation 1 (file order decides)
  // and once in generation 2 (generation order decides) — exactly what a
  // double-resume over a flaky store produces.
  {
    campaign::SegmentWriter gen1(dir_, {1, 0});
    gen1.append(RecordType::kShardResult,
                campaign::encode_shard_result(make_result(3, 0.125)));
    gen1.append(RecordType::kShardResult,
                campaign::encode_shard_result(make_result(3, 0.25)));
  }
  const campaign::CollectedResults within_file = campaign::collect_results(dir_);
  ASSERT_EQ(within_file.by_shard.size(), 1U);
  EXPECT_EQ(within_file.duplicates, 1U);
  EXPECT_EQ(within_file.by_shard.at(3).rows[0].total_mj, 31.25 + 0.25);

  {
    campaign::SegmentWriter gen2(dir_, {2, 0});
    gen2.append(RecordType::kShardResult,
                campaign::encode_shard_result(make_result(3, 0.5)));
  }
  const campaign::CollectedResults across_gens = campaign::collect_results(dir_);
  ASSERT_EQ(across_gens.by_shard.size(), 1U);
  EXPECT_EQ(across_gens.duplicates, 2U);
  EXPECT_EQ(across_gens.by_shard.at(3).rows[0].total_mj, 31.25 + 0.5);
  EXPECT_EQ(campaign::max_generation(dir_), 2U);
}

TEST_F(CampaignStoreTest, CheckpointRoundTripAndCrossCheck) {
  const campaign::Checkpoint checkpoint{5, 42};
  const campaign::Checkpoint back =
      campaign::decode_checkpoint(campaign::encode_checkpoint(checkpoint));
  EXPECT_TRUE(back == checkpoint);
  EXPECT_THROW((void)campaign::decode_checkpoint({1, 2, 3}),
               campaign::StoreError);
}

TEST_F(CampaignStoreTest, WriterRefusesToReuseASegmentFile) {
  { campaign::SegmentWriter writer(dir_, {1, 0}); }
  // Same (generation, worker) again: O_EXCL refuses — a second writer may
  // never append to (or truncate) a prior run's segment.
  EXPECT_THROW(campaign::SegmentWriter(dir_, {1, 0}), campaign::StoreError);
}

TEST_F(CampaignStoreTest, ManifestRoundTripAndTamperDetection) {
  campaign::CampaignSpec spec;
  spec.patients = 10;
  spec.shard_size = 4;
  spec.protocols = {mac::Protocol::kCsmaCa, mac::Protocol::kAloha};
  spec.seeds = {7, 11};
  spec.fault_modes = {false, true};
  spec.motion = true;
  spec.measure = sim::Duration::milliseconds(1500);
  core::BanConfig base;
  base.num_nodes = 3;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 3);

  const fs::path campaign_dir = dir_ / "campaign";
  campaign::write_campaign(campaign_dir, spec, base);
  const campaign::LoadedCampaign loaded = campaign::load_campaign(campaign_dir);
  EXPECT_EQ(loaded.spec.patients, 10U);
  EXPECT_EQ(loaded.spec.shard_size, 4U);
  ASSERT_EQ(loaded.spec.protocols.size(), 2U);
  EXPECT_EQ(loaded.spec.protocols[1], mac::Protocol::kAloha);
  EXPECT_EQ(loaded.spec.seeds, (std::vector<std::uint64_t>{7, 11}));
  EXPECT_EQ(loaded.spec.fault_modes, (std::vector<bool>{false, true}));
  EXPECT_TRUE(loaded.spec.motion);
  EXPECT_EQ(loaded.spec.measure, sim::Duration::milliseconds(1500));
  EXPECT_EQ(loaded.base.effective_nodes(), 3U);

  // The shard plan is a pure function of the loaded spec: 10 patients in
  // shards of 4 -> 3 shards per variant x 8 variants, variant-major.
  const auto shards = campaign::plan_shards(loaded.spec);
  ASSERT_EQ(shards.size(), 24U);
  EXPECT_EQ(shards[2].count, 2U);  // 4 + 4 + 2
  EXPECT_EQ(shards[23].variant, 7U);

  // Re-creating over an existing manifest is refused.
  EXPECT_THROW(campaign::write_campaign(campaign_dir, spec, base),
               campaign::StoreError);

  // Hand-editing base_config.ini breaks the manifest fingerprint.
  std::ofstream(campaign_dir / "base_config.ini", std::ios::app)
      << "\n# tampered\n";
  EXPECT_THROW((void)campaign::load_campaign(campaign_dir),
               campaign::StoreError);
}

TEST_F(CampaignStoreTest, QuarantineRecordRoundTripAndDecodeErrors) {
  campaign::QuarantineRecord record;
  record.shard = 42;
  record.attempts = 3;
  record.reason = campaign::QuarantineRecord::Reason::kHang;
  const std::vector<std::uint8_t> payload =
      campaign::encode_quarantine(record);
  EXPECT_EQ(payload.size(), 14U);  // u64 shard + u32 attempts + u16 reason
  EXPECT_TRUE(campaign::decode_quarantine(payload) == record);

  // Truncation and trailing garbage are hard decode errors.
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_THROW((void)campaign::decode_quarantine(truncated),
               campaign::StoreError);
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)campaign::decode_quarantine(padded),
               campaign::StoreError);

  // An unknown reason value (a record from a future writer) must refuse
  // to decode rather than alias onto a known reason.
  std::vector<std::uint8_t> future = payload;
  future[12] = 0x7F;
  EXPECT_THROW((void)campaign::decode_quarantine(future),
               campaign::StoreError);

  EXPECT_STREQ(campaign::to_string(campaign::QuarantineRecord::Reason::kHang),
               "hang");
  EXPECT_STREQ(campaign::to_string(campaign::QuarantineRecord::Reason::kCrash),
               "crash");
}

TEST_F(CampaignStoreTest, CollectResultsLetsShardDataBeatQuarantine) {
  // A quarantine marker and a real result for the same shard (a resume
  // with a raised retry budget finally landed the data): the result wins.
  // A quarantine with no result stays a quarantine.
  {
    campaign::SegmentWriter writer(dir_, {1, 0});
    campaign::QuarantineRecord q3;
    q3.shard = 3;
    q3.attempts = 2;
    q3.reason = campaign::QuarantineRecord::Reason::kCrash;
    writer.append(RecordType::kQuarantine, campaign::encode_quarantine(q3));
    campaign::QuarantineRecord q5 = q3;
    q5.shard = 5;
    writer.append(RecordType::kQuarantine, campaign::encode_quarantine(q5));
  }
  {
    campaign::SegmentWriter writer(dir_, {2, 0});
    writer.append(RecordType::kShardResult,
                  campaign::encode_shard_result(make_result(3)));
  }
  const campaign::CollectedResults collected = campaign::collect_results(dir_);
  EXPECT_EQ(collected.by_shard.count(3), 1U);
  EXPECT_EQ(collected.quarantined.count(3), 0U);
  ASSERT_EQ(collected.quarantined.size(), 1U);
  EXPECT_EQ(collected.quarantined.at(5).attempts, 2U);
}

TEST_F(CampaignStoreTest, ManifestWorkerHealthKnobsRoundTrip) {
  campaign::CampaignSpec spec;
  spec.patients = 4;
  spec.shard_size = 2;
  spec.retry_budget = 5;
  spec.deadline_floor_ms = 750;
  spec.deadline_ceiling_ms = 90000;
  spec.deadline_factor = 2.5;
  core::BanConfig base;
  base.num_nodes = 2;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 2);
  const fs::path campaign_dir = dir_ / "campaign";
  campaign::write_campaign(campaign_dir, spec, base);
  const campaign::LoadedCampaign loaded = campaign::load_campaign(campaign_dir);
  EXPECT_EQ(loaded.spec.retry_budget, 5U);
  EXPECT_EQ(loaded.spec.deadline_floor_ms, 750U);
  EXPECT_EQ(loaded.spec.deadline_ceiling_ms, 90000U);
  EXPECT_EQ(loaded.spec.deadline_factor, 2.5);  // exact round-trip

  // A pre-watchdog manifest (no worker-health keys at all) loads with the
  // library defaults — old stores stay readable.
  std::ifstream in(campaign_dir / "manifest.ini");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::istringstream lines(text);
  std::string line;
  std::string stripped;
  while (std::getline(lines, line)) {
    if (line.rfind("retry_budget", 0) == 0 ||
        line.rfind("deadline_", 0) == 0) {
      continue;
    }
    stripped += line + "\n";
  }
  std::ofstream(campaign_dir / "manifest.ini", std::ios::trunc) << stripped;
  const campaign::LoadedCampaign legacy = campaign::load_campaign(campaign_dir);
  EXPECT_EQ(legacy.spec.retry_budget, campaign::CampaignSpec{}.retry_budget);
  EXPECT_EQ(legacy.spec.deadline_floor_ms,
            campaign::CampaignSpec{}.deadline_floor_ms);
  EXPECT_EQ(legacy.spec.deadline_ceiling_ms,
            campaign::CampaignSpec{}.deadline_ceiling_ms);
  EXPECT_EQ(legacy.spec.deadline_factor,
            campaign::CampaignSpec{}.deadline_factor);
}

TEST_F(CampaignStoreTest, ManifestRejectsBadWorkerHealthKnobs) {
  core::BanConfig base;
  base.num_nodes = 2;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 2);

  campaign::CampaignSpec spec;
  spec.retry_budget = 0;
  EXPECT_THROW(campaign::write_campaign(dir_ / "a", spec, base),
               campaign::StoreError);
  spec = {};
  spec.deadline_ceiling_ms = spec.deadline_floor_ms - 1;
  EXPECT_THROW(campaign::write_campaign(dir_ / "b", spec, base),
               campaign::StoreError);
  spec = {};
  spec.deadline_factor = 0.5;
  EXPECT_THROW(campaign::write_campaign(dir_ / "c", spec, base),
               campaign::StoreError);
}

TEST_F(CampaignStoreTest, ManifestRejectsAZeroJoinDeadline) {
  // core::run reads a zero deadline as "no join phase", which would make
  // every patient's join latency meaningless.
  core::BanConfig base;
  base.num_nodes = 2;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 2);
  campaign::CampaignSpec spec;
  spec.join_deadline = sim::Duration::zero();
  EXPECT_THROW(campaign::write_campaign(dir_ / "a", spec, base),
               campaign::StoreError);
}

TEST_F(CampaignStoreTest, ManifestRejectsUnknownKeysAndBadVersions) {
  campaign::CampaignSpec spec;
  spec.patients = 4;
  spec.shard_size = 2;
  core::BanConfig base;
  base.num_nodes = 2;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 2);
  const fs::path campaign_dir = dir_ / "campaign";
  campaign::write_campaign(campaign_dir, spec, base);

  // Unknown key: hard error (typos must not silently become defaults).
  {
    std::ofstream(campaign_dir / "manifest.ini", std::ios::app)
        << "shardsize = 9\n";
    EXPECT_THROW((void)campaign::load_campaign(campaign_dir),
                 campaign::StoreError);
  }

  // Version from the future: hard error before anything else is parsed.
  fs::remove_all(campaign_dir);
  campaign::write_campaign(campaign_dir, spec, base);
  {
    std::ifstream in(campaign_dir / "manifest.ini");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const auto pos = text.find("format = 1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 10, "format = 9");
    std::ofstream(campaign_dir / "manifest.ini", std::ios::trunc) << text;
    EXPECT_THROW((void)campaign::load_campaign(campaign_dir),
                 campaign::StoreError);
  }

  // Numbers outside their field: one line naming the key.  These used to
  // wrap (-1 became 2^64 - 1 patients, which plan_shards tried to
  // allocate), truncate (2^32 read as a zero floor) or overflow a Duration.
  const struct {
    const char* key;
    const char* value;
    const char* error;
  } rejected[] = {
      {"patients", "-1", "manifest: bad integer value for patients: -1"},
      {"shard_size", "-1", "manifest: bad integer value for shard_size: -1"},
      {"cdf_bins", "-1", "manifest: bad integer value for cdf_bins: -1"},
      {"retry_budget", "-3",
       "manifest: bad integer value for retry_budget: -3"},
      {"deadline_floor_ms", "4294967296",
       "manifest: bad integer value for deadline_floor_ms: 4294967296"},
      {"measure_ms", "1e300",
       "manifest: bad duration for measure_ms: 1e300 (not finite, or beyond "
       "2^63 ns)"},
  };
  for (const auto& r : rejected) {
    fs::remove_all(campaign_dir);
    campaign::write_campaign(campaign_dir, spec, base);
    std::ifstream in(campaign_dir / "manifest.ini");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string line = "\n" + std::string(r.key) + " = ";
    const auto pos = text.find(line);
    ASSERT_NE(pos, std::string::npos) << r.key;
    const auto end = text.find('\n', pos + 1);
    text.replace(pos, end - pos, line + r.value);
    std::ofstream(campaign_dir / "manifest.ini", std::ios::trunc) << text;
    try {
      (void)campaign::load_campaign(campaign_dir);
      ADD_FAILURE() << r.key << " = " << r.value << " was accepted";
    } catch (const campaign::StoreError& e) {
      EXPECT_STREQ(e.what(), r.error);
    }
  }
}

}  // namespace
