// Shard execution and the shard-result wire/disk codec.
//
// A shard is `count` consecutive patients of one variant.  ShardRunner
// executes shards with per-variant warmed cells: the first patient of a
// variant builds a BanNetwork, every later patient (across all shards of
// that variant this process runs) resets it in place, and core::run
// measures it.  Because a reset run is bit-identical to a rebuilt one, a
// patient's row is a pure function of (generator, window, index), so a
// shard's rows are bit-identical whichever process runs it and however
// shards are interleaved — the property every resume/equality test pins.
//
// Row payloads are encoded bit-exactly: doubles travel as their IEEE-754
// u64 bit patterns (little-endian), never through text, so a decoded row
// compares exact-double equal to the row the worker measured.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "campaign/manifest.hpp"
#include "core/population.hpp"
#include "energy/campaign_columns.hpp"

namespace bansim::campaign {

/// One shard's complete output: the global shard index plus one row per
/// patient, in patient order.
struct ShardResult {
  std::uint64_t shard{0};
  std::vector<energy::CampaignRunRow> rows;

  [[nodiscard]] bool operator==(const ShardResult&) const = default;
};

/// kShardResult payload codec.  decode throws StoreError on a malformed
/// payload (only reachable if a CRC-valid record carries a bad length —
/// i.e. a writer bug, not disk corruption).
[[nodiscard]] std::vector<std::uint8_t> encode_shard_result(
    const ShardResult& result);
[[nodiscard]] ShardResult decode_shard_result(
    const std::vector<std::uint8_t>& payload);

/// kCheckpoint payload: a worker's progress watermark.  Checkpoints carry
/// no result data — they exist so `verify` can cross-check that a cleanly
/// finished segment saw as many shards as its writer recorded, and so a
/// torn tail can be localised ("died after checkpoint at N shards").
struct Checkpoint {
  std::uint64_t shards_completed{0};  ///< by this worker, this segment
  std::uint64_t last_shard{0};        ///< global index of the latest one

  [[nodiscard]] bool operator==(const Checkpoint&) const = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const Checkpoint& checkpoint);
[[nodiscard]] Checkpoint decode_checkpoint(
    const std::vector<std::uint8_t>& payload);

/// kQuarantine payload: a shard the orchestrator gave up on after its
/// retry budget.  Resume skips quarantined shards; report/verify surface
/// them as explicit gaps.  The shard index leads the payload (like a
/// shard record) so index-peeking code treats both types uniformly.
struct QuarantineRecord {
  std::uint64_t shard{0};
  /// Failed attempts consumed before quarantine (== the retry budget for
  /// organic quarantines; 0 for operator-seeded ones).
  std::uint32_t attempts{0};
  enum class Reason : std::uint16_t {
    kManual = 0,  ///< pre-seeded by an operator, not by a failure
    kHang = 1,    ///< watchdog SIGKILL after a missed deadline
    kCrash = 2,   ///< worker died by signal while the shard was in flight
    kExit = 3,    ///< worker exited nonzero while the shard was in flight
  };
  Reason reason{Reason::kManual};

  [[nodiscard]] bool operator==(const QuarantineRecord&) const = default;
};

[[nodiscard]] const char* to_string(QuarantineRecord::Reason reason);

[[nodiscard]] std::vector<std::uint8_t> encode_quarantine(
    const QuarantineRecord& record);
[[nodiscard]] QuarantineRecord decode_quarantine(
    const std::vector<std::uint8_t>& payload);

/// Executes shards against one campaign definition, reusing warmed cells
/// per variant.  Not thread-safe; one runner per worker (process or
/// in-process loop).
class ShardRunner {
 public:
  ShardRunner(CampaignSpec spec, core::BanConfig base);

  /// Runs every patient of the shard and returns their rows in patient
  /// order.
  [[nodiscard]] ShardResult run(const ShardSpec& shard);

  /// Called after each completed patient with the count of patients done
  /// in the current shard — the worker's heartbeat hook.  The callback
  /// must not observe or perturb simulation state (rows stay bit-exact).
  void set_progress(std::function<void(std::size_t)> callback) {
    progress_ = std::move(callback);
  }

 private:
  CampaignSpec spec_;
  core::BanConfig base_;
  std::vector<VariantSpec> variants_;
  core::MeasurementProtocol window_;
  /// Lazily built per variant index — a variant's generator and warmed
  /// cell come into being the first time a shard of that variant runs
  /// here.
  std::map<std::size_t, core::PopulationGenerator> generators_;
  std::map<std::size_t, std::unique_ptr<core::BanNetwork>> cells_;
  std::function<void(std::size_t)> progress_;
};

}  // namespace bansim::campaign
