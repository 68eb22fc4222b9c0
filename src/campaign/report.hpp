// Campaign store readers: aggregation, reporting, and verification.
//
// Everything here is a pure function of the store's bytes, and the
// aggregate is deliberately independent of *how* those bytes got there:
// shard results are keyed by global shard index, duplicates resolve
// last-writer-wins by (generation, worker, record order), and merging
// happens in shard-index order.  A campaign run uninterrupted by one
// worker, run by eight, or SIGKILLed and resumed three times therefore
// aggregates to bit-identical rows and CDFs — the invariant the
// crash-recovery battery pins exact-double.
//
// render_report() emits no wall-clock, path, or segment-count data, so
// two stores with equal aggregates render byte-identical reports (the CI
// kill-and-resume smoke literally diffs them).  Provenance detail lives
// in verify_store()'s output instead.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/store.hpp"
#include "energy/campaign_columns.hpp"

namespace bansim::campaign {

/// Decoded shard results, deduplicated last-writer-wins.
struct CollectedResults {
  /// Global shard index -> newest decodable result for it.
  std::map<std::size_t, ShardResult> by_shard;
  /// Global shard index -> newest quarantine record, for shards with NO
  /// result — a result for the same shard always wins (data beats a
  /// historical failure marker, e.g. a raised retry budget on resume).
  std::map<std::size_t, QuarantineRecord> quarantined;
  /// Records whose payload failed to decode despite a valid CRC (writer
  /// bugs; empty in healthy stores).
  std::vector<std::string> decode_errors;
  /// kShardResult records beyond the first per shard (resume overlap).
  std::size_t duplicates{0};
};

/// Scans segments/ and decodes every shard record.  Segments are visited
/// in (generation, worker) order, so a later write for the same shard
/// replaces an earlier one.
[[nodiscard]] CollectedResults collect_results(const std::filesystem::path& dir);

/// One variant's population aggregate, rows in patient-index order.
struct VariantAggregate {
  VariantSpec variant;
  std::vector<energy::CampaignRunRow> rows;
};

struct CampaignAggregates {
  CampaignSpec spec;
  std::vector<VariantAggregate> variants;
  /// Population lifetime CDF across every variant's rows.
  energy::MetricCdf lifetime_cdf;
  std::size_t shards_present{0};
  std::size_t shards_total{0};
  /// Planned shards accounted for only by a quarantine record, ascending.
  /// The report renders these as explicit gaps — index, variant label,
  /// patient range — but never attempts/reason, so the rendered report
  /// stays a pure function of WHICH shards are missing, not of the
  /// failure history that made them missing.
  std::vector<std::size_t> quarantined_shards;
  [[nodiscard]] bool complete() const {
    return shards_present == shards_total;
  }
  /// Every gap is a quarantined shard — the terminal "ran out of retry
  /// budget" state, as opposed to an interrupted run a resume can finish.
  [[nodiscard]] bool complete_except_quarantined() const {
    return !quarantined_shards.empty() &&
           shards_present + quarantined_shards.size() == shards_total;
  }
};

/// Gathers collected shard results into per-variant rows + the global
/// lifetime CDF, in shard-index order regardless of store layout.
[[nodiscard]] CampaignAggregates aggregate(const LoadedCampaign& campaign,
                                           const CollectedResults& results);

/// Human-readable summary: per-variant energy means, join-latency and PDR
/// percentiles, global lifetime CDF percentiles.  Deterministic: depends
/// only on the aggregates.
[[nodiscard]] std::string render_report(const CampaignAggregates& aggregates);

/// Per-patient CSV (header + one row per variant x patient), doubles at
/// full round-trip precision.
[[nodiscard]] std::string render_csv(const CampaignAggregates& aggregates);

/// Store health check: segment CRC walk, manifest consistency, checkpoint
/// cross-check.
struct VerifyReport {
  /// True when the manifest loads, every planned shard has a decodable
  /// result or a quarantine record, and checkpoints agree with their
  /// segments.  Torn tails in old generations are expected crash debris
  /// and stay warnings.  Note `ok` with shards_quarantined > 0 is the
  /// "complete except quarantined" state (CLI exit 5, not 0).
  bool ok{false};
  std::size_t segments{0};
  std::size_t records{0};
  std::size_t shard_records{0};
  std::size_t checkpoints{0};
  std::size_t quarantine_records{0};
  std::size_t duplicates{0};
  std::size_t shards_present{0};
  /// Planned shards accounted for only by a quarantine record.
  std::size_t shards_quarantined{0};
  std::size_t shards_total{0};
  std::vector<std::string> errors;    ///< clear `ok`
  std::vector<std::string> warnings;  ///< informational (torn tails)
  /// One line per quarantined shard with the failure history (attempts,
  /// reason) — provenance lives here, not in the report, so reports stay
  /// byte-comparable across different failure histories.
  std::vector<std::string> quarantined;

  [[nodiscard]] std::string render() const;
};

[[nodiscard]] VerifyReport verify_store(const std::filesystem::path& dir);

}  // namespace bansim::campaign
