#include "campaign/report.hpp"

#include <cmath>
#include <limits>
#include <sstream>

namespace bansim::campaign {
namespace {

/// Fixed-point formatting for the report (3 decimals) — enough to read,
/// stable across platforms for the same double.
[[nodiscard]] std::string fixed3(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << v;
  return out.str();
}

/// Round-trip-exact double formatting for the CSV.
[[nodiscard]] std::string exact(double v) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

}  // namespace

CollectedResults collect_results(const std::filesystem::path& dir) {
  CollectedResults collected;
  const StoreScan scan = scan_store(dir);
  for (const SegmentScan& segment : scan.segments) {
    for (const Record& record : segment.records) {
      if (record.type == RecordType::kShardResult) {
        try {
          ShardResult result = decode_shard_result(record.payload);
          const auto index = static_cast<std::size_t>(result.shard);
          if (collected.by_shard.count(index) != 0) ++collected.duplicates;
          collected.by_shard[index] = std::move(result);
        } catch (const StoreError& e) {
          collected.decode_errors.push_back(segment.path.filename().string() +
                                            ": " + e.what());
        }
      } else if (record.type == RecordType::kQuarantine) {
        try {
          const QuarantineRecord q = decode_quarantine(record.payload);
          collected.quarantined[static_cast<std::size_t>(q.shard)] = q;
        } catch (const StoreError& e) {
          collected.decode_errors.push_back(segment.path.filename().string() +
                                            ": " + e.what());
        }
      }
    }
  }
  // A result for a quarantined shard wins — e.g. a resume with a raised
  // retry budget that finally landed the data.
  for (const auto& entry : collected.by_shard) {
    collected.quarantined.erase(entry.first);
  }
  return collected;
}

CampaignAggregates aggregate(const LoadedCampaign& campaign,
                             const CollectedResults& results) {
  CampaignAggregates aggregates;
  aggregates.spec = campaign.spec;
  const std::vector<VariantSpec> variant_list = variants(campaign.spec);
  const std::vector<ShardSpec> shards = plan_shards(campaign.spec);
  aggregates.shards_total = shards.size();
  for (const auto& entry : results.quarantined) {
    if (entry.first < aggregates.shards_total) {
      aggregates.quarantined_shards.push_back(entry.first);
    }
  }
  aggregates.variants.resize(variant_list.size());
  for (std::size_t v = 0; v < variant_list.size(); ++v) {
    aggregates.variants[v].variant = variant_list[v];
    aggregates.variants[v].rows.reserve(campaign.spec.patients);
  }

  // Shard-index order: rows into their variant (shards of one variant are
  // contiguous and ascending, so rows end up in patient order), and every
  // lifetime into the population column.
  std::vector<double> lifetimes;
  for (const ShardSpec& shard : shards) {
    const auto it = results.by_shard.find(shard.index);
    if (it == results.by_shard.end()) continue;
    ++aggregates.shards_present;
    VariantAggregate& va = aggregates.variants[shard.variant];
    for (const energy::CampaignRunRow& row : it->second.rows) {
      va.rows.push_back(row);
      lifetimes.push_back(row.lifetime_hours);
    }
  }
  aggregates.lifetime_cdf =
      energy::MetricCdf::build(lifetimes, campaign.spec.cdf_bins);
  return aggregates;
}

std::string render_report(const CampaignAggregates& aggregates) {
  std::ostringstream out;
  out << "campaign: " << aggregates.spec.patients << " patients x "
      << aggregates.variants.size() << " variants, "
      << aggregates.shards_present << "/" << aggregates.shards_total
      << " shards"
      << (aggregates.complete()
              ? ""
              : (aggregates.complete_except_quarantined()
                     ? " [COMPLETE EXCEPT QUARANTINED]"
                     : " [INCOMPLETE]"))
      << "\n";
  std::vector<double> scratch;
  for (const VariantAggregate& va : aggregates.variants) {
    out << "  " << va.variant.label() << ": runs=" << va.rows.size();
    if (va.rows.empty()) {
      out << " (no data)\n";
      continue;
    }
    std::vector<double> total_mj, join_ms, pdr;
    std::size_t failed_joins = 0;
    for (const energy::CampaignRunRow& row : va.rows) {
      total_mj.push_back(row.total_mj);
      join_ms.push_back(row.join_ms);
      pdr.push_back(row.pdr());
      if (!row.joined) ++failed_joins;
    }
    out << " total_mj[mean=" << fixed3(energy::column_mean(total_mj))
        << " p95=" << fixed3(energy::column_percentile(total_mj, 0.95, scratch))
        << "]";
    out << " join_ms[p50="
        << fixed3(energy::column_percentile(join_ms, 0.50, scratch))
        << " p95=" << fixed3(energy::column_percentile(join_ms, 0.95, scratch))
        << "]";
    out << " pdr[p5=" << fixed3(energy::column_percentile(pdr, 0.05, scratch))
        << " p50=" << fixed3(energy::column_percentile(pdr, 0.50, scratch))
        << "]";
    out << " failed_joins=" << failed_joins << "\n";
  }
  const energy::MetricCdf& cdf = aggregates.lifetime_cdf;
  out << "  lifetime_hours: n=" << cdf.count << "+" << cdf.unbounded
      << "inf p5=" << fixed3(cdf.percentile(0.05))
      << " p50=" << fixed3(cdf.percentile(0.50))
      << " p95=" << fixed3(cdf.percentile(0.95)) << "\n";
  if (!aggregates.quarantined_shards.empty()) {
    // Explicit gap accounting: what the aggregate is missing, named by
    // manifest geometry only (never attempts/reason), so the report for
    // "quarantined organically after N failures" and "quarantined
    // manually before the run" is byte-identical.
    const std::vector<ShardSpec> shards = plan_shards(aggregates.spec);
    for (const std::size_t index : aggregates.quarantined_shards) {
      const ShardSpec& shard = shards[index];
      out << "  quarantined: shard " << index << " = "
          << aggregates.variants[shard.variant].variant.label() << " patients "
          << shard.first << ".." << shard.first + shard.count - 1 << "\n";
    }
  }
  return out.str();
}

std::string render_csv(const CampaignAggregates& aggregates) {
  std::ostringstream out;
  out << "variant,patient,seed,total_mj,radio_mj,mcu_mj,asic_mj,"
         "lifetime_hours,join_ms,data_packets,delivered_packets,pdr,joined\n";
  for (const VariantAggregate& va : aggregates.variants) {
    for (std::size_t i = 0; i < va.rows.size(); ++i) {
      const energy::CampaignRunRow& row = va.rows[i];
      out << va.variant.label() << "," << i << "," << row.seed << ","
          << exact(row.total_mj) << "," << exact(row.radio_mj) << ","
          << exact(row.mcu_mj) << "," << exact(row.asic_mj) << ","
          << exact(row.lifetime_hours) << "," << exact(row.join_ms) << ","
          << row.data_packets << "," << row.delivered_packets << ","
          << exact(row.pdr()) << "," << (row.joined ? 1 : 0) << "\n";
    }
  }
  return out.str();
}

VerifyReport verify_store(const std::filesystem::path& dir) {
  VerifyReport report;
  LoadedCampaign campaign;
  try {
    campaign = load_campaign(dir);
  } catch (const StoreError& e) {
    report.errors.push_back(std::string("manifest: ") + e.what());
    return report;
  }
  report.shards_total = plan_shards(campaign.spec).size();

  const StoreScan scan = scan_store(dir);
  report.segments = scan.segments.size();
  std::map<std::size_t, std::size_t> seen;  // shard -> record count
  std::map<std::size_t, QuarantineRecord> qseen;
  for (const SegmentScan& segment : scan.segments) {
    report.records += segment.records.size();
    std::size_t shard_records_here = 0;
    for (const Record& record : segment.records) {
      if (record.type == RecordType::kShardResult) {
        ++report.shard_records;
        ++shard_records_here;
        try {
          const ShardResult result = decode_shard_result(record.payload);
          ++seen[static_cast<std::size_t>(result.shard)];
        } catch (const StoreError& e) {
          report.errors.push_back(segment.path.filename().string() + ": " +
                                  e.what());
        }
      } else if (record.type == RecordType::kCheckpoint) {
        ++report.checkpoints;
        try {
          const Checkpoint checkpoint = decode_checkpoint(record.payload);
          if (checkpoint.shards_completed != shard_records_here) {
            std::ostringstream msg;
            msg << segment.path.filename().string() << ": checkpoint claims "
                << checkpoint.shards_completed << " shards, segment holds "
                << shard_records_here << " at that point";
            report.errors.push_back(msg.str());
          }
        } catch (const StoreError& e) {
          report.errors.push_back(segment.path.filename().string() + ": " +
                                  e.what());
        }
      } else if (record.type == RecordType::kQuarantine) {
        ++report.quarantine_records;
        try {
          const QuarantineRecord q = decode_quarantine(record.payload);
          qseen[static_cast<std::size_t>(q.shard)] = q;
        } catch (const StoreError& e) {
          report.errors.push_back(segment.path.filename().string() + ": " +
                                  e.what());
        }
      } else {
        report.errors.push_back(
            segment.path.filename().string() + ": unknown record type " +
            std::to_string(static_cast<unsigned>(record.type)));
      }
    }
    if (!segment.tail_error.empty()) {
      report.warnings.push_back(segment.path.filename().string() + ": " +
                                segment.tail_error);
    }
  }
  for (const auto& [shard, count] : seen) {
    if (shard >= report.shards_total) {
      report.errors.push_back("shard " + std::to_string(shard) +
                              " out of range for the manifest's plan");
      continue;
    }
    ++report.shards_present;
    if (count > 1) report.duplicates += count - 1;
  }
  for (const auto& [shard, record] : qseen) {
    if (shard >= report.shards_total) {
      report.errors.push_back("quarantined shard " + std::to_string(shard) +
                              " out of range for the manifest's plan");
      continue;
    }
    // A later result for the shard supersedes the marker — only
    // result-less quarantines count as accounted-for gaps.
    if (seen.count(shard) != 0) continue;
    ++report.shards_quarantined;
    std::ostringstream line;
    line << "shard " << shard << " quarantined after " << record.attempts
         << " attempt(s) (" << to_string(record.reason) << ")";
    report.quarantined.push_back(line.str());
  }
  const std::size_t accounted =
      report.shards_present + report.shards_quarantined;
  if (accounted < report.shards_total) {
    report.warnings.push_back(std::to_string(report.shards_total - accounted) +
                              " shard(s) incomplete (resume will re-run them)");
  }
  report.ok = report.errors.empty() && accounted == report.shards_total;
  return report;
}

std::string VerifyReport::render() const {
  std::ostringstream out;
  out << "store: " << segments << " segment(s), " << records << " record(s) ("
      << shard_records << " shard, " << checkpoints << " checkpoint, "
      << quarantine_records << " quarantine), " << shards_present << "/"
      << shards_total << " shards present, " << shards_quarantined
      << " quarantined, " << duplicates << " duplicate(s)\n";
  for (const std::string& q : quarantined) out << "quarantined: " << q << "\n";
  for (const std::string& w : warnings) out << "warning: " << w << "\n";
  for (const std::string& e : errors) out << "error: " << e << "\n";
  out << (ok ? "OK" : "NOT OK") << "\n";
  return out.str();
}

}  // namespace bansim::campaign
