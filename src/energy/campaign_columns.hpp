// Campaign metrics: one patient's scalar row, and the reductions a
// campaign report runs over a column of them (mean, nearest-rank
// percentiles, the fixed-bin lifetime CDF).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace bansim::energy {

/// One run's scalar metrics.  This is the unit the campaign store
/// serializes, so keep it plain scalars (bit-exact round-trip through the
/// on-disk record framing).
struct CampaignRunRow {
  std::uint64_t seed{0};
  double total_mj{0};
  double radio_mj{0};
  double mcu_mj{0};
  double asic_mj{0};
  /// Projected hours until the ward's first store depletes (+inf when
  /// harvest covers the load; see MetricCdf's unbounded tail).
  double lifetime_hours{std::numeric_limits<double>::infinity()};
  /// Time until the whole cell had joined and settled (the campaign's
  /// join-latency metric); 0 when the run never joined.
  double join_ms{0};
  std::uint64_t data_packets{0};
  /// Payloads counted at the base station over the measured window; with
  /// data_packets this gives the run's delivery ratio.
  std::uint64_t delivered_packets{0};
  bool joined{false};

  /// Delivered / sent over the measured window (1 when nothing was sent —
  /// an idle cell dropped nothing).
  [[nodiscard]] double pdr() const {
    return data_packets == 0 ? 1.0
                             : static_cast<double>(delivered_packets) /
                                   static_cast<double>(data_packets);
  }

  [[nodiscard]] bool operator==(const CampaignRunRow&) const = default;
};

/// Mean of a column (0 for an empty one); non-finite entries are skipped.
[[nodiscard]] double column_mean(std::span<const double> column);

/// Exact nearest-rank percentile of a column, q in [0, 1].  `scratch` is
/// the caller's sort buffer, reused across calls so a summary that asks
/// for p5/p50/p95 allocates at most once.
[[nodiscard]] double column_percentile(std::span<const double> column,
                                       double q, std::vector<double>& scratch);

/// Fixed-bin cumulative distribution built in one streaming pass over a
/// column — the campaign's CDF artifact without storing a sorted copy.
/// Non-finite entries (a node that never depletes projects +inf hours)
/// count into `unbounded`, so cum_fraction asymptotes below 1 when part of
/// the population outlives any horizon.
struct MetricCdf {
  double lo{0};
  double hi{0};
  std::uint64_t count{0};      ///< finite entries binned below
  std::uint64_t unbounded{0};  ///< non-finite entries (never-depleting)
  std::vector<double> upper_edge;       ///< bin upper edges, ascending
  std::vector<std::uint64_t> bin_count; ///< finite entries per bin
  std::vector<double> cum_fraction;     ///< fraction of ALL entries <= edge

  /// Two passes over `column`: min/max, then the histogram over the
  /// finite range [lo, hi] (unit bins from 0 when no entry is finite).  An
  /// empty column has no bins.
  [[nodiscard]] static MetricCdf build(std::span<const double> column,
                                       std::size_t bins = 64);

  /// Value below which fraction q of ALL entries falls (linear within the
  /// bin); +inf when q reaches into the unbounded tail.
  [[nodiscard]] double percentile(double q) const;

  /// CSV rows `value,cum_fraction` (header included) — the artifact a
  /// campaign smoke job uploads.
  [[nodiscard]] std::string render_csv() const;
};

}  // namespace bansim::energy
