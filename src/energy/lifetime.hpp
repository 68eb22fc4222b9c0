// Deployment-lifetime reporting: how long each node's energy store lasts.
//
// The rows are pure data — the storage-aware layers (hw/fault/check)
// compute the projections and observed deaths and hand finished numbers
// down, so this stays a formatting module with no hardware dependency,
// like the rest of the energy layer.  A row's lifetime is the observed
// depletion instant when the node actually died during the run, otherwise
// the projection extrapolated from its measured average power.
#pragma once

#include <string>
#include <vector>

namespace bansim::energy {

/// One node's lifetime estimate.
struct LifetimeRow {
  std::string node;
  double average_watts{0};    ///< measured over the observation window
  double harvest_watts{0};    ///< long-run mean of the harvest profile
  double state_of_charge{0};  ///< store fill at the end of the window
  double projected_hours{0};  ///< extrapolated time-to-depletion (may be inf)
  bool died{false};           ///< store ran dry during the run itself
  double died_at_hours{0};    ///< simulated depletion instant (when died)

  /// Observed death when there was one, else the projection.
  [[nodiscard]] double lifetime_hours() const {
    return died ? died_at_hours : projected_hours;
  }
};

/// Lifetime table for one cell (nodes in roster order).
struct LifetimeReport {
  double window_seconds{0};  ///< observation window the averages came from
  std::vector<LifetimeRow> rows;

  /// Shortest lifetime across the cell — the "first node death" that ends
  /// a ward deployment.  Infinite when the report is empty or every store
  /// outlives its load.
  [[nodiscard]] double first_death_hours() const;

  /// q-quantile (q in [0,1]) of the per-node lifetimes, nearest-rank.
  [[nodiscard]] double percentile_hours(double q) const;

  /// Human-readable table with first-death / median / last-death footer.
  [[nodiscard]] std::string render() const;

  /// CSV with columns
  /// node,avg_mw,harvest_mw,soc,lifetime_h,died,died_at_h.
  [[nodiscard]] std::string render_csv() const;
};

}  // namespace bansim::energy
