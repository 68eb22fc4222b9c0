#include "sim/scenario_runner.hpp"

namespace bansim::sim {

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace bansim::sim
