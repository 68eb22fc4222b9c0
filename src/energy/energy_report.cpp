#include "energy/energy_report.hpp"

#include <cmath>
#include <cstdio>

namespace bansim::energy {

namespace {
constexpr double kJoulesToMillijoules = 1e3;

std::string formatted(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}
}  // namespace

double NodeEnergy::total_joules() const {
  double e = 0.0;
  for (const auto& c : components) e += c.joules;
  return e;
}

double NodeEnergy::component_joules(const std::string& component) const {
  for (const auto& c : components) {
    if (c.component == component) return c.joules;
  }
  return 0.0;
}

std::string render_energy_table(const std::vector<NodeEnergy>& nodes) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-12s %-10s %14s   %s\n", "node",
                "component", "energy (mJ)", "per-state (mJ)");
  out += line;
  out += std::string(72, '-') + "\n";
  for (const auto& n : nodes) {
    for (const auto& c : n.components) {
      std::string states;
      for (const auto& [name, joules] : c.per_state) {
        states += name + "=" + formatted("%.3f", joules * kJoulesToMillijoules) + " ";
      }
      std::snprintf(line, sizeof line, "%-12s %-10s %14.3f   %s\n",
                    n.node.c_str(), c.component.c_str(),
                    c.joules * kJoulesToMillijoules, states.c_str());
      out += line;
    }
    std::snprintf(line, sizeof line, "%-12s %-10s %14.3f\n", n.node.c_str(),
                  "TOTAL", n.total_joules() * kJoulesToMillijoules);
    out += line;
  }
  return out;
}

double ValidationRow::radio_error() const {
  return radio_real_mj > 0 ? std::abs(radio_sim_mj - radio_real_mj) / radio_real_mj
                           : 0.0;
}

double ValidationRow::mcu_error() const {
  return mcu_real_mj > 0 ? std::abs(mcu_sim_mj - mcu_real_mj) / mcu_real_mj : 0.0;
}

double ValidationTable::avg_radio_error() const {
  if (rows.empty()) return 0.0;
  double e = 0.0;
  for (const auto& r : rows) e += r.radio_error();
  return e / static_cast<double>(rows.size());
}

double ValidationTable::avg_mcu_error() const {
  if (rows.empty()) return 0.0;
  double e = 0.0;
  for (const auto& r : rows) e += r.mcu_error();
  return e / static_cast<double>(rows.size());
}

std::string ValidationTable::render() const {
  std::string out = title + "\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "%-10s %-10s | %12s %12s | %12s %12s\n",
                parameter_name.c_str(), "Cycle(ms)", "E Radio Real",
                "E Radio Sim", "E uC Real", "E uC Sim");
  out += line;
  out += std::string(78, '-') + "\n";
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line,
                  "%-10s %-10.0f | %12.1f %12.1f | %12.1f %12.1f\n",
                  r.parameter.c_str(), r.cycle_ms, r.radio_real_mj,
                  r.radio_sim_mj, r.mcu_real_mj, r.mcu_sim_mj);
    out += line;
  }
  out += std::string(78, '-') + "\n";
  std::snprintf(line, sizeof line, "Avg err radio: %.1f%%   Avg err uC: %.1f%%\n",
                avg_radio_error() * 100.0, avg_mcu_error() * 100.0);
  out += line;
  return out;
}

std::string ValidationTable::render_csv() const {
  std::string out =
      "parameter,cycle_ms,radio_real_mj,radio_sim_mj,mcu_real_mj,mcu_sim_mj,"
      "radio_err,mcu_err\n";
  char line[256];
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line, "%s,%.1f,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f\n",
                  r.parameter.c_str(), r.cycle_ms, r.radio_real_mj,
                  r.radio_sim_mj, r.mcu_real_mj, r.mcu_sim_mj, r.radio_error(),
                  r.mcu_error());
    out += line;
  }
  return out;
}

}  // namespace bansim::energy
