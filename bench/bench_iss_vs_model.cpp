// Instruction-level vs OS-level simulation (the paper's Section 2
// argument, quantified).
//
// Runs a realistic signal-processing firmware (derivative + shift-add
// square + threshold, the Rpeak inner loop) on the MSP430 ISS, measures
// simulated-instructions per wall-clock second, and projects what
// simulating the paper's 5-node BAN for 60 s at instruction level would
// cost — against the measured wall-clock of the OS-level model doing the
// same scenario.  This is why the paper builds on TOSSIM-style OS events
// rather than Atemu/Simulavr-style instruction interpretation.
#include <chrono>
#include <cstdio>
#include <string>

#include "apps/ecg_synthesizer.hpp"
#include "core/bansim.hpp"
#include "isa/msp430_asm.hpp"
#include "isa/msp430_core.hpp"

namespace {

using namespace bansim;

/// Builds the per-sample processing firmware over `n` ECG samples.
std::string firmware_source(std::size_t n) {
  apps::EcgConfig ecg_cfg;
  apps::EcgSynthesizer ecg{ecg_cfg, sim::Rng::stream(7, "iss/ecg")};
  std::string data;
  for (std::size_t i = 0; i < n; ++i) {
    const double volts =
        ecg.sample(sim::TimePoint::zero() +
                   sim::Duration::from_seconds(static_cast<double>(i) / 200.0));
    const auto code = static_cast<int>(volts / 2.5 * 4095.0);
    data += "  .word " + std::to_string(code) + "\n";
  }
  return R"(
  start:
    mov #data, r10
    mov #)" + std::to_string(n) + R"(, r11
    clr r12
    clr r13
  loop:
    mov @r10+, r4
    mov r4, r5
    sub r12, r5        ; derivative
    mov r4, r12
    tst r5
    jge positive
    clr r6
    sub r5, r6
    mov r6, r5         ; |derivative|
  positive:
    clr r6
    mov r5, r7
    mov r5, r8
  mul_loop:            ; r6 = r5 * r5 by shift-add
    tst r8
    jz mul_done
    bit #1, r8
    jz no_add
    add r7, r6
  no_add:
    add r7, r7
    rra r8
    jmp mul_loop
  mul_done:
    cmp #2000, r6      ; moving threshold stand-in
    jl below
    inc r13
  below:
    dec r11
    jnz loop
    bis #0x10, sr      ; LPM0: frame done
  data:
)" + data;
}

struct IssRun {
  std::uint64_t instructions;  ///< per firmware run
  std::uint64_t cycles;        ///< per firmware run
  std::uint16_t detections;    ///< per firmware run
  double instr_per_second;     ///< over every repeat
};

/// Interprets the firmware from a cold core again and again until at least
/// `min_wall_seconds` of interpreter time has passed, so the rate is a
/// measurement rather than one sub-millisecond sample.
IssRun run_firmware(std::size_t samples, double min_wall_seconds) {
  isa::Msp430Assembler assembler;
  const auto words = assembler.assemble(firmware_source(samples));
  IssRun run{};
  std::uint64_t total_instructions = 0;
  double wall_seconds = 0;
  do {
    isa::Msp430Core core;
    core.load(0x4000, words);
    core.set_reg(isa::kSp, 0x3FFE);
    const auto start = std::chrono::steady_clock::now();
    core.run(100'000'000);
    wall_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    run.instructions = core.instructions();
    run.cycles = core.cycles();
    run.detections = core.reg(13);
    total_instructions += run.instructions;
  } while (wall_seconds < min_wall_seconds);
  run.instr_per_second =
      static_cast<double>(total_instructions) / wall_seconds;
  return run;
}

void print_reproduction() {
  const std::size_t samples = 512;
  const IssRun iss = run_firmware(samples, 0.5);
  const double iss_rate = iss.instr_per_second;

  // The OS-level model simulating the full 5-node 60 s scenario.
  core::PaperSetup setup;
  const core::BanConfig cfg =
      core::streaming_static_config(setup, sim::Duration::milliseconds(30));
  core::MeasurementProtocol protocol;
  const auto t0 = std::chrono::steady_clock::now();
  const core::ScenarioResult result = core::run_scenario(cfg, protocol);
  const double model_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Projection.  An instruction-level node simulator cannot skip time: it
  // executes every active cycle of every node's firmware (the 205 Hz
  // scenario keeps the MCU ~26 % active, see Table 1) and additionally
  // emulates the peripherals (timers, USART, ADC) cycle by cycle, which
  // slows Atemu/Simulavr-class tools well below a bare interpreter.
  const double avg_cpi = static_cast<double>(iss.cycles) /
                         static_cast<double>(iss.instructions);
  const double active_fraction = 0.26;
  const double silicon_instr_per_s = 8.0e6 / avg_cpi;
  const double projected_instr =
      silicon_instr_per_s * active_fraction * 60.0 * 5.0;
  const double bare_wall = projected_instr / iss_rate;
  const double peripheral_factor = 10.0;  // typical full-system emulation tax

  std::printf(
      "Instruction-level vs OS-level simulation of the 5-node BAN (60 s)\n\n"
      "  ISS firmware (Rpeak inner loop, %zu samples):\n"
      "    %llu instructions, %llu cycles (CPI %.2f), %u threshold crossings\n"
      "    %.2f Minstr/s interpreted\n"
      "    firmware energy: %.2f uJ (0.6 nJ/instr)  |  %.2f uJ (cycle model)\n\n"
      "  projected instruction-level cost of the paper scenario (5 nodes,\n"
      "  60 s, ~26%% MCU duty): %.0fM instructions\n"
      "    bare interpreter:            %6.1f s\n"
      "    with peripheral emulation:   %6.1f s (x%.0f, Atemu-class)\n"
      "  measured OS-level model run:   %6.2f s\n"
      "  OS-level speedup: %.0fx bare, %.0fx vs full-system emulation\n\n"
      "  (node1 energy from the OS-level run: radio %.1f mJ, uC %.1f mJ)\n\n",
      samples, static_cast<unsigned long long>(iss.instructions),
      static_cast<unsigned long long>(iss.cycles), avg_cpi, iss.detections,
      iss_rate / 1e6,
      static_cast<double>(iss.instructions) * 0.6e-9 * 1e6,
      static_cast<double>(iss.cycles) / 8.0e6 * 2.0e-3 * 2.8 * 1e6,
      projected_instr / 1e6, bare_wall, bare_wall * peripheral_factor,
      peripheral_factor, model_wall, bare_wall / model_wall,
      bare_wall * peripheral_factor / model_wall, result.radio_mj,
      result.mcu_mj);
}

}  // namespace

int main() {
  print_reproduction();
  return 0;
}
