// The assembled device: bus + CPU + every peripheral, image loading, the
// DMA engine used for adversarial experiments, and the run loop. This is
// the prover side only; the verifier's replay needs no device (see
// cpu.h).
#ifndef DIALED_EMU_MACHINE_H
#define DIALED_EMU_MACHINE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "emu/bus.h"
#include "emu/cpu.h"
#include "emu/memmap.h"
#include "emu/peripherals.h"
#include "masm/masm.h"

namespace dialed::emu {

class machine {
 public:
  explicit machine(const memory_map& map = memory_map{});

  machine(const machine&) = delete;
  machine& operator=(const machine&) = delete;

  const memory_map& map() const { return bus_.map(); }
  bus& get_bus() { return bus_; }
  cpu& get_cpu() { return cpu_; }

  /// Copy all image segments into memory (unobserved).
  void load(const masm::image& img);

  /// Reset the CPU through the reset vector.
  void reset();

  enum class run_result { halted, cycle_limit };

  /// Run until a halt-port write or until `max_cycles` total CPU cycles.
  run_result run(std::uint64_t max_cycles = 50'000'000);

  bool halted() const { return halt_code_.has_value(); }
  std::uint16_t halt_code() const { return halt_code_.value_or(0); }
  void clear_halt() { halt_code_.reset(); }

  std::uint64_t cycles() const { return cpu_.cycles(); }

  // Peripheral access for hosts/tests.
  gpio_device& gpio() { return *gpio_; }
  net_device& net() { return *net_; }
  adc_device& adc() { return *adc_; }
  mailbox_device& mailbox() { return *mailbox_; }

  /// DMA engine: host-triggered transfer that bypasses the CPU but is
  /// visible to the bus monitors (used to probe APEX's anti-DMA property).
  void dma_write16(std::uint16_t addr, std::uint16_t value);

  /// Register a native handler that runs instead of fetching from `addr`
  /// (models mask-ROM routines such as VRASED's SW-Att). The handler is
  /// responsible for advancing PC (typically by emulating `ret`).
  void add_rom_handler(std::uint16_t addr, std::function<void()> handler);

  /// Force a halt from a monitor (e.g. VRASED detecting an illegal secure-
  /// ROM entry).
  void force_halt(std::uint16_t code) { halt_code_ = code; }

 private:
  std::map<std::uint16_t, std::function<void()>> rom_handlers_;
  bus bus_;
  cpu cpu_;
  std::optional<std::uint16_t> halt_code_;
  std::unique_ptr<gpio_device> gpio_;
  std::unique_ptr<net_device> net_;
  std::unique_ptr<adc_device> adc_;
  std::unique_ptr<timer_device> timer_;
  std::unique_ptr<halt_device> halt_;
  std::unique_ptr<mailbox_device> mailbox_;
};

}  // namespace dialed::emu

#endif  // DIALED_EMU_MACHINE_H
