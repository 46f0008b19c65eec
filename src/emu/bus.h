// Memory bus of the emulated MCU: a flat 64 KiB space with memory-mapped
// peripheral devices and per-access observer hooks. The hooks are the
// "hardware signals" that the VRASED/APEX monitor FSMs in src/rot watch
// (Daddr, Ren, Wen, DMA-en in the papers' terminology). The bus is the
// prover's memory; the verifier's replay runs the same CPU core over a
// flat memory of its own (see cpu.h).
#ifndef DIALED_EMU_BUS_H
#define DIALED_EMU_BUS_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "emu/memmap.h"
#include "isa/isa.h"

namespace dialed::emu {

/// One observed data-memory access (instruction fetches are reported
/// separately via watcher::on_exec).
struct bus_access {
  std::uint16_t addr = 0;
  std::uint16_t value = 0;
  bool byte = false;
  bool write = false;
  bool dma = false;  ///< access came from the DMA engine, not the CPU
};

/// Observer interface for hardware monitors, tracers and tests.
class watcher {
 public:
  virtual ~watcher() = default;
  /// CPU data access or DMA transfer, after the value is known.
  virtual void on_access(const bus_access&) {}
  /// About to execute the instruction at `pc`.
  virtual void on_exec(std::uint16_t pc, const isa::instruction& ins) {
    (void)pc;
    (void)ins;
  }
  /// An interrupt is being serviced (vector address given).
  virtual void on_irq(std::uint16_t vector) { (void)vector; }
  /// Machine reset.
  virtual void on_reset() {}
};

/// A memory-mapped device claiming a byte range.
class mmio_device {
 public:
  virtual ~mmio_device() = default;
  virtual bool owns(std::uint16_t addr) const = 0;
  virtual std::uint8_t read8(std::uint16_t addr) = 0;
  virtual void write8(std::uint16_t addr, std::uint8_t value) = 0;
  /// Side-effect-free observation of the byte a CPU read8 would see.
  /// bus::peek8 routes device-owned addresses here, so the host/loader
  /// view and the CPU view give ONE authoritative answer per address —
  /// previously peeks bypassed devices and returned stale backing bytes.
  /// Devices whose read8 is already idempotent implement read8 in terms
  /// of this.
  virtual std::uint8_t peek8(std::uint16_t addr) const = 0;
};

class bus {
 public:
  explicit bus(const memory_map& map) : map_(map) {}

  const memory_map& map() const { return map_; }

  /// Observed accesses. Word accesses are little-endian; the low bit of
  /// the address is ignored for word ops (MSP430 alignment). Only a word
  /// write can come from the DMA engine (machine::dma_write16).
  std::uint8_t read8(std::uint16_t addr);
  std::uint16_t read16(std::uint16_t addr);
  void write8(std::uint16_t addr, std::uint8_t value);
  void write16(std::uint16_t addr, std::uint16_t value, bool dma = false);

  /// Unobserved accesses for the host/loader and for instruction fetch
  /// (fetches are reported via watcher::on_exec instead).
  std::uint8_t peek8(std::uint16_t addr) const;
  std::uint16_t peek16(std::uint16_t addr) const;
  void poke8(std::uint16_t addr, std::uint8_t value);
  void poke16(std::uint16_t addr, std::uint16_t value);

  /// Device and watcher registration (non-owning). add_device indexes the
  /// device's owns() range into the page table; devices are never removed,
  /// so the table never needs a rebuild.
  void add_device(mmio_device* dev) {
    devices_.push_back(dev);
    index_device(dev);
  }
  void add_watcher(watcher* w) { watchers_.push_back(w); }
  void remove_watcher(const watcher* w);

  void notify_exec(std::uint16_t pc, const isa::instruction& ins);
  void notify_irq(std::uint16_t vector);
  void notify_reset();

 private:
  /// 64 KiB / 256 B page table entry: the dispatch decision for every
  /// address in the page, precomputed at add_device time so the per-byte
  /// `for (d : devices_) if (d->owns(addr))` scan is gone from the hot
  /// path. `dev == nullptr` (the overwhelmingly common case: all of RAM,
  /// OR and flash) means plain backing memory — a single array index.
  /// One device in the page still needs its per-address owns() check (a
  /// device may claim only a few bytes of the page); `multi` falls back
  /// to the registration-order scan so first-registered keeps priority.
  struct page_entry {
    mmio_device* dev = nullptr;
    bool multi = false;
  };
  static constexpr unsigned page_shift = 8;

  void index_device(mmio_device* dev);
  std::uint8_t raw_read8(std::uint16_t addr);
  void raw_write8(std::uint16_t addr, std::uint8_t value);
  std::uint8_t raw_peek8(std::uint16_t addr) const;
  void notify(const bus_access& a);

  memory_map map_;
  std::array<std::uint8_t, 0x10000> mem_{};
  std::array<page_entry, 0x100> pages_{};
  std::vector<mmio_device*> devices_;
  std::vector<watcher*> watchers_;
};

}  // namespace dialed::emu

#endif  // DIALED_EMU_BUS_H
