// Device memory map for the emulated MSP430-class MCU (DESIGN.md §3).
// Everything is configurable so tests can build odd layouts, but the
// defaults model a low-end MSP430 with 4 KiB SRAM, the APEX METADATA block,
// the VRASED key/MAC storage and a secure ROM holding SW-Att.
#ifndef DIALED_EMU_MEMMAP_H
#define DIALED_EMU_MEMMAP_H

#include <cstdint>
#include <map>
#include <string>

namespace dialed::emu {

struct memory_map {
  // Data RAM.
  std::uint16_t ram_start = 0x0200;
  std::uint16_t ram_end = 0x11ff;  // inclusive

  // APEX output region OR (inside RAM). `or_max` is the address of the
  // topmost 16-bit log slot; the merged CF-Log/I-Log stack grows down from
  // it (paper §III-C, F5). Because that topmost SLOT spans bytes
  // [or_max, or_max+1], every OR snapshot — what SW-Att MACs, what the
  // prover ships in or_bytes, what the verifier replays — covers
  // [or_min, or_max+1] inclusive: or_max - or_min + 2 bytes. See the
  // layout note in src/proto/wire.h.
  std::uint16_t or_min = 0x0600;
  std::uint16_t or_max = 0x0dfe;

  // Initial stack pointer (top of RAM, grows down).
  std::uint16_t stack_init = 0x11fe;

  // VRASED secure storage: attestation key and the MAC output mailbox.
  std::uint16_t key_base = 0x1a00;
  std::uint16_t key_size = 32;
  std::uint16_t mac_base = 0x1a20;
  std::uint16_t mac_size = 32;

  // Secure ROM containing SW-Att; entering `srom_entry` triggers the
  // native SW-Att model in src/rot.
  std::uint16_t srom_start = 0xa000;
  std::uint16_t srom_end = 0xafff;

  // Program flash and interrupt vector table.
  std::uint16_t flash_start = 0xc000;
  std::uint16_t flash_end = 0xffdf;
  std::uint16_t ivt_start = 0xffe0;
  std::uint16_t reset_vector = 0xfffe;

  // Peripheral registers.
  std::uint16_t p3out = 0x0019;      ///< GPIO port 3 output (paper's actuator)
  std::uint16_t p3in = 0x0018;       ///< GPIO port 3 input
  std::uint16_t net_data = 0x0076;   ///< network RX FIFO head (pops on read)
  std::uint16_t net_avail = 0x0077;  ///< bytes available in RX FIFO
  std::uint16_t net_tx = 0x0078;     ///< network TX (host collects)
  std::uint16_t adc_mem = 0x0140;    ///< ADC sample register (16-bit)
  std::uint16_t tar = 0x0172;        ///< timer counter (low 16 bits of cycles)
  std::uint16_t halt_port = 0x01f0;  ///< write -> machine halts with code

  // Hardware argument/result mailboxes used by the generated crt0 to pass
  // embedded-operation arguments (host writes ARGS, reads RESULT).
  std::uint16_t args_base = 0x01a0;  ///< 8 words: arg0..arg7
  std::uint16_t result_addr = 0x01b0;

  // APEX METADATA block (hardware-owned; EXEC is read-only to software).
  std::uint16_t meta_base = 0x0180;

  bool in_ram(std::uint16_t a) const { return a >= ram_start && a <= ram_end; }
  bool in_or(std::uint16_t a) const {
    // 32-bit arithmetic: with or_max = 0xffff the uint16 cast used to wrap
    // or_max + 1 to 0, emptying the region instead of extending it to the
    // top byte. (Such a map is rejected by the verifier — see
    // firmware_artifact — but the predicate must not lie about it.)
    return a >= or_min && a <= static_cast<std::uint32_t>(or_max) + 1;
  }
  bool in_srom(std::uint16_t a) const {
    return a >= srom_start && a <= srom_end;
  }
  bool in_key(std::uint16_t a) const {
    return a >= key_base && a < key_base + key_size;
  }

  /// Symbols injected into every assembly, so sources can reference the
  /// layout by name (OR_MIN, OR_MAX, P3OUT, ...).
  std::map<std::string, std::uint16_t> predefined_symbols() const;
};

/// METADATA register offsets from memory_map::meta_base (word-aligned).
enum : std::uint16_t {
  META_ER_MIN = 0,
  META_ER_MAX = 2,
  META_OR_MIN = 4,
  META_OR_MAX = 6,
  META_EXEC = 8,      // read-only to software; owned by the APEX FSM
  META_CHAL = 10,     // 16-byte challenge, 10..25
  META_CHAL_SIZE = 16,
};

/// Halt codes written to memory_map::halt_port.
enum : std::uint16_t {
  HALT_CLEAN = 1,    ///< normal end of program
  HALT_ABORT = 2,    ///< instrumentation detected an illegal write/overflow
  HALT_FAULT = 3,    ///< runtime fault path
};

}  // namespace dialed::emu

#endif  // DIALED_EMU_MEMMAP_H
