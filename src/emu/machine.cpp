#include "emu/machine.h"

#include "common/error.h"

namespace dialed::emu {

machine::machine(const memory_map& map) : bus_(map), cpu_(bus_) {
  auto now = [this] { return cpu_.cycles(); };
  halt_ = std::make_unique<halt_device>(
      map, [this](std::uint16_t code) { halt_code_ = code; });
  gpio_ = std::make_unique<gpio_device>(map, now);
  net_ = std::make_unique<net_device>(map);
  adc_ = std::make_unique<adc_device>(map);
  timer_ = std::make_unique<timer_device>(map, now);
  mailbox_ = std::make_unique<mailbox_device>(map);
  bus_.add_device(halt_.get());
  bus_.add_device(gpio_.get());
  bus_.add_device(net_.get());
  bus_.add_device(adc_.get());
  bus_.add_device(timer_.get());
  bus_.add_device(mailbox_.get());
}

void machine::load(const masm::image& img) {
  for (const auto& seg : img.segments) {
    std::uint32_t a = seg.base;
    for (const std::uint8_t b : seg.bytes) {
      if (a > 0xffff) throw error("emu: image overflows the address space");
      bus_.poke8(static_cast<std::uint16_t>(a++), b);
    }
  }
}

void machine::reset() {
  halt_code_.reset();
  cpu_.reset();
}

machine::run_result machine::run(std::uint64_t max_cycles) {
  while (!halted()) {
    if (cpu_.cycles() >= max_cycles) return run_result::cycle_limit;
    if (const auto it = rom_handlers_.find(cpu_.pc());
        it != rom_handlers_.end()) {
      it->second();
      continue;
    }
    cpu_.step();
  }
  return run_result::halted;
}

void machine::add_rom_handler(std::uint16_t addr,
                              std::function<void()> handler) {
  rom_handlers_[addr] = std::move(handler);
}

void machine::dma_write16(std::uint16_t addr, std::uint16_t value) {
  bus_.write16(addr, value, /*dma=*/true);
}

}  // namespace dialed::emu
