#include "emu/bus.h"

#include <algorithm>

namespace dialed::emu {

void bus::index_device(mmio_device* dev) {
  // Probe the device's full claim once at registration (owns() is pure by
  // contract) instead of on every access. Registration is cold; accesses
  // are the emulator's innermost loop.
  for (std::uint32_t a = 0; a <= 0xffff; ++a) {
    if (!dev->owns(static_cast<std::uint16_t>(a))) continue;
    page_entry& p = pages_[a >> page_shift];
    if (p.dev == nullptr) {
      p.dev = dev;
    } else if (p.dev != dev) {
      p.multi = true;
    }
  }
}

std::uint8_t bus::raw_read8(std::uint16_t addr) {
  const page_entry& p = pages_[addr >> page_shift];
  if (p.dev == nullptr) return mem_[addr];
  if (!p.multi) {
    return p.dev->owns(addr) ? p.dev->read8(addr) : mem_[addr];
  }
  for (mmio_device* d : devices_) {
    if (d->owns(addr)) return d->read8(addr);
  }
  return mem_[addr];
}

void bus::raw_write8(std::uint16_t addr, std::uint8_t value) {
  const page_entry& p = pages_[addr >> page_shift];
  if (p.dev == nullptr) {
    mem_[addr] = value;
    return;
  }
  if (!p.multi) {
    if (p.dev->owns(addr)) {
      p.dev->write8(addr, value);
    } else {
      mem_[addr] = value;
    }
    return;
  }
  for (mmio_device* d : devices_) {
    if (d->owns(addr)) {
      d->write8(addr, value);
      return;
    }
  }
  mem_[addr] = value;
}

std::uint8_t bus::raw_peek8(std::uint16_t addr) const {
  // Same page-table dispatch as the CPU path: a peek of a device-owned
  // address reports the device's (side-effect-free) register view, never
  // the stale backing byte underneath it.
  const page_entry& p = pages_[addr >> page_shift];
  if (p.dev == nullptr) return mem_[addr];
  if (!p.multi) {
    return p.dev->owns(addr) ? p.dev->peek8(addr) : mem_[addr];
  }
  for (const mmio_device* d : devices_) {
    if (d->owns(addr)) return d->peek8(addr);
  }
  return mem_[addr];
}

void bus::notify(const bus_access& a) {
  for (watcher* w : watchers_) w->on_access(a);
}

std::uint8_t bus::read8(std::uint16_t addr) {
  const std::uint8_t v = raw_read8(addr);
  if (!watchers_.empty()) notify({addr, v, true, false});
  return v;
}

std::uint16_t bus::read16(std::uint16_t addr) {
  const std::uint16_t a = addr & 0xfffe;
  const std::uint16_t v = static_cast<std::uint16_t>(
      raw_read8(a) | (raw_read8(static_cast<std::uint16_t>(a + 1)) << 8));
  if (!watchers_.empty()) notify({a, v, false, false});
  return v;
}

void bus::write8(std::uint16_t addr, std::uint8_t value) {
  raw_write8(addr, value);
  if (!watchers_.empty()) notify({addr, value, true, true});
}

void bus::write16(std::uint16_t addr, std::uint16_t value, bool dma) {
  const std::uint16_t a = addr & 0xfffe;
  raw_write8(a, static_cast<std::uint8_t>(value & 0xff));
  raw_write8(static_cast<std::uint16_t>(a + 1),
             static_cast<std::uint8_t>(value >> 8));
  if (!watchers_.empty()) notify({a, value, false, true, dma});
}

std::uint8_t bus::peek8(std::uint16_t addr) const { return raw_peek8(addr); }

std::uint16_t bus::peek16(std::uint16_t addr) const {
  const std::uint16_t a = addr & 0xfffe;
  return static_cast<std::uint16_t>(
      raw_peek8(a) | (raw_peek8(static_cast<std::uint16_t>(a + 1)) << 8));
}

void bus::poke8(std::uint16_t addr, std::uint8_t value) { mem_[addr] = value; }

void bus::poke16(std::uint16_t addr, std::uint16_t value) {
  const std::uint16_t a = addr & 0xfffe;
  mem_[a] = static_cast<std::uint8_t>(value & 0xff);
  mem_[a + 1] = static_cast<std::uint8_t>(value >> 8);
}

void bus::remove_watcher(const watcher* w) {
  watchers_.erase(std::remove(watchers_.begin(), watchers_.end(), w),
                  watchers_.end());
}

void bus::notify_exec(std::uint16_t pc, const isa::instruction& ins) {
  for (watcher* w : watchers_) w->on_exec(pc, ins);
}

void bus::notify_irq(std::uint16_t vector) {
  for (watcher* w : watchers_) w->on_irq(vector);
}

void bus::notify_reset() {
  for (watcher* w : watchers_) w->on_reset();
}

}  // namespace dialed::emu
