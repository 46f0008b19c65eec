#include "store/codec.h"

#include <array>

namespace dialed::store {

namespace {

/// IEEE CRC-32, slicing-by-8: tables[0] is the classic byte-at-a-time
/// table; tables[k][i] advances a byte through k more zero bytes, so one
/// iteration folds 8 input bytes with 8 independent lookups. Every WAL
/// append/replay and snapshot checksum runs through here.
const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = crc32_tables();
  std::uint32_t c = 0xffffffffu;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(data[i]) |
                                  static_cast<std::uint32_t>(data[i + 1])
                                      << 8 |
                                  static_cast<std::uint32_t>(data[i + 2])
                                      << 16 |
                                  static_cast<std::uint32_t>(data[i + 3])
                                      << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(data[i + 4]) |
                             static_cast<std::uint32_t>(data[i + 5]) << 8 |
                             static_cast<std::uint32_t>(data[i + 6]) << 16 |
                             static_cast<std::uint32_t>(data[i + 7]) << 24;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    c = t[0][(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

void writer::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xff));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

void writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

void writer::bytes(std::span<const std::uint8_t> b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void writer::str(const std::string& s) {
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void writer::raw(std::span<const std::uint8_t> b) {
  out_.insert(out_.end(), b.begin(), b.end());
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

std::span<const std::uint8_t> reader::need(std::size_t n) {
  if (data_.size() - pos_ < n) {
    throw store_error(store_error_kind::truncated_record,
                      context_ + ": need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(remaining()));
  }
  const auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::uint8_t reader::u8() { return need(1)[0]; }

std::uint16_t reader::u16() { return load_le16(need(2), 0); }

std::uint32_t reader::u32() { return load_le32(need(4), 0); }

std::uint64_t reader::u64() {
  const auto b = need(8);
  return static_cast<std::uint64_t>(load_le32(b, 0)) |
         (static_cast<std::uint64_t>(load_le32(b, 4)) << 32);
}

bool reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw store_error(store_error_kind::bad_record,
                      context_ + ": boolean byte " + std::to_string(v));
  }
  return v != 0;
}

byte_vec reader::bytes() {
  const std::uint32_t n = count(1);
  const auto s = need(n);
  return byte_vec(s.begin(), s.end());
}

std::string reader::str() {
  const std::uint32_t n = count(1);
  const auto s = need(n);
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

std::span<const std::uint8_t> reader::raw(std::size_t n) { return need(n); }

std::uint32_t reader::count(std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
    throw store_error(store_error_kind::truncated_record,
                      context_ + ": count " + std::to_string(n) +
                          " exceeds remaining " +
                          std::to_string(remaining()) + " bytes");
  }
  return n;
}

// ---------------------------------------------------------------------------
// linked_program codec
// ---------------------------------------------------------------------------

namespace {

void write_memmap(writer& w, const emu::memory_map& m) {
  for (const std::uint16_t v :
       {m.ram_start, m.ram_end, m.or_min, m.or_max, m.stack_init,
        m.key_base, m.key_size, m.mac_base, m.mac_size, m.srom_start,
        m.srom_end, m.flash_start, m.flash_end, m.ivt_start,
        m.reset_vector, m.p3out, m.p3in, m.net_data, m.net_avail, m.net_tx,
        m.adc_mem, m.tar, m.halt_port, m.args_base, m.result_addr,
        m.meta_base}) {
    w.u16(v);
  }
}

emu::memory_map read_memmap(reader& r) {
  emu::memory_map m;
  for (std::uint16_t* f :
       {&m.ram_start, &m.ram_end, &m.or_min, &m.or_max, &m.stack_init,
        &m.key_base, &m.key_size, &m.mac_base, &m.mac_size, &m.srom_start,
        &m.srom_end, &m.flash_start, &m.flash_end, &m.ivt_start,
        &m.reset_vector, &m.p3out, &m.p3in, &m.net_data, &m.net_avail,
        &m.net_tx, &m.adc_mem, &m.tar, &m.halt_port, &m.args_base,
        &m.result_addr, &m.meta_base}) {
    *f = r.u16();
  }
  return m;
}

void write_symbol_map(writer& w,
                      const std::map<std::string, std::uint16_t>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [name, addr] : m) {
    w.str(name);
    w.u16(addr);
  }
}

std::map<std::string, std::uint16_t> read_symbol_map(reader& r) {
  std::map<std::string, std::uint16_t> m;
  const std::uint32_t n = r.count(6);  // >= len prefix + u16 per entry
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    m[name] = r.u16();
  }
  return m;
}

}  // namespace

void write_program(writer& w, const instr::linked_program& prog) {
  // Image: segments, symbols, listing.
  w.u32(static_cast<std::uint32_t>(prog.image.segments.size()));
  for (const auto& seg : prog.image.segments) {
    w.u16(seg.base);
    w.bytes(seg.bytes);
  }
  write_symbol_map(w, prog.image.symbols);
  w.u32(static_cast<std::uint32_t>(prog.image.listing.size()));
  for (const auto& e : prog.image.listing) {
    w.u16(e.address);
    w.i32(e.size_bytes);
    w.i32(e.line);
    w.str(e.text);
  }

  // Layout scalars.
  w.u16(prog.er_min);
  w.u16(prog.er_max);
  w.u16(prog.crt_entry);
  w.u16(prog.op_return_addr);
  write_symbol_map(w, prog.global_addrs);

  // compile_result — the verifier's bounds analysis reads globals and
  // frame layouts, so the round trip must be complete, not just what the
  // fingerprint hashes.
  const auto& ci = prog.compile_info;
  w.str(ci.asm_text);
  w.u32(static_cast<std::uint32_t>(ci.globals.size()));
  for (const auto& g : ci.globals) {
    w.str(g.name);
    w.i32(g.size_bytes);
    w.boolean(g.is_char);
    w.boolean(g.is_array);
    w.u32(static_cast<std::uint32_t>(g.init.size()));
    for (const std::int32_t v : g.init) w.i32(v);
  }
  w.u32(static_cast<std::uint32_t>(ci.functions.size()));
  for (const auto& f : ci.functions) {
    w.str(f.name);
    w.i32(f.frame_size);
    w.i32(f.num_params);
    w.boolean(f.returns_value);
    w.u32(static_cast<std::uint32_t>(f.locals.size()));
    for (const auto& l : f.locals) {
      w.str(l.name);
      w.i32(l.frame_offset);
      w.i32(l.size_bytes);
      w.boolean(l.is_array);
      w.boolean(l.is_char);
    }
  }
  w.u32(static_cast<std::uint32_t>(ci.helpers.size()));
  for (const auto& h : ci.helpers) w.str(h);
  w.u32(static_cast<std::uint32_t>(ci.access_sites.size()));
  for (const auto& s : ci.access_sites) {
    w.str(s.label);
    w.str(s.object);
    w.str(s.function);
    w.boolean(s.is_global);
    w.i32(s.local_offset_adj);
    w.i32(s.size_bytes);
  }
  w.u32(static_cast<std::uint32_t>(ci.function_text.size()));
  for (const auto& [name, text] : ci.function_text) {
    w.str(name);
    w.str(text);
  }

  w.str(prog.er_asm_text);

  // link_options.
  w.str(prog.options.entry);
  w.u8(static_cast<std::uint8_t>(prog.options.mode));
  write_memmap(w, prog.options.map);
  w.u16(prog.options.er_base);
  const auto& po = prog.options.pass_opts;
  w.boolean(po.optimized_cf);
  w.boolean(po.log_all_reads);
  w.boolean(po.static_read_filter);
  w.boolean(po.static_write_filter);
  write_memmap(w, po.map);
  write_symbol_map(w, po.symbols);
}

instr::linked_program read_program(reader& r) {
  instr::linked_program prog;

  const std::uint32_t nseg = r.count(6);
  prog.image.segments.reserve(nseg);
  for (std::uint32_t i = 0; i < nseg; ++i) {
    masm::segment seg;
    seg.base = r.u16();
    seg.bytes = r.bytes();
    prog.image.segments.push_back(std::move(seg));
  }
  prog.image.symbols = read_symbol_map(r);
  const std::uint32_t nlst = r.count(14);
  prog.image.listing.reserve(nlst);
  for (std::uint32_t i = 0; i < nlst; ++i) {
    masm::listing_entry e;
    e.address = r.u16();
    e.size_bytes = r.i32();
    e.line = r.i32();
    e.text = r.str();
    prog.image.listing.push_back(std::move(e));
  }

  prog.er_min = r.u16();
  prog.er_max = r.u16();
  prog.crt_entry = r.u16();
  prog.op_return_addr = r.u16();
  prog.global_addrs = read_symbol_map(r);

  auto& ci = prog.compile_info;
  ci.asm_text = r.str();
  const std::uint32_t ng = r.count(18);
  ci.globals.reserve(ng);
  for (std::uint32_t i = 0; i < ng; ++i) {
    cc::global_var_info g;
    g.name = r.str();
    g.size_bytes = r.i32();
    g.is_char = r.boolean();
    g.is_array = r.boolean();
    const std::uint32_t ni = r.count(4);
    g.init.reserve(ni);
    for (std::uint32_t k = 0; k < ni; ++k) g.init.push_back(r.i32());
    ci.globals.push_back(std::move(g));
  }
  const std::uint32_t nf = r.count(17);
  ci.functions.reserve(nf);
  for (std::uint32_t i = 0; i < nf; ++i) {
    cc::function_info f;
    f.name = r.str();
    f.frame_size = r.i32();
    f.num_params = r.i32();
    f.returns_value = r.boolean();
    const std::uint32_t nl = r.count(18);
    f.locals.reserve(nl);
    for (std::uint32_t k = 0; k < nl; ++k) {
      cc::local_var_info l;
      l.name = r.str();
      l.frame_offset = r.i32();
      l.size_bytes = r.i32();
      l.is_array = r.boolean();
      l.is_char = r.boolean();
      f.locals.push_back(std::move(l));
    }
    ci.functions.push_back(std::move(f));
  }
  const std::uint32_t nh = r.count(4);
  for (std::uint32_t i = 0; i < nh; ++i) ci.helpers.insert(r.str());
  const std::uint32_t ns = r.count(21);
  ci.access_sites.reserve(ns);
  for (std::uint32_t i = 0; i < ns; ++i) {
    cc::access_site s;
    s.label = r.str();
    s.object = r.str();
    s.function = r.str();
    s.is_global = r.boolean();
    s.local_offset_adj = r.i32();
    s.size_bytes = r.i32();
    ci.access_sites.push_back(std::move(s));
  }
  const std::uint32_t nft = r.count(8);
  ci.function_text.reserve(nft);
  for (std::uint32_t i = 0; i < nft; ++i) {
    std::string name = r.str();
    std::string text = r.str();
    ci.function_text.emplace_back(std::move(name), std::move(text));
  }

  prog.er_asm_text = r.str();

  prog.options.entry = r.str();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(instr::instrumentation::dialed)) {
    throw store_error(store_error_kind::bad_record,
                      "linked_program: instrumentation byte " +
                          std::to_string(mode));
  }
  prog.options.mode = static_cast<instr::instrumentation>(mode);
  prog.options.map = read_memmap(r);
  prog.options.er_base = r.u16();
  auto& po = prog.options.pass_opts;
  po.optimized_cf = r.boolean();
  po.log_all_reads = r.boolean();
  po.static_read_filter = r.boolean();
  po.static_write_filter = r.boolean();
  po.map = read_memmap(r);
  po.symbols = read_symbol_map(r);

  return prog;
}

}  // namespace dialed::store
