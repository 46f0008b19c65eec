// The abstract executor (paper §III-A): Vrf re-executes the known
// instrumented binary locally. Reads from addresses outside the op's
// current stack — peripherals, globals, network buffers — are fed from the
// attested I-Log, so the replay reconstructs the device execution exactly,
// including any memory-safety attack the inputs triggered. Detectors run on
// the replayed execution:
//
//  * return-address witness   — every call records the pushed return
//    address; the matching ret must pop the same value, otherwise a
//    control-flow attack (paper Fig. 1) corrupted the stack.
//  * access-site bounds       — at each compiler-recorded array access the
//    effective address must fall inside the object's extent; a violation is
//    a data-only attack (paper Fig. 2), detected with no code annotations.
//  * OR equality              — the replay re-produces the CF/I-Log; any
//    byte difference from the attested OR means the logs are inconsistent
//    with the known binary (tamper/divergence). Compared in place.
//  * app policies             — optional safety assertions over the replay.
// Forensics are recorded only for a caller that passes a sink; no
// decision reads them (docs/REPLAY.md, "Forensics on demand").
#ifndef DIALED_VERIFIER_REPLAY_H
#define DIALED_VERIFIER_REPLAY_H

#include <array>
#include <memory>
#include <span>

#include "instr/oplink.h"
#include "logfmt/logfmt.h"
#include "verifier/report.h"

namespace dialed::verifier {

class firmware_artifact;  // firmware_artifact.h

/// Read-only view of the replay for policies: the replaying core's
/// register file and the replay's own 64 KiB memory, as they stand when
/// the policy is called.
class replay_state {
 public:
  replay_state(const std::array<std::uint16_t, 16>& regs,
               std::span<const std::uint8_t, 0x10000> mem,
               const instr::linked_program& prog)
      : regs_(regs), mem_(mem), prog_(prog) {}

  std::uint16_t reg(int i) const { return regs_[i]; }
  /// The word at `addr` (low bit ignored, as for a CPU word read).
  std::uint16_t word_at(std::uint16_t addr) const {
    const std::size_t a = addr & 0xfffe;
    return static_cast<std::uint16_t>(mem_[a] | mem_[a + 1] << 8);
  }
  /// Current value of a compiled global variable.
  std::uint16_t global(const std::string& name) const;

 private:
  const std::array<std::uint16_t, 16>& regs_;
  std::span<const std::uint8_t, 0x10000> mem_;
  const instr::linked_program& prog_;
};

/// App-specific safety policy, evaluated over the replayed execution.
class policy {
 public:
  virtual ~policy() = default;
  virtual std::string name() const = 0;
  /// Called on every replayed memory write (after it took effect).
  virtual void on_write(const replay_state& st, std::uint16_t addr,
                        std::uint16_t value, std::uint16_t pc,
                        std::vector<finding>& out) {
    (void)st; (void)addr; (void)value; (void)pc; (void)out;
  }
  /// Called once when the op's final return retires.
  virtual void on_finish(const replay_state& st, std::vector<finding>& out) {
    (void)st;
    (void)out;
  }
};

struct replay_result {
  bool completed = false;  ///< reached the op's final return
  std::uint16_t final_r15 = 0;
  std::uint16_t final_r4 = 0;
  std::uint64_t instructions = 0;
  std::vector<finding> findings;  ///< detection order; OR mismatch last
};

/// Replay one attested invocation of `fw`'s program against `report`'s
/// logs. `policies` may be empty. Throws only on internal errors; attack
/// conditions, a bad OR length included, come back as findings.
///
/// `fx`, when non-null, is overwritten with the replay's forensics; the
/// result is the same either way, and a null `fx` costs nothing.
///
/// The replay runs the shared MSP430 core (emu::basic_cpu) over a flat
/// 64 KiB memory of its own, zeroed and loaded with the program's image
/// for this call alone, so nothing carries from one replay to the next.
/// It decodes through the artifact's predecoded instruction index,
/// falling back to live decode outside the index or once replayed code
/// has been overwritten (docs/REPLAY.md, "Live-decode fallback"). Safe to
/// call from many threads concurrently: a call shares only the read-only
/// artifact.
replay_result replay_operation(
    const firmware_artifact& fw, const report_view& report,
    const std::vector<std::shared_ptr<policy>>& policies,
    forensics* fx = nullptr);

}  // namespace dialed::verifier

#endif  // DIALED_VERIFIER_REPLAY_H
