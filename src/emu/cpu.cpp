#include "emu/cpu.h"

namespace dialed::emu {

template class basic_cpu<bus>;

}  // namespace dialed::emu
