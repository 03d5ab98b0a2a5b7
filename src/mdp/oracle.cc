#include "mdp/oracle.hh"

#include <algorithm>
#include <unordered_map>

#include "isa/opcodes.hh"
#include "mem/functional_memory.hh"

namespace cwsim
{

PrepassResult
runPrepass(const Program &program, const PrepassOptions &opts)
{
    FunctionalMemory mem;
    program.loadInto(mem);
    Executor ex(mem, program.entry());

    PrepassResult result;

    // Last store (by trace index) to write each byte.
    std::unordered_map<Addr, TraceIndex> last_writer;
    last_writer.reserve(1 << 16);

    uint64_t limit = opts.maxInsts ? opts.maxInsts : ~uint64_t(0);
    while (!ex.halted() && result.instCount < limit) {
        TraceIndex idx = result.instCount;
        StepInfo info = ex.step();
        ++result.instCount;

        if (info.isLoad) {
            ++result.loadCount;
            OracleDeps::ProducerSet set;
            for (unsigned i = 0; i < info.memSize; ++i) {
                auto it = last_writer.find(info.memAddr + i);
                if (it == last_writer.end())
                    continue;
                bool dup = false;
                for (unsigned j = 0; j < set.count; ++j)
                    dup = dup || set.stores[j] == it->second;
                if (!dup)
                    set.stores[set.count++] = it->second;
            }
            if (set.count) {
                std::sort(set.stores.begin(),
                          set.stores.begin() + set.count);
                result.deps.record(idx, set);
            }
        } else if (info.isStore) {
            ++result.storeCount;
            for (unsigned i = 0; i < info.memSize; ++i)
                last_writer[info.memAddr + i] = idx;
        } else if (info.inst.isBranch()) {
            ++result.branchCount;
            if (info.taken)
                ++result.takenBranches;
        }
        if (info.inst.fuClass() == FuClass::FpAdd ||
            info.inst.fuClass() == FuClass::FpMul ||
            info.inst.fuClass() == FuClass::FpDiv) {
            ++result.fpOps;
        }

        if (opts.recordTrace) {
            TraceEntry te;
            te.pc = info.pc;
            te.inst = info.inst;
            te.memAddr = info.memAddr;
            te.memSize = static_cast<uint8_t>(info.memSize);
            te.taken = info.taken;
            result.trace.push_back(te);
        }
    }

    result.deps.shrinkToFit();
    result.halted = ex.halted();
    result.finalState = ex.state();
    result.memFingerprint = mem.fingerprint();
    return result;
}

} // namespace cwsim
