#include "bpred/bpred.hh"

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"

namespace cwsim
{

BranchPredictor::BranchPredictor(const BPredConfig &cfg)
    : tableEntries(cfg.predictorEntries),
      historyBits(cfg.gselectHistoryBits), globalHist(0),
      bimodal(cfg.predictorEntries, SatCounter(2, 1)),
      gselect(cfg.predictorEntries, SatCounter(2, 1)),
      selector(cfg.predictorEntries, SatCounter(2, 1)),
      btb(cfg.btbEntries), ras(cfg.rasEntries, 0), rasTop(0)
{
    fatal_if(!isPowerOf2(cfg.predictorEntries),
             "predictor entries must be a power of two");
    fatal_if(!isPowerOf2(cfg.btbEntries),
             "BTB entries must be a power of two");
    fatal_if(cfg.rasEntries == 0, "RAS entries must be at least 1");
    // Wider than globalHist would shift the PC by its width or more.
    fatal_if(cfg.gselectHistoryBits > 32,
             "gselect history bits must be at most 32");
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & (tableEntries - 1));
}

unsigned
BranchPredictor::gselectIndex(Addr pc, uint32_t hist) const
{
    return static_cast<unsigned>(
        (((pc >> 2) << historyBits) | hist) & (tableEntries - 1));
}

unsigned
BranchPredictor::selectorIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & (tableEntries - 1));
}

bool
BranchPredictor::directionLookup(Addr pc) const
{
    bool bimodal_taken = bimodal[bimodalIndex(pc)].isSet();
    bool gselect_taken = gselect[gselectIndex(pc, globalHist)].isSet();
    bool use_gselect = selector[selectorIndex(pc)].isSet();
    return use_gselect ? gselect_taken : bimodal_taken;
}

void
BranchPredictor::directionUpdate(Addr pc, bool taken, uint32_t hist)
{
    SatCounter &bi = bimodal[bimodalIndex(pc)];
    SatCounter &gs = gselect[gselectIndex(pc, hist)];
    bool bi_correct = bi.isSet() == taken;
    bool gs_correct = gs.isSet() == taken;

    // Train the selector only when the components disagree.
    if (bi_correct != gs_correct) {
        SatCounter &sel = selector[selectorIndex(pc)];
        if (gs_correct)
            sel.increment();
        else
            sel.decrement();
    }

    if (taken) {
        bi.increment();
        gs.increment();
    } else {
        bi.decrement();
        gs.decrement();
    }
}

void
BranchPredictor::pushRas(Addr return_pc)
{
    rasTop = (rasTop + 1) % ras.size();
    ras[rasTop] = return_pc;
}

Addr
BranchPredictor::popRas()
{
    Addr target = ras[rasTop];
    rasTop = (rasTop + ras.size() - 1) % ras.size();
    return target;
}

BranchPredictor::Prediction
BranchPredictor::predict(const StaticInst &inst, Addr pc)
{
    ++lookups;

    Prediction pred;
    pred.checkpoint.globalHist = globalHist;
    pred.checkpoint.rasTop = rasTop;
    pred.checkpoint.rasTopValue = ras[(rasTop + 1) % ras.size()];
    pred.checkpoint.rasValid = true;

    if (inst.isBranch()) {
        pred.taken = directionLookup(pc);
        pred.target = branchTarget(inst, pc);
        pred.targetKnown = true;
        globalHist = ((globalHist << 1) | (pred.taken ? 1 : 0)) &
                     static_cast<uint32_t>(mask(historyBits));
        return pred;
    }

    // Unconditional transfers are always taken.
    pred.taken = true;

    if (inst.isCall())
        pushRas(pc + 4);

    if (inst.isReturn()) {
        pred.target = popRas();
        pred.targetKnown = true;
        return pred;
    }

    if (!inst.isIndirect()) {
        // Direct jump: the target comes straight from the decoded
        // instruction (fetch decodes the block it reads).
        pred.target = branchTarget(inst, pc);
        pred.targetKnown = true;
        return pred;
    }

    // Indirect non-return: consult the BTB.
    const BtbEntry &entry = btb[(pc >> 2) & (btb.size() - 1)];
    if (entry.tag == pc) {
        pred.target = entry.target;
        pred.targetKnown = true;
    } else {
        ++btbMisses;
        pred.targetKnown = false;
    }
    return pred;
}

void
BranchPredictor::update(const StaticInst &inst, Addr pc, bool taken,
                        Addr target, uint32_t hist_at_predict)
{
    if (inst.isBranch()) {
        directionUpdate(pc, taken, hist_at_predict);
        return;
    }
    if (inst.isIndirect() && !inst.isReturn()) {
        BtbEntry &entry = btb[(pc >> 2) & (btb.size() - 1)];
        entry.tag = pc;
        entry.target = target;
    }
}

void
BranchPredictor::repair(const BPredCheckpoint &checkpoint)
{
    globalHist = checkpoint.globalHist;
    if (checkpoint.rasValid) {
        ras[(checkpoint.rasTop + 1) % ras.size()] =
            checkpoint.rasTopValue;
        rasTop = checkpoint.rasTop;
    }
}

void
BranchPredictor::repairAndResolve(const BPredCheckpoint &checkpoint,
                                  bool actual_taken)
{
    repair(checkpoint);
    globalHist = ((checkpoint.globalHist << 1) | (actual_taken ? 1 : 0)) &
                 static_cast<uint32_t>(mask(historyBits));
}

void
BranchPredictor::warmUpdate(const StaticInst &inst, Addr pc, bool taken,
                            Addr target)
{
    if (inst.isBranch()) {
        // Index gselect with the pre-update history, as predict would.
        directionUpdate(pc, taken, globalHist);
        globalHist = ((globalHist << 1) | (taken ? 1 : 0)) &
                     static_cast<uint32_t>(mask(historyBits));
        return;
    }
    if (inst.isCall())
        pushRas(pc + 4);
    if (inst.isReturn())
        popRas();
    update(inst, pc, taken, target, globalHist);
}

void
BranchPredictor::registerStats(stats::StatGroup &group)
{
    group.addScalar("bpred.lookups", &lookups);
    group.addScalar("bpred.mispredicted_directions",
                    &mispredictedDirections);
    group.addScalar("bpred.btb_misses", &btbMisses);
}

} // namespace cwsim
