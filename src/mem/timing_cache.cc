#include "mem/timing_cache.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace cwsim
{

namespace
{

/** Number of 4-word (16-byte) transfer chunks for @p size bytes. */
Cycles
chunksFor(unsigned size)
{
    return divCeil(size, 16);
}

} // anonymous namespace

MainMemory::MainMemory(const MemConfig &cfg, EventQueue &eq)
    : eq(eq), baseLatency(cfg.memBaseLatency),
      perChunkLatency(cfg.memTransferPer4Words)
{
}

bool
MainMemory::access(Addr addr, unsigned size, bool write, MemDoneFn done)
{
    (void)addr;
    if (write)
        ++numWrites;
    else
        ++numReads;
    eq.scheduleIn(baseLatency + perChunkLatency * chunksFor(size),
                  std::move(done));
    return true;
}

TimingCache::TimingCache(const CacheConfig &cfg,
                         Cycles transfer_per_chunk, EventQueue &eq,
                         MemLevel &next)
    : cacheName(cfg.name), blockSize(cfg.blockSize),
      blockMask(cfg.blockSize - 1), numBanks(cfg.banks),
      assoc(cfg.assoc), hitLatency(cfg.hitLatency),
      transferPerChunk(transfer_per_chunk),
      primaryLimit(cfg.primaryMshrsPerBank),
      secondaryLimit(cfg.secondaryPerPrimary), eq(eq), next(next),
      useCounter(0)
{
    fatal_if(!isPowerOf2(cfg.blockSize), "%s: block size not a power of 2",
             cacheName.c_str());
    fatal_if(!isPowerOf2(cfg.banks), "%s: bank count not a power of 2",
             cacheName.c_str());
    fatal_if(cfg.assoc == 0, "%s: associativity must be at least 1",
             cacheName.c_str());
    uint64_t num_blocks = cfg.sizeBytes / cfg.blockSize;
    uint64_t num_sets = num_blocks / cfg.assoc;
    fatal_if(num_sets % cfg.banks != 0,
             "%s: sets not divisible across banks", cacheName.c_str());
    setsPerBank = static_cast<unsigned>(num_sets / cfg.banks);
    fatal_if(!isPowerOf2(setsPerBank), "%s: sets per bank not power of 2",
             cacheName.c_str());
    blockShift = floorLog2(blockSize);
    bankMask = numBanks - 1;
    setShift = blockShift + floorLog2(numBanks);
    setMask = setsPerBank - 1;
    lines.assign(num_blocks, Line{});
    bankBusyUntil.assign(numBanks, 0);
    primaryPerBank.assign(numBanks, 0);
}

bool
TimingCache::isResident(Addr addr) const
{
    Addr block = blockAddr(addr);
    unsigned bank = bankOf(block);
    unsigned set = setOf(block);
    size_t base = (static_cast<size_t>(bank) * setsPerBank + set) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == block)
            return true;
    }
    return false;
}

TimingCache::Line &
TimingCache::fillLine(Addr block, bool write)
{
    unsigned bank = bankOf(block);
    unsigned set = setOf(block);
    size_t base = (static_cast<size_t>(bank) * setsPerBank + set) * assoc;

    // Reuse an invalid way or the LRU way.
    Line *victim = &lines[base];
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = block;
    victim->dirty = write;
    victim->lastUse = ++useCounter;
    return *victim;
}

bool
TimingCache::access(Addr addr, unsigned size, bool write, MemDoneFn done)
{
    Addr block = blockAddr(addr);
    unsigned bank = bankOf(block);
    unsigned set = setOf(block);

    // One access per bank per cycle.
    if (bankBusyUntil[bank] > eq.curTick()) {
        ++bankRejects;
        return false;
    }

    size_t base = (static_cast<size_t>(bank) * setsPerBank + set) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == block) {
            line.lastUse = ++useCounter;
            line.dirty = line.dirty || write;
            ++hits;
            bankBusyUntil[bank] = eq.curTick() + 1;
            eq.scheduleIn(hitLatency + transferPerChunk * chunksFor(size),
                          std::move(done));
            return true;
        }
    }

    // Miss: merge into an existing MSHR if one tracks this block.
    auto it = mshrs.find(block);
    if (it != mshrs.end()) {
        if (it->second.targets.size() >= 1 + secondaryLimit) {
            ++mshrRejects;
            return false;
        }
        it->second.targets.push_back(std::move(done));
        it->second.write = it->second.write || write;
        ++mshrMerges;
        ++misses;
        bankBusyUntil[bank] = eq.curTick() + 1;
        return true;
    }

    // New primary miss.
    if (primaryPerBank[bank] >= primaryLimit) {
        ++mshrRejects;
        return false;
    }
    ++misses;
    bankBusyUntil[bank] = eq.curTick() + 1;
    ++primaryPerBank[bank];
    Mshr &mshr = mshrs[block];
    mshr.bank = bank;
    mshr.write = write;
    mshr.targets.push_back(std::move(done));
    issueToNext(block, write);
    return true;
}

void
TimingCache::issueToNext(Addr block, bool write)
{
    bool accepted = next.access(
        block, blockSize, write, [this, block]() { handleFill(block); });
    if (!accepted) {
        // Next level is saturated; retry on the next cycle.
        eq.scheduleIn(1, [this, block, write]() {
            if (mshrs.count(block))
                issueToNext(block, write);
        });
    }
}

void
TimingCache::handleFill(Addr block)
{
    auto it = mshrs.find(block);
    panic_if(it == mshrs.end(), "%s: fill for unknown block %llx",
             cacheName.c_str(), static_cast<unsigned long long>(block));

    Mshr mshr = std::move(it->second);
    mshrs.erase(it);
    panic_if(primaryPerBank[mshr.bank] == 0, "MSHR accounting underflow");
    --primaryPerBank[mshr.bank];

    fillLine(block, mshr.write);
    ++fills;

    for (MemDoneFn &target : mshr.targets)
        eq.scheduleIn(0, std::move(target));
}

void
TimingCache::probeWarm(Addr addr, bool write)
{
    Addr block = blockAddr(addr);
    unsigned bank = bankOf(block);
    unsigned set = setOf(block);
    size_t base = (static_cast<size_t>(bank) * setsPerBank + set) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == block) {
            line.lastUse = ++useCounter;
            line.dirty = line.dirty || write;
            return;
        }
    }
    fillLine(block, write);
}

void
TimingCache::registerStats(stats::StatGroup &group)
{
    group.addScalar(cacheName + ".hits", &hits);
    group.addScalar(cacheName + ".misses", &misses);
    group.addScalar(cacheName + ".mshr_merges", &mshrMerges);
    group.addScalar(cacheName + ".bank_rejects", &bankRejects);
    group.addScalar(cacheName + ".mshr_rejects", &mshrRejects);
    group.addScalar(cacheName + ".fills", &fills);
}

MemorySystem::MemorySystem(const MemConfig &cfg, EventQueue &eq)
    : mainMem(cfg, eq),
      l2(cfg.l2, cfg.l2TransferPer4Words, eq, mainMem),
      dcache(cfg.dcache, 0, eq, l2),
      icache(cfg.icache, 0, eq, l2),
      dcacheBlockSize(cfg.dcache.blockSize),
      icacheBlockSize(cfg.icache.blockSize)
{
}

void
MemorySystem::warmData(Addr addr, bool write)
{
    if (!dcache.isResident(addr) && !l2.isResident(addr))
        l2.probeWarm(addr, write);
    dcache.probeWarm(addr, write);
}

void
MemorySystem::warmInst(Addr addr)
{
    if (!icache.isResident(addr) && !l2.isResident(addr))
        l2.probeWarm(addr, false);
    icache.probeWarm(addr, false);
}

void
MemorySystem::registerStats(stats::StatGroup &group)
{
    icache.registerStats(group);
    dcache.registerStats(group);
    l2.registerStats(group);
    group.addScalar("mem.reads", &mainMem.numReads);
    group.addScalar("mem.writes", &mainMem.numWrites);
}

} // namespace cwsim
