#include "workloads/workload.hh"

#include <functional>

#include "base/logging.hh"
#include "workloads/kernels.hh"

namespace cwsim
{
namespace workloads
{

namespace
{

struct KernelMeta
{
    const char *name;
    const char *shortName;
    bool isFp;
    Program (*build)(uint64_t);
    double loadPct;
    double storePct;
    double icMillions;
    const char *samplingRatio;
};

// Table 1 of the paper, in order.
const KernelMeta kernel_table[] = {
    {"099.go", "099", false, buildGo, 20.9, 7.3, 133.8, "N/A"},
    {"124.m88ksim", "124", false, buildM88ksim, 18.8, 9.6, 196.3, "1:1"},
    {"126.gcc", "126", false, buildGcc, 24.3, 17.5, 316.9, "1:2"},
    {"129.compress", "129", false, buildCompress, 21.7, 13.5, 153.8,
     "1:2"},
    {"130.li", "130", false, buildLi, 29.6, 17.6, 206.5, "1:1"},
    {"132.ijpeg", "132", false, buildIjpeg, 17.7, 8.7, 129.6, "N/A"},
    {"134.perl", "134", false, buildPerl, 25.6, 16.6, 176.8, "1:1"},
    {"147.vortex", "147", false, buildVortex, 26.3, 27.3, 376.9, "1:2"},
    {"101.tomcatv", "101", true, buildTomcatv, 31.9, 8.8, 329.1, "1:2"},
    {"102.swim", "102", true, buildSwim, 27.0, 6.6, 188.8, "1:2"},
    {"103.su2cor", "103", true, buildSu2cor, 33.8, 10.1, 279.9, "1:3"},
    {"104.hydro2d", "104", true, buildHydro2d, 29.7, 8.2, 1128.9,
     "1:10"},
    {"107.mgrid", "107", true, buildMgrid, 46.6, 3.0, 95.0, "N/A"},
    {"110.applu", "110", true, buildApplu, 31.4, 7.9, 168.9, "1:1"},
    {"125.turb3d", "125", true, buildTurb3d, 21.3, 14.6, 1666.6,
     "1:10"},
    {"141.apsi", "141", true, buildApsi, 31.4, 13.4, 125.9, "N/A"},
    {"145.fpppp", "145", true, buildFpppp, 48.8, 17.5, 214.2, "1:2"},
    {"146.wave5", "146", true, buildWave5, 30.2, 13.0, 290.8, "1:2"},
};

} // anonymous namespace

const std::vector<std::string> &
allNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &k : kernel_table)
            v.push_back(k.name);
        return v;
    }();
    return names;
}

const std::vector<std::string> &
intNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &k : kernel_table) {
            if (!k.isFp)
                v.push_back(k.name);
        }
        return v;
    }();
    return names;
}

const std::vector<std::string> &
fpNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &k : kernel_table) {
            if (k.isFp)
                v.push_back(k.name);
        }
        return v;
    }();
    return names;
}

Workload
build(const std::string &name, uint64_t scale)
{
    fatal_if(scale < min_scale,
             "workload scale %llu is below the minimum of %llu",
             static_cast<unsigned long long>(scale),
             static_cast<unsigned long long>(min_scale));
    for (const auto &k : kernel_table) {
        if (name == k.name || name == k.shortName) {
            Workload w;
            w.name = k.name;
            w.shortName = k.shortName;
            w.isFp = k.isFp;
            w.program = k.build(scale);
            w.paperLoadPct = k.loadPct;
            w.paperStorePct = k.storePct;
            w.paperIcMillions = k.icMillions;
            w.paperSamplingRatio = k.samplingRatio;
            return w;
        }
    }
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<Workload>
buildAll(uint64_t scale)
{
    std::vector<Workload> all;
    for (const auto &k : kernel_table)
        all.push_back(build(k.name, scale));
    return all;
}

} // namespace workloads
} // namespace cwsim
