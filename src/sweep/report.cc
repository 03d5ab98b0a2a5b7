#include "sweep/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "obs/cpi_stack.hh"
#include "sim/table.hh"
#include "sweep/run_cache.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace sweep
{

namespace
{

// ---------------------------------------------------------------------
// Format-agnostic section/table model. The report is assembled once
// and rendered as markdown or HTML from the same data, so the two
// formats cannot drift apart.
// ---------------------------------------------------------------------

struct Table
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    /** Optional note rendered after the table (dropped-row counts). */
    std::string footer;
};

/**
 * Apply the --top row cap: keep the first @p top rows and record what
 * was cut in the footer, so a capped table can never be mistaken for
 * the whole population. @p top == 0 means unlimited.
 */
void
capRows(Table &t, size_t top)
{
    if (top == 0 || t.rows.size() <= top)
        return;
    size_t dropped = t.rows.size() - top;
    t.rows.resize(top);
    t.footer = strfmt("%zu more row(s) dropped; raise --top to see "
                      "them.", dropped);
}

struct Section
{
    std::string title;
    std::vector<std::string> paragraphs;
    std::vector<Table> tables;
};

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

void
renderTableMd(std::ostringstream &os, const Table &t)
{
    os << "|";
    for (const auto &h : t.header)
        os << " " << h << " |";
    os << "\n|";
    for (size_t i = 0; i < t.header.size(); ++i)
        os << (i == 0 ? " :--- |" : " ---: |");
    os << "\n";
    for (const auto &row : t.rows) {
        os << "|";
        for (const auto &cell : row)
            os << " " << cell << " |";
        os << "\n";
    }
    if (!t.footer.empty())
        os << "\n_" << t.footer << "_\n";
    os << "\n";
}

void
renderTableHtml(std::ostringstream &os, const Table &t)
{
    os << "<table>\n<tr>";
    for (const auto &h : t.header)
        os << "<th>" << htmlEscape(h) << "</th>";
    os << "</tr>\n";
    for (const auto &row : t.rows) {
        os << "<tr>";
        for (const auto &cell : row)
            os << "<td>" << htmlEscape(cell) << "</td>";
        os << "</tr>\n";
    }
    os << "</table>\n";
    if (!t.footer.empty())
        os << "<p><em>" << htmlEscape(t.footer) << "</em></p>\n";
}

std::string
render(const std::string &title, const std::vector<Section> &sections,
       ReportFormat format)
{
    std::ostringstream os;
    if (format == ReportFormat::Html) {
        os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
           << "<title>" << htmlEscape(title) << "</title>\n"
           << "<style>body{font-family:sans-serif;margin:2em}"
           << "table{border-collapse:collapse;margin:1em 0}"
           << "th,td{border:1px solid #999;padding:2px 8px;"
           << "text-align:right}"
           << "th:first-child,td:first-child{text-align:left}"
           << "</style></head><body>\n"
           << "<h1>" << htmlEscape(title) << "</h1>\n";
        for (const Section &s : sections) {
            os << "<h2>" << htmlEscape(s.title) << "</h2>\n";
            for (const auto &p : s.paragraphs)
                os << "<p>" << htmlEscape(p) << "</p>\n";
            for (const Table &t : s.tables)
                renderTableHtml(os, t);
        }
        os << "</body></html>\n";
    } else {
        os << "# " << title << "\n\n";
        for (const Section &s : sections) {
            os << "## " << s.title << "\n\n";
            for (const auto &p : s.paragraphs)
                os << p << "\n\n";
            for (const Table &t : s.tables)
                renderTableMd(os, t);
        }
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Report assembly helpers.
// ---------------------------------------------------------------------

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

/** Quiet geomean over positive finite entries (NaN when none). */
double
quietGeomean(const std::vector<double> &values)
{
    double log_sum = 0;
    size_t used = 0;
    for (double v : values) {
        if (std::isfinite(v) && v > 0) {
            log_sum += std::log(v);
            ++used;
        }
    }
    return used ? std::exp(log_sum / used) : nan_v;
}

std::string
fmtIpc(double ipc)
{
    return std::isnan(ipc) ? "n/a" : strfmt("%.3f", ipc);
}

std::string
fmtRatio(double ratio)
{
    if (std::isnan(ratio))
        return "n/a";
    return strfmt("%+.1f%%", (ratio - 1.0) * 100.0);
}

std::string
fmtPct(double fraction, int decimals = 1)
{
    if (std::isnan(fraction))
        return "n/a";
    return strfmt("%.*f%%", decimals, fraction * 100.0);
}

/** The per-key latest record, preserving first-appearance orders. */
struct RecordIndex
{
    std::vector<std::string> workloads; ///< First-appearance order.
    std::vector<std::string> configs;   ///< First-appearance order.
    /** (workload, config) -> latest record. */
    std::map<std::pair<std::string, std::string>,
             const ReportRecord *> byKey;

    const ReportRecord *
    find(const std::string &w, const std::string &c) const
    {
        auto it = byKey.find({w, c});
        return it == byKey.end() ? nullptr : it->second;
    }

    double
    ipc(const std::string &w, const std::string &c) const
    {
        const ReportRecord *r = find(w, c);
        return r ? r->run.ipc() : nan_v;
    }

    bool
    hasConfig(const std::string &c) const
    {
        return std::find(configs.begin(), configs.end(), c) !=
               configs.end();
    }
};

RecordIndex
indexRecords(const std::vector<ReportRecord> &records)
{
    RecordIndex idx;
    for (const ReportRecord &r : records) {
        auto key = std::make_pair(r.run.workload, r.run.config);
        if (!idx.byKey.count(key)) {
            if (std::find(idx.workloads.begin(), idx.workloads.end(),
                          r.run.workload) == idx.workloads.end()) {
                idx.workloads.push_back(r.run.workload);
            }
            if (!idx.hasConfig(r.run.config))
                idx.configs.push_back(r.run.config);
        }
        idx.byKey[key] = &r; // later records win
    }
    return idx;
}

/** Geomean rows (int / fp / all) for a vector-valued ratio column. */
std::vector<double>
ratios(const RecordIndex &idx, const std::vector<std::string> &names,
       const std::string &num_cfg, const std::string &den_cfg)
{
    std::vector<double> out;
    for (const auto &w : names) {
        double num = idx.ipc(w, num_cfg);
        double den = idx.ipc(w, den_cfg);
        out.push_back(den > 0 ? num / den : nan_v);
    }
    return out;
}

/** Workloads of @p group that appear in the index, index order. */
std::vector<std::string>
presentOf(const RecordIndex &idx, const std::vector<std::string> &group)
{
    std::vector<std::string> out;
    for (const auto &w : idx.workloads) {
        if (std::find(group.begin(), group.end(), w) != group.end())
            out.push_back(w);
    }
    return out;
}

void
addSpeedupSummaryRows(Table &t, const RecordIndex &idx,
                      const std::vector<std::string> &num_cfgs,
                      const std::string &den_cfg, size_t lead_cols)
{
    struct Group { const char *label; std::vector<std::string> names; };
    std::vector<Group> groups = {
        {"geomean (int)", presentOf(idx, workloads::intNames())},
        {"geomean (fp)", presentOf(idx, workloads::fpNames())},
        {"geomean (all)", idx.workloads},
    };
    for (const Group &g : groups) {
        if (g.names.empty())
            continue;
        std::vector<std::string> row = {g.label};
        for (size_t i = 1; i < lead_cols; ++i)
            row.push_back("");
        for (const auto &cfg : num_cfgs) {
            row.push_back(
                fmtRatio(quietGeomean(ratios(idx, g.names, cfg,
                                             den_cfg))));
        }
        t.rows.push_back(std::move(row));
    }
}

// ---------------------------------------------------------------------
// Dependence-profile rendering helpers (schema v5 / .depprof.jsonl).
// ---------------------------------------------------------------------

std::string
fmtU64(uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

std::string
fmtPc(Addr pc)
{
    return strfmt("0x%llx", static_cast<unsigned long long>(pc));
}

/** One decoded dep_hot_edges entry. */
struct HotEdge
{
    Addr storePc = 0;
    Addr loadPc = 0;
    uint64_t violations = 0;
    uint64_t syncs = 0;
};

/** A "0x<hex>" PC. */
bool
parsePc(std::string_view text, Addr &out)
{
    return text.size() > 2 && text[0] == '0' && text[1] == 'x' &&
           parseUnsigned(text.substr(2), out, 16);
}

/**
 * Decode a dep_hot_edges field ("0xS-0xL:viol:syncs;..."). Entries
 * that fail to parse are skipped — a record written by a future
 * encoding degrades to fewer rows, never to a broken report.
 */
std::vector<HotEdge>
parseHotEdges(const std::string &text)
{
    std::vector<HotEdge> out;
    for (const std::string &item : split(text, ';')) {
        std::vector<std::string> f = split(item, ':');
        if (f.size() != 3)
            continue;
        std::string_view pcs = f[0];
        size_t dash = pcs.find('-');
        HotEdge e;
        if (dash == std::string_view::npos ||
            !parsePc(pcs.substr(0, dash), e.storePc) ||
            !parsePc(pcs.substr(dash + 1), e.loadPc) ||
            !parseUnsigned(f[1], e.violations) ||
            !parseUnsigned(f[2], e.syncs)) {
            continue;
        }
        out.push_back(e);
    }
    return out;
}

/** Non-empty distance buckets as "label:count, ..." ("-" when none). */
std::string
fmtDistHistogram(const std::array<uint64_t, obs::dep_dist_buckets> &d)
{
    std::string out;
    for (size_t b = 0; b < obs::dep_dist_buckets; ++b) {
        if (d[b] == 0)
            continue;
        out += (out.empty() ? "" : ", ") + obs::depDistBucketLabel(b) +
               ":" + fmtU64(d[b]);
    }
    return out.empty() ? "-" : out;
}

/**
 * The hot-edge and per-PC sections appended to a sweep report when any
 * record carries a schema-v5 dependence-profile summary.
 */
void
addDepSections(std::vector<Section> &sections, const RecordIndex &idx,
               size_t top)
{
    size_t profiled = 0;
    for (const auto &[key, rec] : idx.byKey) {
        if (rec->run.depProfiled)
            ++profiled;
    }
    if (profiled == 0)
        return;

    // ---- Per-config hot edges ---------------------------------------
    {
        Section s;
        s.title = "Hot dependence edges";
        s.paragraphs.push_back(strfmt(
            "%zu run(s) carry a dependence-profile summary (collected "
            "under --depprof / CWSIM_DEPPROF). Each table lists the "
            "config's hottest (store PC, load PC) edges by violation "
            "count; full per-PC detail is in the run's .depprof.jsonl "
            "file.", profiled));
        for (const auto &cfg : idx.configs) {
            struct Row { std::string w; HotEdge e; };
            std::vector<Row> rows;
            for (const auto &w : idx.workloads) {
                const ReportRecord *r = idx.find(w, cfg);
                if (!r || !r->run.depProfiled)
                    continue;
                for (const HotEdge &e :
                     parseHotEdges(r->run.depHotEdges))
                    rows.push_back({w, e});
            }
            if (rows.empty())
                continue;
            std::sort(rows.begin(), rows.end(),
                      [](const Row &a, const Row &b) {
                          return std::tie(b.e.violations, b.e.syncs,
                                          a.w, a.e.storePc,
                                          a.e.loadPc) <
                                 std::tie(a.e.violations, a.e.syncs,
                                          b.w, b.e.storePc,
                                          b.e.loadPc);
                      });
            Table t;
            t.header = {cfg, "store PC", "load PC", "violations",
                        "syncs"};
            for (const Row &r : rows) {
                t.rows.push_back({r.w, fmtPc(r.e.storePc),
                                  fmtPc(r.e.loadPc),
                                  fmtU64(r.e.violations),
                                  fmtU64(r.e.syncs)});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        }
        if (s.tables.empty()) {
            s.paragraphs.push_back(
                "The profiled runs recorded no hot edges (no "
                "violations or synchronizations attributed).");
        }
        sections.push_back(std::move(s));
    }

    // ---- Sweep-level per-PC aggregation -----------------------------
    {
        struct PcAgg
        {
            uint64_t violations = 0;
            uint64_t syncs = 0;
            size_t runs = 0;
        };
        std::map<Addr, PcAgg> storeAgg, loadAgg;
        for (const auto &[key, rec] : idx.byKey) {
            if (!rec->run.depProfiled)
                continue;
            std::map<Addr, PcAgg> sLocal, lLocal;
            for (const HotEdge &e :
                 parseHotEdges(rec->run.depHotEdges)) {
                PcAgg &sa = sLocal[e.storePc];
                sa.violations += e.violations;
                sa.syncs += e.syncs;
                PcAgg &la = lLocal[e.loadPc];
                la.violations += e.violations;
                la.syncs += e.syncs;
            }
            for (const auto &[pc, a] : sLocal) {
                PcAgg &g = storeAgg[pc];
                g.violations += a.violations;
                g.syncs += a.syncs;
                ++g.runs;
            }
            for (const auto &[pc, a] : lLocal) {
                PcAgg &g = loadAgg[pc];
                g.violations += a.violations;
                g.syncs += a.syncs;
                ++g.runs;
            }
        }
        if (storeAgg.empty() && loadAgg.empty())
            return;

        struct PcRow { Addr pc; const char *role; PcAgg a; };
        std::vector<PcRow> rows;
        for (const auto &[pc, a] : loadAgg)
            rows.push_back({pc, "load", a});
        for (const auto &[pc, a] : storeAgg)
            rows.push_back({pc, "store", a});
        std::sort(rows.begin(), rows.end(),
                  [](const PcRow &a, const PcRow &b) {
                      if (a.a.violations != b.a.violations)
                          return a.a.violations > b.a.violations;
                      if (a.a.syncs != b.a.syncs)
                          return a.a.syncs > b.a.syncs;
                      int role = std::strcmp(a.role, b.role);
                      if (role != 0)
                          return role < 0;
                      return a.pc < b.pc;
                  });

        Section s;
        s.title = "Dependence hot spots by static PC";
        s.paragraphs.push_back(
            "Hot-edge violation and synchronization counts summed per "
            "static instruction across every profiled run in the "
            "sweep; \"runs\" is how many profiled runs involve the "
            "PC in that role.");
        Table t;
        t.header = {"static PC", "role", "violations", "syncs",
                    "runs"};
        for (const PcRow &r : rows) {
            t.rows.push_back({fmtPc(r.pc), r.role,
                              fmtU64(r.a.violations),
                              fmtU64(r.a.syncs), fmtU64(r.a.runs)});
        }
        capRows(t, top);
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }
}

} // anonymous namespace

bool
loadRunRecords(const std::string &path, std::vector<ReportRecord> &out,
               std::string *err, size_t *rejected)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = strfmt("cannot open %s", path.c_str());
        return false;
    }
    size_t bad = 0;
    size_t loaded = out.size();
    std::set<uint64_t> oldVersions;
    std::string line;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        std::map<std::string, std::string> fields;
        ReportRecord rec;
        uint64_t fp = 0;
        if (!parseFlatJson(line, fields) ||
            !runRecordParseWithEnvelope(fields, rec.run, fp,
                                        rec.scale)) {
            auto v = fields.find("v");
            uint64_t version = 0;
            if (v != fields.end() && parseUnsigned(v->second, version) &&
                version < run_record_version) {
                oldVersions.insert(version);
            }
            ++bad;
            continue;
        }
        rec.fp = strfmt("%016llx", static_cast<unsigned long long>(fp));
        out.push_back(std::move(rec));
    }
    if (rejected)
        *rejected = bad;
    if (out.size() == loaded && !oldVersions.empty()) {
        std::string names;
        for (uint64_t version : oldVersions) {
            names += strfmt("%sv%llu", names.empty() ? "" : ", ",
                            static_cast<unsigned long long>(version));
        }
        if (err) {
            *err = strfmt("%s: schema %s records are no longer read "
                          "(this build reads v%u only)",
                          path.c_str(), names.c_str(),
                          run_record_version);
        }
        return false;
    }
    return true;
}

std::string
renderReport(const std::vector<ReportRecord> &records,
             ReportFormat format, size_t top)
{
    RecordIndex idx = indexRecords(records);
    std::vector<Section> sections;

    // ---- Summary -----------------------------------------------------
    {
        Section s;
        s.title = "Summary";
        size_t failed = 0;
        std::vector<uint64_t> scales;
        for (const auto &[key, rec] : idx.byKey) {
            if (!rec->run.ok)
                ++failed;
            if (std::find(scales.begin(), scales.end(), rec->scale) ==
                scales.end()) {
                scales.push_back(rec->scale);
            }
        }
        std::sort(scales.begin(), scales.end());
        std::string scale_txt;
        for (uint64_t sc : scales) {
            scale_txt += (scale_txt.empty() ? "" : ", ") +
                         strfmt("%llu",
                                static_cast<unsigned long long>(sc));
        }
        s.paragraphs.push_back(strfmt(
            "%zu run record(s): %zu workload(s) x %zu config(s), "
            "scale(s) %s, %zu failed run(s).",
            idx.byKey.size(), idx.workloads.size(), idx.configs.size(),
            scale_txt.c_str(), failed));
        sections.push_back(std::move(s));
    }

    // ---- IPC matrix --------------------------------------------------
    {
        Section s;
        s.title = "IPC by configuration";
        Table t;
        t.header.push_back("workload");
        for (const auto &cfg : idx.configs)
            t.header.push_back(cfg);
        for (const auto &w : idx.workloads) {
            std::vector<std::string> row = {w};
            for (const auto &cfg : idx.configs) {
                const ReportRecord *r = idx.find(w, cfg);
                if (!r)
                    row.push_back("-");
                else if (!r->run.ok)
                    row.push_back("FAILED");
                else
                    row.push_back(fmtIpc(r->run.ipc()));
            }
            t.rows.push_back(std::move(row));
        }
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }

    // ---- Figure 2: naive speculation vs no speculation vs oracle ----
    if (idx.hasConfig("NAS/NO") && idx.hasConfig("NAS/NAV") &&
        idx.hasConfig("NAS/ORACLE")) {
        Section s;
        s.title = "Figure 2: naive memory-dependence speculation";
        s.paragraphs.push_back(
            "Naive speculation (NAV) and the oracle relative to no "
            "speculation (NO) on the NAS machine; \"gap to ORACLE\" is "
            "how much of the remaining headroom NAV leaves on the "
            "table, and misspec is violations per committed load.");
        Table t;
        t.header = {"program", "NAS/NO", "NAS/NAV", "NAS/ORACLE",
                    "NAV/NO", "ORACLE/NO", "gap to ORACLE",
                    "NAV misspec"};
        for (const auto &w : idx.workloads) {
            double no = idx.ipc(w, "NAS/NO");
            double nav = idx.ipc(w, "NAS/NAV");
            double oracle = idx.ipc(w, "NAS/ORACLE");
            const ReportRecord *nav_r = idx.find(w, "NAS/NAV");
            t.rows.push_back(
                {w, fmtIpc(no), fmtIpc(nav), fmtIpc(oracle),
                 fmtRatio(no > 0 ? nav / no : nan_v),
                 fmtRatio(no > 0 ? oracle / no : nan_v),
                 fmtRatio(nav > 0 ? oracle / nav : nan_v),
                 nav_r ? fmtPct(nav_r->run.misspecRate(), 2) : "n/a"});
        }
        addSpeedupSummaryRows(t, idx, {"NAS/NAV", "NAS/ORACLE"},
                              "NAS/NO", 4);
        // The summary rows only fill the two speedup-over-NO columns;
        // pad the remainder so every row has the same width.
        for (auto &row : t.rows) {
            while (row.size() < t.header.size())
                row.push_back("");
        }
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }

    // ---- Figure 5: selective speculation and store barriers ---------
    if (idx.hasConfig("NAS/SEL") && idx.hasConfig("NAS/STORE") &&
        idx.hasConfig("NAS/NAV")) {
        Section s;
        s.title = "Figure 5: intelligent speculation (SEL, STORE)";
        s.paragraphs.push_back(
            "Selective speculation and store barriers relative to "
            "naive speculation. Misspec columns show how much "
            "miss-speculation each policy eliminates.");
        Table t;
        bool have_oracle = idx.hasConfig("NAS/ORACLE");
        t.header = {"program", "SEL/NAV", "STORE/NAV"};
        if (have_oracle)
            t.header.push_back("ORACLE/NAV");
        t.header.push_back("NAV misspec");
        t.header.push_back("SEL misspec");
        t.header.push_back("STORE misspec");
        for (const auto &w : idx.workloads) {
            double nav = idx.ipc(w, "NAS/NAV");
            std::vector<std::string> row = {
                w,
                fmtRatio(nav > 0 ? idx.ipc(w, "NAS/SEL") / nav : nan_v),
                fmtRatio(nav > 0 ? idx.ipc(w, "NAS/STORE") / nav
                                 : nan_v)};
            if (have_oracle) {
                row.push_back(fmtRatio(
                    nav > 0 ? idx.ipc(w, "NAS/ORACLE") / nav : nan_v));
            }
            for (const char *cfg :
                 {"NAS/NAV", "NAS/SEL", "NAS/STORE"}) {
                const ReportRecord *r = idx.find(w, cfg);
                row.push_back(r ? fmtPct(r->run.misspecRate(), 2)
                                : "n/a");
            }
            t.rows.push_back(std::move(row));
        }
        std::vector<std::string> nums = {"NAS/SEL", "NAS/STORE"};
        if (have_oracle)
            nums.push_back("NAS/ORACLE");
        addSpeedupSummaryRows(t, idx, nums, "NAS/NAV", 1);
        for (auto &row : t.rows) {
            while (row.size() < t.header.size())
                row.push_back("");
        }
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }

    // ---- Figure 6: speculation + synchronization --------------------
    if (idx.hasConfig("NAS/SYNC") && idx.hasConfig("NAS/NAV")) {
        Section s;
        s.title = "Figure 6: speculation + synchronization (SYNC)";
        s.paragraphs.push_back(
            "SYNC relative to naive speculation, against the oracle "
            "ceiling; \"captured\" is the fraction of the "
            "NAV-to-ORACLE gap that synchronization recovers.");
        Table t;
        bool have_oracle = idx.hasConfig("NAS/ORACLE");
        t.header = {"program", "SYNC/NAV"};
        if (have_oracle) {
            t.header.push_back("ORACLE/NAV");
            t.header.push_back("captured");
        }
        for (const auto &w : idx.workloads) {
            double nav = idx.ipc(w, "NAS/NAV");
            double sync = idx.ipc(w, "NAS/SYNC");
            std::vector<std::string> row = {
                w, fmtRatio(nav > 0 ? sync / nav : nan_v)};
            if (have_oracle) {
                double oracle = idx.ipc(w, "NAS/ORACLE");
                row.push_back(
                    fmtRatio(nav > 0 ? oracle / nav : nan_v));
                double gap = oracle - nav;
                row.push_back(gap > 0 ? fmtPct((sync - nav) / gap)
                                      : "n/a");
            }
            t.rows.push_back(std::move(row));
        }
        std::vector<std::string> nums = {"NAS/SYNC"};
        if (have_oracle)
            nums.push_back("NAS/ORACLE");
        addSpeedupSummaryRows(t, idx, nums, "NAS/NAV", 1);
        for (auto &row : t.rows) {
            while (row.size() < t.header.size())
                row.push_back("");
        }
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }

    // ---- CPI stacks --------------------------------------------------
    {
        // One table per config: rows are workloads, columns the
        // causes that are nonzero anywhere under that config (plus
        // "committed", always).
        Section s;
        s.title = "CPI stacks (commit-slot loss breakdown)";
        s.paragraphs.push_back(
            "Each cell is the share of commit slots (cycles x "
            "commitWidth) attributed to a cause; rows sum to 100%.");
        for (const auto &cfg : idx.configs) {
            std::vector<obs::CpiCause> causes;
            for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
                auto cause = obs::CpiCause(i);
                bool nonzero = cause == obs::CpiCause::Committed;
                for (const auto &w : idx.workloads) {
                    const ReportRecord *r = idx.find(w, cfg);
                    if (r && r->run.ok && r->run.cpiSlots[i] > 0) {
                        nonzero = true;
                        break;
                    }
                }
                if (nonzero)
                    causes.push_back(cause);
            }

            Table t;
            t.header.push_back(cfg);
            for (auto cause : causes)
                t.header.push_back(obs::toString(cause));
            for (const auto &w : idx.workloads) {
                const ReportRecord *r = idx.find(w, cfg);
                if (!r || !r->run.ok)
                    continue;
                std::vector<std::string> row = {w};
                for (auto cause : causes)
                    row.push_back(fmtPct(r->run.cpiFraction(cause)));
                t.rows.push_back(std::move(row));
            }
            if (!t.rows.empty())
                s.tables.push_back(std::move(t));
        }
        if (s.tables.empty()) {
            s.paragraphs.push_back(
                "No records with CPI-stack data in this file.");
        }
        sections.push_back(std::move(s));
    }

    // ---- Dependence profiles (schema v5) -----------------------------
    addDepSections(sections, idx, top);

    // ---- Failed runs -------------------------------------------------
    {
        Table t;
        t.header = {"workload", "config", "kind", "error"};
        for (const auto &[key, rec] : idx.byKey) {
            if (!rec->run.ok) {
                std::string kind = rec->run.failLabel();
                if (rec->run.injectedHostFault)
                    kind += " [injected]";
                t.rows.push_back(
                    {rec->run.workload, rec->run.config,
                     std::move(kind), rec->run.error});
            }
        }
        if (!t.rows.empty()) {
            capRows(t, top);
            Section s;
            s.title = "Failed runs";
            s.tables.push_back(std::move(t));
            sections.push_back(std::move(s));
        }
    }

    return render("cwsim sweep report", sections, format);
}

std::string
renderDepProfile(const mdp::DepProfileFile &profile,
                 ReportFormat format, size_t top)
{
    std::vector<Section> sections;

    // ---- Profile summary --------------------------------------------
    {
        Section s;
        s.title = "Profile summary";
        s.paragraphs.push_back(strfmt(
            "%zu validated run block(s).", profile.runs().size()));
        Table t;
        t.header = {"run", "sim", "load PCs", "store PCs", "edges",
                    "MDPT PCs", "MDPT samples"};
        for (const mdp::DepProfileRun &r : profile.runs()) {
            t.rows.push_back({r.run, r.sim, fmtU64(r.loads.size()),
                              fmtU64(r.stores.size()),
                              fmtU64(r.edges.size()),
                              fmtU64(r.mdpt.size()),
                              fmtU64(r.mdptSamples.size())});
        }
        capRows(t, top);
        s.tables.push_back(std::move(t));
        sections.push_back(std::move(s));
    }

    for (const mdp::DepProfileRun &run : profile.runs()) {
        Section s;
        s.title = strfmt("Run: %s (%s)", run.run.c_str(),
                         run.sim.c_str());

        // ---- Hot edges with distance histograms ---------------------
        if (!run.edges.empty()) {
            struct Row
            {
                obs::DepEdgeKey key;
                const obs::DepEdgeCounters *e;
            };
            std::vector<Row> rows;
            for (const auto &[key, e] : run.edges)
                rows.push_back({key, &e});
            std::sort(rows.begin(), rows.end(),
                      [](const Row &a, const Row &b) {
                          uint64_t av = a.e->violations.value();
                          uint64_t bv = b.e->violations.value();
                          if (av != bv)
                              return av > bv;
                          uint64_t as = a.e->syncs.value();
                          uint64_t bs = b.e->syncs.value();
                          if (as != bs)
                              return as > bs;
                          return a.key < b.key;
                      });
            Table t;
            t.header = {"store PC", "load PC", "violations", "syncs",
                        "full", "partial", "window distance"};
            for (const Row &r : rows) {
                t.rows.push_back(
                    {fmtPc(r.key.first), fmtPc(r.key.second),
                     fmtU64(r.e->violations.value()),
                     fmtU64(r.e->syncs.value()),
                     fmtU64(r.e->fullOverlaps.value()),
                     fmtU64(r.e->partialOverlaps.value()),
                     fmtDistHistogram(r.e->dist)});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        } else {
            s.paragraphs.push_back("No dependence edges recorded.");
        }

        // ---- Most-involved load PCs ---------------------------------
        if (!run.loads.empty()) {
            struct Row
            {
                Addr pc;
                const obs::DepLoadCounters *c;
            };
            std::vector<Row> rows;
            for (const auto &[pc, c] : run.loads)
                rows.push_back({pc, &c});
            // "Involved" = touched by the dependence machinery at all;
            // rank by violations, then total held cycles, then volume.
            auto held = [](const obs::DepLoadCounters &c) {
                return c.syncWaits.value() + c.selHolds.value() +
                       c.barrierHolds.value();
            };
            std::sort(rows.begin(), rows.end(),
                      [&](const Row &a, const Row &b) {
                          uint64_t av = a.c->violations.value();
                          uint64_t bv = b.c->violations.value();
                          if (av != bv)
                              return av > bv;
                          uint64_t ah = held(*a.c), bh = held(*b.c);
                          if (ah != bh)
                              return ah > bh;
                          uint64_t ae = a.c->execs.value();
                          uint64_t be = b.c->execs.value();
                          if (ae != be)
                              return ae > be;
                          return a.pc < b.pc;
                      });
            Table t;
            t.header = {"load PC", "execs", "forwards", "replays",
                        "violations", "sync waits", "sel holds",
                        "barrier holds", "false dep", "stall cyc",
                        "true dep", "commits"};
            for (const Row &r : rows) {
                t.rows.push_back(
                    {fmtPc(r.pc), fmtU64(r.c->execs.value()),
                     fmtU64(r.c->forwards.value()),
                     fmtU64(r.c->replays.value()),
                     fmtU64(r.c->violations.value()),
                     fmtU64(r.c->syncWaits.value()),
                     fmtU64(r.c->selHolds.value()),
                     fmtU64(r.c->barrierHolds.value()),
                     fmtU64(r.c->falseDepLoads.value()),
                     fmtU64(r.c->falseDepCycles.value()),
                     fmtU64(r.c->trueDepLoads.value()),
                     fmtU64(r.c->commits.value())});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        }

        // ---- Most-involved store PCs --------------------------------
        if (!run.stores.empty()) {
            struct Row
            {
                Addr pc;
                const obs::DepStoreCounters *c;
            };
            std::vector<Row> rows;
            for (const auto &[pc, c] : run.stores)
                rows.push_back({pc, &c});
            std::sort(rows.begin(), rows.end(),
                      [](const Row &a, const Row &b) {
                          uint64_t av = a.c->violationsCaused.value();
                          uint64_t bv = b.c->violationsCaused.value();
                          if (av != bv)
                              return av > bv;
                          uint64_t ac = a.c->commits.value();
                          uint64_t bc = b.c->commits.value();
                          if (ac != bc)
                              return ac > bc;
                          return a.pc < b.pc;
                      });
            Table t;
            t.header = {"store PC", "commits", "violations caused",
                        "barriers", "sync produces"};
            for (const Row &r : rows) {
                t.rows.push_back(
                    {fmtPc(r.pc), fmtU64(r.c->commits.value()),
                     fmtU64(r.c->violationsCaused.value()),
                     fmtU64(r.c->barriers.value()),
                     fmtU64(r.c->syncProduces.value())});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        }

        // ---- MDPT per-PC introspection ------------------------------
        if (!run.mdpt.empty()) {
            struct Row
            {
                Addr pc;
                const obs::DepMdptCounters *c;
            };
            std::vector<Row> rows;
            for (const auto &[pc, c] : run.mdpt)
                rows.push_back({pc, &c});
            std::sort(rows.begin(), rows.end(),
                      [](const Row &a, const Row &b) {
                          uint64_t am = a.c->missSpecs.value();
                          uint64_t bm = b.c->missSpecs.value();
                          if (am != bm)
                              return am > bm;
                          uint64_t aa = a.c->allocs.value();
                          uint64_t ba = b.c->allocs.value();
                          if (aa != ba)
                              return aa > ba;
                          return a.pc < b.pc;
                      });
            Table t;
            t.header = {"MDPT PC", "allocs", "evicts", "pairs",
                        "merges", "miss specs"};
            for (const Row &r : rows) {
                t.rows.push_back(
                    {fmtPc(r.pc), fmtU64(r.c->allocs.value()),
                     fmtU64(r.c->evicts.value()),
                     fmtU64(r.c->pairs.value()),
                     fmtU64(r.c->merges.value()),
                     fmtU64(r.c->missSpecs.value())});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        }

        // ---- MDPT occupancy/confidence trajectory -------------------
        if (!run.mdptSamples.empty()) {
            Table t;
            t.header = {"cycle", "occupancy", "mean confidence"};
            for (const obs::DepMdptSample &ms : run.mdptSamples) {
                t.rows.push_back({fmtU64(ms.cycle),
                                  fmtU64(ms.occupancy),
                                  strfmt("%.3f", ms.meanConfidence)});
            }
            capRows(t, top);
            s.tables.push_back(std::move(t));
        }

        sections.push_back(std::move(s));
    }

    if (profile.runs().empty()) {
        Section s;
        s.title = "Profile summary";
        s.paragraphs.push_back("No validated run blocks.");
        sections.clear();
        sections.push_back(std::move(s));
    }

    return render("cwsim dependence profile", sections, format);
}

// ---------------------------------------------------------------------
// Stats diff.
// ---------------------------------------------------------------------

namespace
{

using RecordMap = std::map<std::string, const ReportRecord *>;

std::string
runKey(const ReportRecord &r)
{
    return strfmt("%s %s (scale %llu)", r.run.workload.c_str(),
                  r.run.config.c_str(),
                  static_cast<unsigned long long>(r.scale));
}

/**
 * Add to @p out every run key that names more than one run in
 * @p records: a config name is only the LSQ model plus the policy, so
 * e.g. the AS scheduler at 0, 1 and 2 cycles shares one. Records with
 * one key and one non-empty fp are the same run recorded again.
 */
void
addCollidingKeys(const std::vector<ReportRecord> &records,
                 std::set<std::string> &out)
{
    std::map<std::string, const std::string *> fp_of;
    for (const ReportRecord &r : records) {
        auto [it, fresh] = fp_of.emplace(runKey(r), &r.fp);
        if (!fresh && (r.fp.empty() || *it->second != r.fp))
            out.insert(it->first);
    }
}

/**
 * Key every record by run key, told apart by fp where the key is in
 * @p colliding. Within one file a later record for the same key
 * supersedes an earlier one. False with @p err when a colliding
 * record has no fp to tell it apart by.
 */
bool
mapByRunKey(const std::vector<ReportRecord> &records,
            const std::set<std::string> &colliding, RecordMap &out,
            std::string &err)
{
    for (const ReportRecord &r : records) {
        std::string key = runKey(r);
        if (colliding.count(key)) {
            if (r.fp.empty()) {
                err = "ambiguous run key: " + key +
                      " names several runs, and a record of it has "
                      "no fp to tell them apart";
                return false;
            }
            key += " [fp " + r.fp + "]";
        }
        out[key] = &r; // later records win
    }
    return true;
}

void
diffField(DiffResult &d, const std::string &key, const char *field,
          const std::string &base, const std::string &cur)
{
    if (base != cur)
        d.drift.push_back({key, field, base, cur});
}

void
diffU64(DiffResult &d, const std::string &key, const char *field,
        uint64_t base, uint64_t cur)
{
    diffField(d, key, field,
              strfmt("%llu", static_cast<unsigned long long>(base)),
              strfmt("%llu", static_cast<unsigned long long>(cur)));
}

} // anonymous namespace

DiffResult
diffRunRecords(const std::vector<ReportRecord> &baseline,
               const std::vector<ReportRecord> &current)
{
    DiffResult d;
    std::set<std::string> colliding;
    addCollidingKeys(baseline, colliding);
    addCollidingKeys(current, colliding);
    RecordMap base, cur;
    if (!mapByRunKey(baseline, colliding, base, d.error) ||
        !mapByRunKey(current, colliding, cur, d.error)) {
        return d;
    }

    for (const auto &[key, b] : base) {
        auto it = cur.find(key);
        if (it == cur.end()) {
            ++d.baselineOnly;
            d.drift.push_back({key, "presence", "present", "missing"});
            continue;
        }
        const harness::RunResult &rb = b->run;
        const harness::RunResult &rc = it->second->run;
        ++d.compared;

        diffField(d, key, "ok", rb.ok ? "true" : "false",
                  rc.ok ? "true" : "false");
        diffField(d, key, "error", rb.error, rc.error);
        // Compare the failure class but not fail_detail: the detail
        // text can be host-dependent (signal spelling, limits), while
        // the kind must not drift.
        diffField(d, key, "fail_kind", harness::toString(rb.failKind),
                  harness::toString(rc.failKind));
        diffU64(d, key, "cycles", rb.cycles, rc.cycles);
        diffU64(d, key, "commits", rb.commits, rc.commits);
        diffU64(d, key, "committedLoads", rb.committedLoads,
                rc.committedLoads);
        diffU64(d, key, "committedStores", rb.committedStores,
                rc.committedStores);
        diffU64(d, key, "violations", rb.violations, rc.violations);
        diffU64(d, key, "replays", rb.replays, rc.replays);
        diffU64(d, key, "selectiveRecoveries", rb.selectiveRecoveries,
                rc.selectiveRecoveries);
        diffU64(d, key, "selectiveFallbacks", rb.selectiveFallbacks,
                rc.selectiveFallbacks);
        diffU64(d, key, "branchMispredicts", rb.branchMispredicts,
                rc.branchMispredicts);
        diffU64(d, key, "squashedInsts", rb.squashedInsts,
                rc.squashedInsts);
        diffU64(d, key, "falseDepLoads", rb.falseDepLoads,
                rc.falseDepLoads);
        // Compare the %.17g round-trip text: exact for identical
        // doubles, and NaN == NaN (a failed probe must not drift
        // against an identical failed probe).
        diffField(d, key, "falseDepLatency",
                  strfmt("%.17g", rb.falseDepLatency),
                  strfmt("%.17g", rc.falseDepLatency));
        diffU64(d, key, "injectedViolations", rb.injectedViolations,
                rc.injectedViolations);

        // The dep_* fields (schema v5) are deliberately NOT compared:
        // they are populated only when the host ran with --depprof /
        // CWSIM_DEPPROF, so a profiled current against an unprofiled
        // baseline would flag a host-configuration difference as stat
        // drift. The depprof bit-identity tests compare the profile
        // surface directly instead.

        diffU64(d, key, "commit_width", rb.commitWidth,
                rc.commitWidth);
        for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
            std::string field =
                std::string("cpi_") + obs::statKey(obs::CpiCause(i));
            diffU64(d, key, field.c_str(), rb.cpiSlots[i],
                    rc.cpiSlots[i]);
        }
    }
    for (const auto &[key, c] : cur) {
        (void)c;
        if (!base.count(key)) {
            ++d.currentOnly;
            d.drift.push_back({key, "presence", "missing", "present"});
        }
    }
    return d;
}

std::string
formatDiff(const DiffResult &d)
{
    if (!d.error.empty())
        return "stats-diff: " + d.error + "\n";
    std::ostringstream os;
    os << strfmt("stats-diff: %zu run(s) compared, %zu drifting "
                 "field(s), %zu baseline-only, %zu current-only",
                 d.compared, d.drift.size() - d.baselineOnly -
                     d.currentOnly,
                 d.baselineOnly, d.currentOnly);
    os << "\n";
    for (const DriftEntry &e : d.drift) {
        os << strfmt("DRIFT %s: %s %s -> %s\n", e.key.c_str(),
                     e.field.c_str(), e.baseline.c_str(),
                     e.current.c_str());
    }
    if (d.clean())
        os << "no drift\n";
    return os.str();
}

size_t
reportFailures(const harness::FailureSummary &summary)
{
    if (summary.empty())
        return 0;
    const auto &fails = summary.failures;

    std::printf("\nFAILED RUNS (%zu):\n", fails.size());
    TextTable table;
    table.setHeader({"workload", "config", "kind", "error"});
    for (const auto &f : fails) {
        std::string kind = f.failLabel();
        if (f.injectedHostFault)
            kind += " [injected]";
        table.addRow({f.workload, f.config, kind, f.error});
    }
    std::fputs(table.toString().c_str(), stdout);
    if (summary.injected > 0) {
        std::printf("(%zu injected host fault(s) contained — not "
                    "counted as campaign failures)\n",
                    summary.injected);
    }

    // Each failure's diagnostic tail (last flight-recorder events),
    // so the report alone localizes the fault.
    for (const auto &f : fails) {
        if (f.diagnostic.empty())
            continue;
        std::printf("\n%s under %s — last events:\n",
                    f.workload.c_str(), f.config.c_str());
        for (const std::string &line : split(f.diagnostic, '\n'))
            std::printf("    %s\n", line.c_str());
    }
    return summary.unexpected();
}

size_t
reportFailures(const harness::Runner &runner)
{
    return reportFailures(harness::collectFailures(runner));
}

} // namespace sweep
} // namespace cwsim
