#include "src/metrics/report.hh"

#include <cstdio>
#include <sstream>

#include "src/metrics/results.hh"
#include "src/util/log.hh"

namespace piso {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    if (header_.empty())
        PISO_FATAL("table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        PISO_FATAL("row width ", row.size(), " != header width ",
                   header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::num(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            // Left-align the first column, right-align the rest.
            if (c == 0) {
                os << row[c]
                   << std::string(width[c] - row[c].size(), ' ');
            } else {
                os << std::string(width[c] - row[c].size(), ' ')
                   << row[c];
            }
        }
        os << '\n';
    };

    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

void
TextTable::print() const
{
    std::fputs(str().c_str(), stdout);
}

double
normalize(double value, double base)
{
    return base == 0.0 ? 0.0 : value / base * 100.0;
}

void
printBanner(const std::string &title)
{
    std::printf("\n== %s ==\n", title.c_str());
}

std::string
formatResults(const SimResults &r, bool withPerf)
{
    std::ostringstream os;
    os << "simulated time: " << formatTime(r.simulatedTime)
       << (r.completed ? "" : "  [INCOMPLETE: hit maxTime]") << '\n';
    os << "policies: " << r.profile.str() << "\n\n";

    TextTable jobs({"job", "spu", "start (s)", "response (s)", "done"});
    for (const JobResult &j : r.jobs) {
        jobs.addRow({j.name, std::to_string(j.spu),
                     TextTable::num(toSeconds(j.start), 2),
                     TextTable::num(j.responseSec(), 3),
                     j.failed ? "FAILED" : (j.completed ? "yes" : "no")});
    }
    os << jobs.str() << '\n';

    // Fault columns appear only when something actually went wrong,
    // and the group column only when the SPUs form a tree, so flat
    // fault-free reports look exactly as before.
    bool anyFaults = false;
    bool anyTree = false;
    for (const auto &[id, s] : r.spus) {
        if (s.diskErrors || s.ioRetries || s.ioTimeouts || s.failedOps)
            anyFaults = true;
        if (s.parent != kNoSpu)
            anyTree = true;
    }
    std::vector<std::string> header{"spu", "name"};
    if (anyTree)
        header.emplace_back("group");
    header.insert(header.end(), {"cpu (s)", "mem used", "entitled"});
    if (anyFaults) {
        header.insert(header.end(),
                      {"io errs", "retries", "timeouts", "failed"});
    }
    TextTable spus(std::move(header));
    for (const auto &[id, s] : r.spus) {
        std::vector<std::string> row{std::to_string(id), s.name};
        if (anyTree) {
            const SpuResult *parent = r.spus.find(s.parent);
            row.push_back(s.parent == kNoSpu ? "-"
                          : parent ? parent->name
                                   : std::to_string(s.parent));
        }
        row.insert(row.end(),
                   {TextTable::num(toSeconds(s.cpuTime), 2),
                    std::to_string(s.memUsedPages),
                    std::to_string(s.memEntitledPages)});
        if (anyFaults) {
            row.insert(row.end(), {std::to_string(s.diskErrors),
                                   std::to_string(s.ioRetries),
                                   std::to_string(s.ioTimeouts),
                                   std::to_string(s.failedOps)});
        }
        spus.addRow(std::move(row));
    }
    os << spus.str() << '\n';

    TextTable disks({"disk", "requests", "sectors", "wait (ms)",
                     "position (ms)", "busy"});
    for (const DiskResult &d : r.disks) {
        disks.addRow({d.name, std::to_string(d.requests),
                      std::to_string(d.sectors),
                      TextTable::num(d.avgWaitMs, 1),
                      TextTable::num(d.avgPositionMs, 2),
                      TextTable::num(100.0 * d.busyFraction, 0) + "%"});
    }
    os << disks.str() << '\n';

    os << "kernel: " << r.kernel.zeroFills.value() << " zero-fills, "
       << r.kernel.refaults.value() << " refaults, "
       << r.kernel.pageoutWrites.value() << " pageouts, "
       << r.kernel.readRequests.value() << "+"
       << r.kernel.readAheadRequests.value() << " reads(+ahead), "
       << r.kernel.bdflushRequests.value() << " flush batches, "
       << r.kernel.syncWriteRequests.value() << " sync writes\n";
    if (r.kernel.diskErrors.value() || r.kernel.ioRetries.value() ||
        r.kernel.ioTimeouts.value() || r.kernel.failedIos.value() ||
        r.kernel.lostWrites.value()) {
        os << "faults: " << r.kernel.diskErrors.value()
           << " disk errors, " << r.kernel.ioRetries.value()
           << " retries, " << r.kernel.ioTimeouts.value()
           << " timeouts, " << r.kernel.failedIos.value()
           << " failed I/Os, " << r.kernel.lostWrites.value()
           << " lost writes\n";
    }
    if (r.numa.enabled) {
        os << "numa: " << r.numa.domains << " domains, "
           << r.numa.localTouches << " local + " << r.numa.remoteTouches
           << " remote touches, " << r.numa.busBytes << " bus bytes ("
           << TextTable::num(100.0 * r.numa.busUtilization, 0)
           << "% bus)\n";
    }
    if (withPerf) {
        os << "perf: " << r.perf.events << " events in "
           << TextTable::num(r.perf.wallSec * 1e3, 1) << " ms ("
           << TextTable::num(r.perf.eventsPerSec() / 1e6, 2)
           << " M events/s); policy iters cpu=" << r.perf.policyItersCpu
           << " mem=" << r.perf.policyItersMem
           << " disk=" << r.perf.policyItersDisk
           << " net=" << r.perf.policyItersNet << "\n";
    }
    return os.str();
}

void
printResults(const SimResults &r)
{
    std::fputs(formatResults(r).c_str(), stdout);
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatResultsJson(const SimResults &r, bool withPerf)
{
    std::ostringstream os;
    os << "{\"simulated_time_s\":" << toSeconds(r.simulatedTime)
       << ",\"completed\":" << (r.completed ? "true" : "false")
       << ",\"profile\":{\"cpu\":\"" << policyName(r.profile.cpu)
       << "\",\"memory\":\"" << policyName(r.profile.memory)
       << "\",\"disk_policy\":\"" << policySpecName(r.profile.disk)
       << "\",\"network\":\"" << policyName(r.profile.net) << "\"}";

    os << ",\"jobs\":[";
    for (std::size_t i = 0; i < r.jobs.size(); ++i) {
        const JobResult &j = r.jobs[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(j.name)
           << "\",\"spu\":" << j.spu
           << ",\"start_s\":" << toSeconds(j.start)
           << ",\"response_s\":" << j.responseSec()
           << ",\"completed\":" << (j.completed ? "true" : "false")
           << ",\"failed\":" << (j.failed ? "true" : "false")
           << "}";
    }
    os << "]";

    // The parent field appears only for hierarchical runs, keeping
    // flat JSON output byte-identical to the pre-tree format.
    bool anyTree = false;
    for (const auto &[id, s] : r.spus) {
        if (s.parent != kNoSpu)
            anyTree = true;
    }

    os << ",\"spus\":[";
    bool first = true;
    for (const auto &[id, s] : r.spus) {
        os << (first ? "" : ",") << "{\"id\":" << id << ",\"name\":\""
           << jsonEscape(s.name);
        if (anyTree)
            os << "\",\"parent\":" << s.parent << ",\"cpu_s\":";
        else
            os << "\",\"cpu_s\":";
        os << toSeconds(s.cpuTime)
           << ",\"mem_used_pages\":" << s.memUsedPages
           << ",\"mem_entitled_pages\":" << s.memEntitledPages
           << ",\"disk_errors\":" << s.diskErrors
           << ",\"io_retries\":" << s.ioRetries
           << ",\"io_timeouts\":" << s.ioTimeouts
           << ",\"failed_ios\":" << s.failedOps << "}";
        first = false;
    }
    os << "]";

    os << ",\"disks\":[";
    for (std::size_t i = 0; i < r.disks.size(); ++i) {
        const DiskResult &d = r.disks[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(d.name)
           << "\",\"requests\":" << d.requests
           << ",\"sectors\":" << d.sectors
           << ",\"errors\":" << d.errors
           << ",\"avg_wait_ms\":" << d.avgWaitMs
           << ",\"avg_position_ms\":" << d.avgPositionMs
           << ",\"busy_fraction\":" << d.busyFraction << "}";
    }
    os << "]";

    os << ",\"kernel\":{\"zero_fills\":" << r.kernel.zeroFills.value()
       << ",\"refaults\":" << r.kernel.refaults.value()
       << ",\"pageout_writes\":" << r.kernel.pageoutWrites.value()
       << ",\"read_requests\":" << r.kernel.readRequests.value()
       << ",\"readahead_requests\":"
       << r.kernel.readAheadRequests.value()
       << ",\"bdflush_requests\":" << r.kernel.bdflushRequests.value()
       << ",\"sync_writes\":" << r.kernel.syncWriteRequests.value()
       << ",\"throttle_stalls\":" << r.kernel.throttleStalls.value()
       << ",\"cache_hits\":" << r.kernel.cacheHits.value()
       << ",\"cache_misses\":" << r.kernel.cacheMisses.value()
       << ",\"disk_errors\":" << r.kernel.diskErrors.value()
       << ",\"io_retries\":" << r.kernel.ioRetries.value()
       << ",\"io_timeouts\":" << r.kernel.ioTimeouts.value()
       << ",\"failed_ios\":" << r.kernel.failedIos.value()
       << ",\"lost_writes\":" << r.kernel.lostWrites.value() << "}";

    if (r.numa.enabled) {
        os << ",\"numa\":{\"domains\":" << r.numa.domains
           << ",\"local_touches\":" << r.numa.localTouches
           << ",\"remote_touches\":" << r.numa.remoteTouches
           << ",\"bus_bytes\":" << r.numa.busBytes
           << ",\"bus_utilization\":" << r.numa.busUtilization << "}";
    }
    if (withPerf) {
        // Everything inside this one "perf" object is host-side and
        // out of band; deterministic consumers strip the whole object.
        os << ",\"perf\":{\"events\":" << r.perf.events
           << ",\"wall_ms\":" << r.perf.wallSec * 1e3
           << ",\"setup_ms\":" << r.perf.setupSec * 1e3
           << ",\"events_per_sec\":" << r.perf.eventsPerSec()
           << ",\"policy_iters_cpu\":" << r.perf.policyItersCpu
           << ",\"policy_iters_mem\":" << r.perf.policyItersMem
           << ",\"policy_iters_disk\":" << r.perf.policyItersDisk
           << ",\"policy_iters_net\":" << r.perf.policyItersNet << "}";
    }

    os << "}";
    return os.str();
}

} // namespace piso
