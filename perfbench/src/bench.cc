/**
 * @file
 * Shared benchmark helpers.
 */

#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>

#include "stats/json.hh"

namespace perfbench
{

namespace
{

/** Every per-layer metric a traced run reports, with its unit. The
 *  order is the order of the printed line. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"trace.generate.ns_per_access", "ns"},
    {"trace.replay.ns_per_access", "ns"},
    {"core.stream_cache.hit_ratio", "ratio"},
    {"core.stream_cache.acquire_ms", "ms"},
    {"mem.plan.ns_per_access", "ns"},
    {"mem.plan.eligible_ratio", "ratio"},
    {"mem.plan.shared_ratio", "ratio"},
    {"core.apply.6t.ns_per_access", "ns"},
    {"core.apply.rmw.ns_per_access", "ns"},
    {"core.apply.wg.ns_per_access", "ns"},
    {"core.apply.wgrb.ns_per_access", "ns"},
    {"core.level_stack.ns_per_access", "ns"},
    {"core.l2.fetches_per_kaccess", "1/kaccess"},
    {"core.l2.writeback_words_per_kaccess", "1/kaccess"},
    {"core.l2.back_invalidations_per_kaccess", "1/kaccess"},
    {"sram.fault_map.ms_per_campaign", "ms"},
    {"core.fault_cache.hit_ratio", "ratio"},
    {"core.fault_cache.dup_fills", "count"},
    {"core.vdd_sweep.fault_map_share", "ratio"},
    {"core.controller.construct_us", "us"},
    {"sram.energy.snapshot_us", "us"},
    {"core.sweep.job_p50_ms", "ms"},
    {"core.sweep.job_p99_ms", "ms"},
    {"core.sweep.queue_wait_ms", "ms"},
    {"core.sweep.worker_busy_ratio", "ratio"},
    {"core.explorer.resume_ms", "ms"},
    {"core.explorer.checkpoint_kb", "KiB"},
    {"core.job_spec.parse_us", "us"},
    {"core.job_spec.to_json_us", "us"},
    {"net.frame.roundtrip_ns_per_kb", "ns/KiB"},
    {"net.client.hit_rtt_us", "us"},
    {"net.daemon.memo_hit_ratio", "ratio"},
    {"net.daemon.exec_ms", "ms"},
    {"net.daemon.queue_wait_ms", "ms"},
    {"app.document.serialize_us", "us"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
    {"obs.wall_share_pct", "%"},
};

} // anonymous namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mix64(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

bool
Tally::check(bool ok, const std::string &what)
{
    if (!ok) {
        ++_failed;
        if (_errors.size() < 20)
            _errors.push_back(what);
    }
    return ok;
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    if (!_metrics.count(name))
        _order.push_back(name);
    _metrics[name] = Metric{value, unit};
}

void
Report::detail(const std::string &key, const std::string &json)
{
    _details.emplace_back(key, json);
}

void
Report::initLayerMetrics()
{
    for (const auto &[name, unit] : kLayerMetrics)
        set(name, 0.0, unit);
}

void
Report::print(std::ostream &os) const
{
    std::ostringstream line;
    line << std::setprecision(17);
    line << "{\"correct\":" << (tally.failed() == 0 ? "true" : "false")
         << ",\"attempted\":" << tally.attempted()
         << ",\"failed\":" << tally.failed() << ",\"metrics\":{";
    for (std::size_t i = 0; i < _order.size(); ++i) {
        const Metric &m = _metrics.at(_order[i]);
        line << (i ? "," : "") << "\"" << _order[i] << "\":{\"value\":";
        c8t::stats::jsonNumber(line, std::isfinite(m.value) ? m.value : 0.0);
        line << ",\"unit\":\"" << m.unit << "\"}";
    }
    line << "},\"errors\":[";
    for (std::size_t i = 0; i < tally.errors().size(); ++i) {
        line << (i ? "," : "") << "\""
             << c8t::stats::jsonEscape(tally.errors()[i]) << "\"";
    }
    line << "]";
    for (const auto &[key, json] : _details)
        line << ",\"" << key << "\":" << json;
    line << "}\n";
    os << line.str();
}

unsigned
repeatFor(double seconds, unsigned min_reps, unsigned max_reps,
          const std::function<void(unsigned)> &rep)
{
    const auto t0 = Clock::now();
    unsigned n = 0;
    while (n < max_reps && (n < min_reps || secondsSince(t0) < seconds))
        rep(n++);
    return n;
}

JobTime
timeJob(const std::function<void()> &fn)
{
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    fn();
    JobTime t;
    t.wall = secondsSince(t0);
    t.cpu = processCpuSeconds() - cpu0;
    return t;
}

void
setBatchMetrics(Report &report, const std::vector<JobTime> &jobs,
                double accesses_per_job, double config_runs_per_job,
                double first_job_rss_mib)
{
    std::vector<double> acc_s, acc_cpu, runs_s, jobs_s, ms;
    for (const JobTime &t : jobs) {
        acc_s.push_back(accesses_per_job / t.wall);
        acc_cpu.push_back(accesses_per_job / t.cpu);
        runs_s.push_back(config_runs_per_job / t.wall);
        jobs_s.push_back(1.0 / t.wall);
        ms.push_back(t.wall * 1e3);
    }
    report.set("accesses_per_s", median(acc_s), "1/s");
    report.set("accesses_per_cpu_s", median(acc_cpu), "1/s");
    report.set("config_runs_per_s", median(runs_s), "1/s");
    report.set("jobs_per_s", median(jobs_s), "1/s");
    report.set("job_p50_ms", median(ms), "ms");
    report.set("job_p99_ms", quantile(ms, 0.99), "ms");
    report.set("peak_rss_mb", first_job_rss_mib, "MiB");
    report.detail("job_samples", std::to_string(jobs.size()));
}

std::size_t
SpanLog::open(const char *name, std::uint32_t job, std::uint64_t work)
{
    Span s;
    s.name = name;
    s.job = job;
    s.work = work;
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
    _spans.push_back(s);
    _stack.push_back(static_cast<std::int32_t>(_spans.size() - 1));
    return _spans.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    // Spans close innermost first (ScopedSpan guarantees it).
    _stack.pop_back();
    _spans[id].endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count();
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<SpanLog> &logs)
{
    std::map<std::string, LayerTotals> out;
    for (const SpanLog &log : logs) {
        const std::vector<Span> &spans = log.spans();
        // Children of one span are sequential on its thread, so the
        // time they cover is the sum of their durations.
        std::vector<double> child_ns(spans.size(), 0.0);
        for (const Span &s : spans) {
            if (s.parent >= 0)
                child_ns[static_cast<std::size_t>(s.parent)] +=
                    static_cast<double>(s.endNs - s.startNs);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double dur =
                static_cast<double>(spans[i].endNs - spans[i].startNs);
            LayerTotals &t = out[spans[i].name];
            t.totalNs += dur;
            t.selfNs += dur - child_ns[i];
            ++t.spans;
            t.work += spans[i].work;
        }
    }
    return out;
}

} // namespace perfbench
