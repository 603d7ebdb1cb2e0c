/**
 * @file
 * Shared pieces of the repository benchmark: options, timing and
 * statistics helpers, the correctness tally, the result line, and the
 * in-memory span log used by traced runs.
 *
 * Everything here is benchmark-side code; it only calls public
 * functions of libc8t and never changes what they compute.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Build the inputs, print "ready" and exit (setup_s probe). */
    bool setupOnly = false;
    /** Worker threads and client connections: the host's nproc. */
    unsigned workers = 1;
    /** Scratch directory inside the checkout (checkpoints, sockets). */
    std::string tmpDir;
};

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** CPU seconds consumed by the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process (MiB). */
double peakRssMiB();

/** Deterministic 64-bit mix of a seed and a salt (splitmix64). */
std::uint64_t mix64(std::uint64_t seed, std::uint64_t salt);

/** Quantile @p q in [0,1], linear between order statistics. */
double quantile(std::vector<double> values, double q);

/** Median (quantile 0.5). */
double median(std::vector<double> values);

/** Jobs attempted and failed; every failed check names its reason. */
class Tally
{
  public:
    void attempt(std::uint64_t n = 1) { _attempted += n; }

    /** Count a failure when @p ok is false; returns @p ok. */
    bool check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }
    const std::vector<std::string> &errors() const { return _errors; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    std::vector<std::string> _errors;
};

/** One workload run's result: metrics in a fixed order plus details. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit);

    /** Extra detail (raw JSON value) printed beside the metrics. */
    void detail(const std::string &key, const std::string &json);

    /** Start a traced run: every per-layer metric, zero until set. */
    void initLayerMetrics();

    Tally tally;

    /** One JSON object on one line. */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::vector<std::string> _order;
    std::map<std::string, Metric> _metrics;
    std::vector<std::pair<std::string, std::string>> _details;
};

/** Time-bounded repetition: call @p rep until @p seconds have passed
 *  and at least @p min_reps ran, or @p max_reps ran. Returns reps. */
unsigned repeatFor(double seconds, unsigned min_reps, unsigned max_reps,
                   const std::function<void(unsigned)> &rep);

/** Wall and CPU seconds of one timed job. */
struct JobTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Time one call: wall clock and process CPU. */
JobTime timeJob(const std::function<void()> &fn);

/**
 * End-to-end metrics of a batch workload whose job is one top-level
 * call: medians over the timed jobs, plus @p first_job_rss_mib, the
 * peak RSS of the process through its first job (later jobs reuse
 * freed memory, so the peak over the whole run depends on how many
 * jobs fit in it).
 */
void setBatchMetrics(Report &report, const std::vector<JobTime> &jobs,
                     double accesses_per_job, double config_runs_per_job,
                     double first_job_rss_mib);

// --- tracing -------------------------------------------------------------

/** One recorded span: a layer call made by the benchmark. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; ///< index in the same log, -1 = root
    std::uint32_t job = 0;
    std::uint64_t work = 0; ///< accesses (or other units) it handled
};

/** Spans of one thread, kept in memory until the run ends. */
class SpanLog
{
  public:
    std::size_t open(const char *name, std::uint32_t job,
                     std::uint64_t work = 0);
    void close(std::size_t id);
    void setWork(std::size_t id, std::uint64_t work)
    {
        _spans[id].work = work;
    }
    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
    std::vector<std::int32_t> _stack;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint32_t job,
               std::uint64_t work = 0)
        : _log(log), _id(log.open(name, job, work))
    {
    }
    ~ScopedSpan() { _log.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
    std::size_t _id;
};

/** Per-name totals over a set of logs. */
struct LayerTotals
{
    double selfNs = 0.0;  ///< duration minus child-covered time
    double totalNs = 0.0; ///< plain duration
    std::uint64_t spans = 0;
    std::uint64_t work = 0;

    double selfNsPerWork() const
    {
        return work ? selfNs / static_cast<double>(work) : 0.0;
    }
    double selfNsPerSpan() const
    {
        return spans ? selfNs / static_cast<double>(spans) : 0.0;
    }
};

/** Self time and counts per span name. */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<SpanLog> &logs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
