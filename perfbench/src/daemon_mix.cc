/**
 * @file
 * daemon_mix: an in-process net::Daemon on a scratch Unix socket with
 * nproc closed-loop net::DaemonClient connections. Each client sends
 * its share of bench_daemon's `run` and default-grid `vdd_sweep`
 * JobSpecs: every fresh spec is followed by three repeats of specs that
 * client already sent, which the daemon answers from its result memo.
 * One job is one request; one repetition is one fresh daemon serving
 * the whole mix.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "app/job_runner.hh"
#include "core/fault_cache.hh"
#include "core/job_spec.hh"
#include "core/policies.hh"
#include "core/vdd_sweep.hh"
#include "net/client.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "obs/metrics.hh"
#include "sram/vmodel.hh"
#include "trace/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace c8t;

namespace
{

// bench_daemon's spec set: `run` specs over 8 SPEC profiles x {16, 32}
// KB caches plus 2 default-grid `vdd_sweep`s, each 20,000 accesses.
constexpr std::uint64_t kAccesses = 20'000;
constexpr std::size_t kProfiles = 8;
constexpr unsigned kSizesKb[] = {16, 32};
constexpr std::size_t kSweeps = 2;
constexpr unsigned kRepeatsPerFresh = 3;

struct MixSpec
{
    std::string json;
    bool vdd = false;
    std::string workload; ///< SPEC profile name
    double configRuns = 0.0;
    double accesses = 0.0; ///< simulated accesses of one execution
};

struct Request
{
    std::size_t spec = 0;
    bool fresh = false;
};

struct Mix
{
    std::vector<MixSpec> specs;
    std::vector<std::vector<Request>> clients; ///< each client's sequence
};

MixSpec
mixSpec(const std::string &kind, const std::string &workload,
        const std::string &tail)
{
    MixSpec s;
    s.vdd = kind == "vdd_sweep";
    s.workload = workload;
    s.json = "{\"kind\":\"" + kind + "\",\"workload\":\"spec:" + workload +
             "\",\"accesses\":" + std::to_string(kAccesses) + tail + "}";
    const core::JobSpec spec = core::JobSpec::fromJsonText(s.json);
    const std::size_t points = s.vdd ? core::VddSweepSpec{}.grid.size() : 1;
    s.configRuns =
        static_cast<double>(spec.effectiveSchemes().size() * points);
    s.accesses = s.configRuns * static_cast<double>(spec.effectiveWarmup() +
                                                    spec.accesses);
    return s;
}

/**
 * The seeded request mix. Its fresh specs are bench_daemon's, in its
 * order: `run` specs for the first 8 SPEC profiles x 16/32 KB, then 2
 * default-grid `vdd_sweep`s on the first 2 profiles. As in
 * bench_daemon, spec i goes to client i mod nproc, so the sweeps are
 * the last fresh specs of two different clients. The seed picks which
 * spec, among those its client already sent, each repeat re-sends.
 */
Mix
buildMix(std::uint64_t seed, unsigned clients)
{
    std::vector<std::string> names = trace::specBenchmarkNames();
    names.resize(kProfiles);
    Mix mix;
    for (const std::string &name : names) {
        for (const unsigned kb : kSizesKb)
            mix.specs.push_back(mixSpec("run", name,
                                        ",\"cache\":{\"size_kb\":" +
                                            std::to_string(kb) + "}"));
    }
    for (std::size_t w = 0; w < kSweeps; ++w)
        mix.specs.push_back(mixSpec("vdd_sweep", names[w], ""));

    std::uint64_t draws = 0;
    std::vector<std::vector<std::size_t>> sent(clients);
    mix.clients.resize(clients);
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
        const std::size_t c = i % clients;
        sent[c].push_back(i);
        mix.clients[c].push_back({i, true});
        for (unsigned r = 0; r < kRepeatsPerFresh; ++r) {
            const std::size_t k = mix64(seed, draws++) % sent[c].size();
            mix.clients[c].push_back({sent[c][k], false});
        }
    }
    return mix;
}

/** One served request as its client saw it. */
struct Sample
{
    double ms = 0.0;
    std::size_t spec = 0;
    bool fresh = false;
};

/** A fresh daemon with its clients connected: the set-up before the
 *  first request is submitted. */
class Service
{
  public:
    Service(const Options &o, unsigned clients)
    {
        std::ostringstream name;
        name << 'd' << ::getpid() << ".sock";
        _cfg.socketPath =
            (std::filesystem::path(o.tmpDir) / name.str()).string();
        _cfg.workers = o.workers;
        std::filesystem::remove(_cfg.socketPath);
        _daemon = std::make_unique<net::Daemon>(_cfg);
        _server = std::thread([this] { _daemon->serve(); });
        while (!_daemon->ready())
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (unsigned c = 0; c < clients; ++c)
            _clients.push_back(
                std::make_unique<net::DaemonClient>(_cfg.socketPath));
    }

    ~Service()
    {
        for (auto &c : _clients)
            c->close();
        _daemon->stop();
        _server.join();
        std::filesystem::remove(_cfg.socketPath);
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    net::DaemonClient &client(unsigned c) { return *_clients[c]; }

  private:
    net::DaemonConfig _cfg;
    std::unique_ptr<net::Daemon> _daemon;
    std::thread _server;
    std::vector<std::unique_ptr<net::DaemonClient>> _clients;
};

/** Outcome of one repetition. */
struct Rep
{
    JobTime time;
    std::vector<Sample> samples;
    double freshAccesses = 0.0;
    double freshConfigRuns = 0.0;
    obs::Metrics::DaemonSnapshot daemon;
    core::FaultMapCache::Stats faults; ///< fault memo during the rep
};

/**
 * Serve the whole mix once from a fresh daemon and cold caches. Each
 * answer must equal the first answer seen for its spec (@p docs, one
 * slot per spec, filled on first sight).
 */
Rep
serveMix(const Options &o, const Mix &mix, std::vector<std::string> &docs,
         Tally &tally)
{
    const unsigned clients = static_cast<unsigned>(mix.clients.size());
    clearGlobalCaches();
    const core::FaultMapCache::Stats faults0 =
        core::globalFaultMapCache().stats();
    Rep rep;
    std::vector<std::vector<Sample>> samples(clients);
    std::vector<std::vector<std::string>> errors(clients);
    {
        Service service(o, clients);
        rep.time = timeJob([&] {
            std::vector<std::thread> threads;
            for (unsigned c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    for (const Request &req : mix.clients[c]) {
                        const std::string &json = mix.specs[req.spec].json;
                        const auto t0 = Clock::now();
                        std::string doc;
                        try {
                            doc = service.client(c).call(json);
                        } catch (const std::exception &e) {
                            errors[c].push_back("daemon_mix: " +
                                                std::string(e.what()));
                            continue;
                        }
                        samples[c].push_back(
                            {secondsSince(t0) * 1e3, req.spec, req.fresh});
                        std::string &expected = docs[req.spec];
                        if (expected.empty())
                            expected = std::move(doc);
                        else if (doc != expected)
                            errors[c].push_back("daemon_mix: answer for " +
                                                json + " changed");
                    }
                });
            }
            for (std::thread &t : threads)
                t.join();
        });
    }
    rep.daemon = obs::globalMetrics().daemon();
    const core::FaultMapCache::Stats faults1 =
        core::globalFaultMapCache().stats();
    rep.faults.hits = faults1.hits - faults0.hits;
    rep.faults.misses = faults1.misses - faults0.misses;

    for (unsigned c = 0; c < clients; ++c) {
        tally.attempt(mix.clients[c].size());
        for (const std::string &e : errors[c])
            tally.check(false, e);
        for (const Sample &s : samples[c]) {
            rep.samples.push_back(s);
            if (s.fresh) {
                rep.freshAccesses += mix.specs[s.spec].accesses;
                rep.freshConfigRuns += mix.specs[s.spec].configRuns;
            }
        }
    }
    return rep;
}

/** In-process app::runJobSpec of every spec, in mix order from cold
 *  caches: each document must be byte-identical to the daemon's. */
std::vector<double>
checkAgainstInProcess(const Options &o, const Mix &mix,
                      const std::vector<std::string> &docs, Tally &tally,
                      std::vector<app::JobOutcome> *outcomes)
{
    clearGlobalCaches();
    std::vector<double> exec_ms;
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
        tally.attempt();
        const core::JobSpec spec = core::JobSpec::fromJsonText(mix.specs[i].json);
        const auto t0 = Clock::now();
        app::JobOutcome outcome = app::runJobSpec(spec, o.workers);
        exec_ms.push_back(secondsSince(t0) * 1e3);
        tally.check(outcome.document == docs[i],
                    "daemon_mix: daemon answer differs from in-process "
                    "runJobSpec for " + mix.specs[i].json);
        if (outcomes)
            outcomes->push_back(std::move(outcome));
    }
    return exec_ms;
}

/** The job class of a served request. */
const char *
jobClass(const Sample &s, const Mix &mix)
{
    if (!s.fresh)
        return "memo_hit";
    return mix.specs[s.spec].vdd ? "fresh_vdd_sweep" : "fresh_run";
}

/** Per job class: sample count and latency quantiles (JSON). */
std::string
classSummary(const std::vector<Sample> &samples, const Mix &mix)
{
    std::map<std::string, std::vector<double>> ms;
    for (const Sample &s : samples)
        ms[jobClass(s, mix)].push_back(s.ms);
    std::ostringstream out;
    out << "{";
    for (const auto &[name, v] : ms) {
        out << (out.tellp() > 1 ? "," : "") << "\"" << name
            << "\":{\"n\":" << v.size()
            << ",\"p50_ms\":" << jsonNum(quantile(v, 0.5))
            << ",\"p90_ms\":" << jsonNum(quantile(v, 0.9))
            << ",\"max_ms\":" << jsonNum(quantile(v, 1.0)) << "}";
    }
    out << "}";
    return out.str();
}

/** Which job class holds quantile @p q of @p samples. */
std::string
classAt(std::vector<Sample> samples, const Mix &mix, double q)
{
    if (samples.empty())
        return "\"none\"";
    std::sort(samples.begin(), samples.end(),
              [](const Sample &a, const Sample &b) { return a.ms < b.ms; });
    const Sample &s = samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
    return std::string("\"") + jobClass(s, mix) + "\"";
}

std::vector<double>
latencies(const std::vector<Rep> &reps)
{
    std::vector<double> ms;
    for (const Rep &r : reps) {
        for (const Sample &s : r.samples)
            ms.push_back(s.ms);
    }
    return ms;
}

} // anonymous namespace

void
setupDaemonMix(const Options &o, const std::function<void()> &ready)
{
    const Mix mix = buildMix(o.seed, o.workers);
    const Service service(o, o.workers);
    ready();
}

Report
runDaemonMix(const Options &o)
{
    Report report;
    const Mix mix = buildMix(o.seed, o.workers);
    std::vector<std::string> docs(mix.specs.size());

    std::vector<Rep> reps;
    double rss = 0.0;
    repeatFor(o.seconds, 3, 10'000, [&](unsigned rep) {
        reps.push_back(serveMix(o, mix, docs, report.tally));
        if (rep == 0)
            rss = peakRssMiB();
    });
    checkAgainstInProcess(o, mix, docs, report.tally, nullptr);

    std::vector<double> jobs_s, acc_s, acc_cpu, runs_s;
    std::vector<Sample> all;
    for (const Rep &r : reps) {
        jobs_s.push_back(static_cast<double>(r.samples.size()) / r.time.wall);
        acc_s.push_back(r.freshAccesses / r.time.wall);
        acc_cpu.push_back(r.freshAccesses / r.time.cpu);
        runs_s.push_back(r.freshConfigRuns / r.time.wall);
        all.insert(all.end(), r.samples.begin(), r.samples.end());
    }
    const std::vector<double> ms = latencies(reps);
    report.set("accesses_per_s", median(acc_s), "1/s");
    report.set("accesses_per_cpu_s", median(acc_cpu), "1/s");
    report.set("config_runs_per_s", median(runs_s), "1/s");
    report.set("jobs_per_s", median(jobs_s), "1/s");
    report.set("job_p50_ms", quantile(ms, 0.5), "ms");
    report.set("job_p99_ms", quantile(ms, 0.99), "ms");
    report.set("peak_rss_mb", rss, "MiB");
    report.detail("job_samples", std::to_string(ms.size()));
    report.detail("p50_class", classAt(all, mix, 0.5));
    report.detail("p99_class", classAt(all, mix, 0.99));
    report.detail("classes", classSummary(all, mix));
    return report;
}

Report
traceDaemonMix(const Options &o)
{
    Report report;
    report.initLayerMetrics();
    const Mix mix = buildMix(o.seed, o.workers);
    std::vector<std::string> docs(mix.specs.size());

    // Repetitions with the profiler off and on alternate.
    std::vector<Rep> untraced;
    std::vector<double> untraced_s, profiled_s;
    repeatFor(o.seconds * 0.5, 2, 1000, [&](unsigned rep) {
        timeProfilerOffOn(
            rep,
            [&](bool on) {
                Rep r = serveMix(o, mix, docs, report.tally);
                const double wall = r.time.wall;
                if (!on)
                    untraced.push_back(std::move(r));
                return wall;
            },
            untraced_s, profiled_s);
    });
    const Rep &last = untraced.back();

    // Standalone execution of every spec: exec time, the answer check,
    // and the outcomes whose documents the serialize probe re-dumps.
    std::vector<app::JobOutcome> outcomes;
    const std::vector<double> exec_ms =
        checkAgainstInProcess(o, mix, docs, report.tally, &outcomes);
    std::vector<double> fresh_exec;
    double wait_ms = 0.0;
    std::size_t fresh = 0;
    for (const Sample &s : last.samples) {
        if (!s.fresh)
            continue;
        fresh_exec.push_back(exec_ms[s.spec]);
        wait_ms += s.ms - exec_ms[s.spec];
        ++fresh;
    }
    report.set("net.daemon.exec_ms", median(fresh_exec), "ms");
    report.set("net.daemon.queue_wait_ms",
               fresh ? wait_ms / static_cast<double>(fresh) : 0.0, "ms");
    report.set("net.daemon.memo_hit_ratio",
               last.daemon.jobsSucceeded
                   ? static_cast<double>(last.daemon.memoHits) /
                         static_cast<double>(last.daemon.jobsSucceeded)
                   : 0.0,
               "ratio");
    std::vector<double> hit_us;
    for (const Rep &r : untraced) {
        for (const Sample &s : r.samples) {
            if (!s.fresh)
                hit_us.push_back(s.ms * 1e3);
        }
    }
    report.set("net.client.hit_rtt_us", median(hit_us), "us");

    // JobSpec decode/encode and frame round trips on the mix's bytes.
    std::vector<core::JobSpec> specs;
    for (const MixSpec &s : mix.specs)
        specs.push_back(core::JobSpec::fromJsonText(s.json));
    report.set("core.job_spec.parse_us",
               meanMicros(50, [&] {
                   for (const MixSpec &s : mix.specs)
                       core::JobSpec::fromJsonText(s.json);
               }) / static_cast<double>(mix.specs.size()),
               "us");
    report.set("core.job_spec.to_json_us",
               meanMicros(50, [&] {
                   for (const core::JobSpec &s : specs)
                       s.toJson();
               }) / static_cast<double>(specs.size()),
               "us");
    double doc_kib = 0.0;
    for (const std::string &d : docs)
        doc_kib += static_cast<double>(d.size()) / 1024.0;
    bool frames_ok = true;
    const double frame_us = meanMicros(10, [&] {
        for (const std::string &d : docs) {
            const std::string bytes = net::encodeFrame(net::FrameType::Final, d);
            net::FrameReader reader;
            reader.feed(bytes.data(), bytes.size());
            net::Frame f;
            frames_ok = frames_ok && reader.next(f) && f.payload == d;
        }
    });
    report.tally.attempt();
    report.tally.check(frames_ok, "daemon_mix: frame round trip changed a document");
    report.set("net.frame.roundtrip_ns_per_kb", frame_us * 1e3 / doc_kib,
               "ns/KiB");
    std::vector<double> serialize_us;
    for (const app::JobOutcome &out : outcomes) {
        if (out.vdd)
            serialize_us.push_back(meanMicros(
                5, [&] { document([&](std::ostream &os) { out.vdd->dumpJson(os); }); }));
    }
    report.set("app.document.serialize_us", median(serialize_us), "us");

    // The layers below the daemon, on the same specs: `run` specs as
    // runJobSpec builds them (one job per scheme), Vdd sweeps as
    // runVddSweep does (one job per grid point, one controller per
    // scheme) with the sweep's fault-map keys.
    std::vector<core::SweepJob> jobs;
    std::vector<sram::FaultMapConfig> fault_keys;
    std::vector<trace::StreamParams> profiles;
    const core::VddSweepSpec vdd_defaults;
    const sram::VddModel model(vdd_defaults.model);
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
        const core::JobSpec &spec = specs[i];
        const trace::StreamParams profile =
            trace::specProfile(mix.specs[i].workload);
        profiles.push_back(profile);
        core::SweepJob job;
        job.makeGenerator = [profile]() -> std::unique_ptr<trace::AccessGenerator> {
            return std::make_unique<trace::MarkovStream>(profile);
        };
        job.streamKey = "c8tsim:" + spec.workload;
        if (!mix.specs[i].vdd) {
            for (const core::WriteScheme s : spec.effectiveSchemes()) {
                core::ControllerConfig cfg;
                cfg.cache = spec.cache;
                cfg.scheme = s;
                cfg.vdd = spec.vdd;
                job.configs = {cfg};
                jobs.push_back(job);
            }
            continue;
        }
        for (const double vdd : vdd_defaults.grid) {
            job.vdd = vdd;
            job.configs.clear();
            for (const core::WriteScheme s : spec.effectiveSchemes()) {
                core::ControllerConfig cfg;
                cfg.cache = spec.cache;
                cfg.vmodel = vdd_defaults.model;
                cfg.scheme = s;
                cfg.vdd = vdd;
                job.configs.push_back(cfg);

                const core::SchemeTraits traits = core::schemeTraits(s);
                sram::FaultMapConfig k;
                k.runSeed = vdd_defaults.runSeed;
                k.vdd = vdd;
                k.cell = traits.requiresEightT ? sram::CellType::EightT
                                               : sram::CellType::SixT;
                k.pfailCell = model.at(k.vdd, k.cell).pfailCell;
                k.rows = vdd_defaults.faultRows;
                k.wordsPerRow =
                    std::max<std::uint32_t>(1, spec.cache.setBytes() / 8);
                k.degree = traits.requiresNonInterleaved
                               ? 1u
                               : core::ControllerConfig{}.interleaveDegree;
                fault_keys.push_back(k);
            }
            jobs.push_back(job);
        }
    }
    const core::RunConfig rc{kAccesses / 10, kAccesses};
    clearGlobalCaches();
    const ReplicaRun replica = runReplica(toReplica(jobs), rc, o.workers);
    setReplicaLayers(report, replica);
    const std::vector<sram::FaultMapConfig> keys = distinctFaultKeys(fault_keys);
    const FaultProbe probe = probeFaultMaps(keys);
    setFaultLayers(report, probe, last.faults.hits, last.faults.misses,
                   keys.size(), last.time.wall);
    clearGlobalCaches();
    setSweepLayers(report, jobs, rc, o.workers);
    setGenerateLayer(report, profiles, rc.warmupAccesses + rc.measureAccesses);

    // The clients' calls, as a share of the repetition's wall time.
    double call_s = 0.0;
    for (const Sample &s : last.samples)
        call_s += s.ms * 1e-3;
    setObsLayers(report, untraced_s, profiled_s, call_s,
                 static_cast<unsigned>(mix.clients.size()), 0.0);
    return report;
}

} // namespace perfbench
