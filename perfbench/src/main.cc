/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--tmp <dir>] [--setup-only]
 *
 * Runs one workload (see workloads.hh) and prints one JSON line: the
 * correctness tally, the metrics (end-to-end with --trace 0, per-layer
 * with --trace 1) and a provenance stamp. --setup-only builds the
 * workload's inputs, prints "ready" and exits; run.py times it from
 * process start for setup_s.
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include <sched.h>

#include "mem/simd.hh"
#include "stats/json.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;

unsigned
hostCpus()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
provenance(const Options &o)
{
    using c8t::stats::jsonEscape;
    return std::string("{\"build_type\":\"") + jsonEscape(PERFBENCH_BUILD_TYPE) +
           "\",\"simd\":\"" +
           c8t::mem::simd::toString(c8t::mem::simd::activeLevel()) +
           "\",\"nproc\":" + std::to_string(hostCpus()) +
           ",\"cpu_model\":\"" + jsonEscape(cpuModel()) +
           "\",\"workers\":" + std::to_string(o.workers) + "}";
}

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size())
        throw std::invalid_argument(flag + ": not a whole number: " + value);
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    o.workers = hostCpus();
    o.tmpDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            o.trace = parseCount(flag, value) != 0;
        else if (flag == "--tmp")
            o.tmpDir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to report numbers from an "
                 "unoptimized build\n";
    return 2;
#endif
    try {
        const Options o = parseOptions(argc, argv);
        for (const Workload &w : workloads()) {
            if (o.workload != w.name)
                continue;
            if (o.setupOnly) {
                w.setup(o, [] { std::cout << "ready" << std::endl; });
                return 0;
            }
            Report report = o.trace ? w.trace(o) : w.run(o);
            report.detail("provenance", provenance(o));
            report.print(std::cout);
            return 0;
        }
        std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
