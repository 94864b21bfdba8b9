/**
 * @file
 * Benchmark harness for the APRIL simulator.
 *
 * Runs one named workload as a closed loop from this one process:
 * repetition after repetition, each a fixed list of programs, every
 * program on a freshly constructed machine whose caches start empty.
 * Each call into the simulator's public surface is timed as its own
 * span (runtime emit, Mul-T compile, assembly, machine construction,
 * boot, run(), stats dump, cycle-accounting check, teardown), so host
 * time splits into set-up / simulate / report phases without any
 * tracing inside the simulator. After the timed loop the harness
 * prints the spans of every repetition, the deterministic counters of
 * the simulated machine and an FNV digest of its stats JSON as one
 * JSON object on stdout; perfbench/run.py aggregates them.
 *
 * With --trace it then makes one more pass over the workload's
 * programs, kept out of the timed loop: an untraced baseline run, a
 * run with every observability plane on (machine events, coherence
 * transactions, task spans, PC profile) plus their writers, and the
 * engine ablations (cycle-skip off; one host thread on multi-threaded
 * workloads), each of which must reproduce the baseline's stats
 * digest exactly.
 *
 * Usage:
 *   april_perfbench --workload NAME [--seed N] [--seconds S] [--trace]
 *   april_perfbench --self-test
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"
#include "mult/compiler.hh"
#include "profile/report.hh"
#include "runtime/layout.hh"
#include "runtime/runtime.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 12345;
/// Halt budget of every program: several times the longest program's
/// cycles, and short enough that a hang fails inside the run's time
/// limit instead of outlasting it.
constexpr uint64_t kMaxCycles = 20'000'000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Timed spans of one program run, one per call into a layer. */
enum Phase
{
    Emit,
    Compile,
    Assemble,
    Construct,
    Boot,
    Run,
    DumpJson,
    Verify,
    Check,
    Teardown,
    kNumPhases
};

const char *const kPhaseNames[kNumPhases] = {
    "runtime.emit_s",   "mult.compile_s",    "isa.assemble_s",
    "machine.construct_s", "machine.boot_s", "machine.run_s",
    "stats.dump_json_s", "profile.verify_s", "bench.check_s",
    "machine.teardown_s",
};

/** Add the host seconds @p f takes to @p acc. */
template <typename F>
void
timed(double &acc, F &&f)
{
    auto t0 = Clock::now();
    f();
    acc += secondsSince(t0);
}

/** One program of a workload: what to build and which machine runs it. */
struct Job
{
    enum class Kind { Perfect, Alewife, Coherent };

    std::string name;
    Kind kind = Kind::Perfect;
    std::string source;         ///< Mul-T source (Perfect, Alewife)
    int64_t expected = 0;       ///< oracle value of the program
    uint32_t nodes = 1;
    uint32_t wordsPerNode = 1u << 21;
    uint32_t hostThreads = 1;
    uint32_t coherentIters = 0; ///< Coherent only
    uint64_t maxCycles = 0;     ///< halt budget; a miss is a failure
};

/** Simulator-engine settings of one run (workload value or ablation). */
struct Engine
{
    bool cycleSkip = true;
    uint32_t hostThreads = 0;   ///< 0: the job's own
    bool traced = false;        ///< every observability plane on
};

/** What one program run produced. */
struct RunResult
{
    double span[kNumPhases] = {};
    bool ok = false;
    std::string error;
    std::map<std::string, double> counters;
    uint64_t digest = 0;        ///< FNV-1a of the stats JSON
    double jsonBytes = 0;
    double imageMb = 0;
    uint32_t hostThreads = 1;
    std::string statsJson;
    /// Traced runs only: writer spans, output sizes, dropped events.
    std::map<std::string, double> traced;
};

/** Sum (and sample count) of one statistic over same-named groups. */
struct Acc
{
    double sum = 0;
    double count = 0;
};

/** Fold every statistic under @p g into @p out keyed by
 *  "<group class>.<stat>", where the class is the group name without
 *  its node number (proc3 -> proc, ctrl12 -> ctrl). */
void
collectStats(const stats::Group &g, std::map<std::string, Acc> &out)
{
    std::string cls = g.groupName();
    while (!cls.empty() && std::isdigit((unsigned char)cls.back()))
        cls.pop_back();
    for (const stats::Info *s : g.statsList()) {
        Acc &a = out[cls + "." + s->name()];
        if (auto *sc = dynamic_cast<const stats::Scalar *>(s)) {
            a.sum += sc->value();
            a.count += 1;
        } else if (auto *av = dynamic_cast<const stats::Average *>(s)) {
            a.sum += av->sum();
            a.count += double(av->count());
        } else if (auto *h = dynamic_cast<const stats::Histogram *>(s)) {
            a.sum += std::llround(h->mean() * double(h->count()));
            a.count += double(h->count());
        }
    }
    for (const stats::Group *c : g.childGroups())
        collectStats(*c, out);
}

/** Alewife runtime counter read coherently: a node-block word held
 *  Modified in some cache is newer than the backing memory, which is
 *  all AlewifeMachine::runtimeCounter() reads. */
uint64_t
coherentRuntimeCounter(AlewifeMachine &m, int slot)
{
    uint64_t total = 0;
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        Addr a = m.memory().nodeBase(n) + rt::nodeBlockOff + Addr(slot);
        Word w = m.memory().read(a);
        for (uint32_t k = 0; k < m.numNodes(); ++k) {
            cache::Cache &c = m.controller(k).cacheRef();
            const cache::CacheLine *line = c.find(c.lineOf(a));
            if (line && line->state == cache::LineState::Modified) {
                w = line->words[c.offsetOf(a)].data;
                break;
            }
        }
        total += w;
    }
    return total;
}

/** The deterministic counters the benchmark records and compares. */
template <typename Machine>
std::map<std::string, double>
machineCounters(Machine &m, bool runtime_booted)
{
    std::map<std::string, Acc> acc;
    collectStats(m, acc);
    auto sum = [&](const std::string &k) {
        auto it = acc.find(k);
        return it == acc.end() ? 0.0 : it->second.sum;
    };
    auto count = [&](const std::string &k) {
        auto it = acc.find(k);
        return it == acc.end() ? 0.0 : it->second.count;
    };

    std::map<std::string, double> c;
    c["sim_cycles"] = double(m.cycle());
    c["proc.insts"] = sum("proc.insts");
    c["proc.node_cycles"] = sum("proc.cycles");
    c["proc.switches"] = sum("proc.contextSwitches");
    c["proc.stall_cycles"] = sum("proc.stallCycles");
    for (size_t b = 0; b < profile::kNumBuckets; ++b) {
        std::string name = profile::bucketName(profile::Bucket(b));
        std::string key;
        for (char ch : name) {
            if (std::isupper((unsigned char)ch) && !key.empty())
                key += '_';
            key += char(std::tolower((unsigned char)ch));
        }
        c["proc.cycles_" + key] = sum("proc.cycles" + name);
    }
    c["cache.hits"] = sum("cache.hits");
    c["cache.misses"] = sum("cache.misses");
    c["coherence.local_misses"] = sum("ctrl.localMisses");
    c["coherence.remote_misses"] = sum("ctrl.remoteMisses");
    c["coherence.inv_sent"] = sum("ctrl.invalidations");
    c["coherence.writebacks"] = sum("ctrl.writebacks");
    c["coherence.remote_latency_sum"] = sum("ctrl.remoteLatency");
    c["coherence.remote_latency_count"] = count("ctrl.remoteLatency");
    c["network.packets"] = sum("network.packets");
    c["network.flit_hops"] = sum("network.flitHops");
    c["network.latency_sum"] = sum("network.latency");
    c["network.latency_count"] = count("network.latency");
    const int slots[] = {rt::nb::statSpawns, rt::nb::statSteals,
                         rt::nb::statBlocks, rt::nb::statResumes};
    const char *names[] = {"runtime.spawns", "runtime.steals",
                           "runtime.blocks", "runtime.resumes"};
    for (int i = 0; i < 4; ++i) {
        double v = 0;
        if (runtime_booted) {
            if constexpr (std::is_same_v<Machine, AlewifeMachine>)
                v = double(coherentRuntimeCounter(m, slots[i]));
            else
                v = double(m.runtimeCounter(slots[i]));
        }
        c[names[i]] = v;
    }
    return c;
}

double
statValue(const stats::Group &g, const char *name)
{
    const stats::Info *s = g.findStat(name);
    return s ? s->summaryValue() : 0.0;
}

/** Time @p write into a string stream; record its span and size as
 *  "<prefix>write_s" and "<prefix>bytes". */
void
timedWrite(RunResult &r, const std::string &prefix,
           const std::function<void(std::ostream &)> &write)
{
    std::ostringstream os;
    double s = 0;
    timed(s, [&] { write(os); });
    r.traced[prefix + "write_s"] += s;
    r.traced[prefix + "bytes"] += double(os.tellp());
}

/** run() through teardown, shared by both machine kinds. */
template <typename Machine>
void
runAndReport(std::unique_ptr<Machine> &m, const Job &job,
             const Engine &eng, RunResult &r,
             const std::function<std::string(Machine &)> &oracle)
{
    timed(r.span[Run], [&] { m->run(job.maxCycles); });
    if (!m->halted()) {
        r.error = job.name + ": did not halt within " +
                  std::to_string(job.maxCycles) + " cycles";
        timed(r.span[Teardown], [&] { m.reset(); });
        return;
    }

    std::ostringstream os;
    timed(r.span[DumpJson], [&] { m->dumpJson(os); });
    timed(r.span[Verify], [&] { m->verifyCycleAccounting(); });

    if (eng.traced) {
        timedWrite(r, "trace.", [&](std::ostream &o) { m->writeTrace(o); });
        if constexpr (std::is_same_v<Machine, AlewifeMachine>) {
            timedWrite(r, "coherence.txn_",
                       [&](std::ostream &o) { m->writeCohTrace(o); });
        }
        timedWrite(r, "task.",
                   [&](std::ostream &o) { m->writeTaskTrace(o); });
        timedWrite(r, "profile.", [&](std::ostream &o) {
            profile::writeProfileJson(o, m->profileSource());
        });
        r.traced["trace.dropped"] += statValue(*m, "traceDropped");
        r.traced["coherence.txn_dropped"] +=
            statValue(*m, "cohTraceDropped");
        r.traced["task.dropped"] += statValue(*m, "taskTraceDropped");
    }

    timed(r.span[Check], [&] {
        r.statsJson = os.str();
        r.jsonBytes = double(r.statsJson.size());
        Digest d;
        d.addString(r.statsJson);
        r.digest = d.value();
        r.counters = machineCounters(*m, job.kind != Job::Kind::Coherent);
        if constexpr (std::is_same_v<Machine, AlewifeMachine>) {
            r.counters["machine.quanta"] =
                double(m->cycle() / m->quantum());
            r.hostThreads = m->hostThreads();
        } else {
            r.counters["machine.quanta"] = 0;
            r.hostThreads = 1;
        }
        r.error = oracle(*m);
        r.ok = r.error.empty();
    });
    timed(r.span[Teardown], [&] { m.reset(); });
}

/** Mul-T result check: the last console word is the return value. */
template <typename Machine>
std::string
multOracle(Machine &m, const Job &job)
{
    const std::vector<Word> &out = m.console();
    if (out.empty())
        return job.name + ": no console output";
    int64_t got = tagged::toInt(out.back());
    if (got != job.expected) {
        return job.name + ": returned " + std::to_string(got) +
               ", expected " + std::to_string(job.expected);
    }
    return "";
}

/** The 4x4 ALEWIFE machine of @p job under engine settings @p eng. */
AlewifeParams
alewifeParams(const Job &job, uint64_t seed, const Engine &eng)
{
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 4};
    p.wordsPerNode = job.wordsPerNode;
    p.seed = seed;
    p.cycleSkip = eng.cycleSkip;
    p.hostThreads = eng.hostThreads ? eng.hostThreads : job.hostThreads;
    p.traceEvents = p.cohTrace = p.taskTrace = p.profile = eng.traced;
    return p;
}

/** Build, run and check one program; never throws. */
RunResult
runJob(const Job &job, uint64_t seed, const Engine &eng)
{
    RunResult r;
    r.imageMb = double(job.nodes) * job.wordsPerNode * sizeof(MemWord) /
                double(1u << 20);
    try {
        if (job.kind == Job::Kind::Coherent) {
            workloads::CoherentLoop loop;
            timed(r.span[Assemble], [&] {
                loop = workloads::buildCoherentLoop(job.nodes,
                                                    job.coherentIters);
            });
            AlewifeParams p = alewifeParams(job, seed, eng);
            p.bootRuntime = false;
            p.controller.cache = {.lineWords = 4, .numLines = 64,
                                  .assoc = 2};
            std::unique_ptr<AlewifeMachine> m;
            timed(r.span[Construct], [&] {
                m = std::make_unique<AlewifeMachine>(p, &loop.prog);
            });
            timed(r.span[Boot], [&] {
                for (uint32_t n = 0; n < m->numNodes(); ++n)
                    workloads::bootCoherentNode(m->proc(n), loop.prog);
                m->memory().write(loop.count, tagged::fixnum(0));
            });
            runAndReport<AlewifeMachine>(
                m, job, eng, r, [&](AlewifeMachine &mm) -> std::string {
                    // Drain the traffic still in flight at the halt so
                    // the folded memory image is the coherent one.
                    mm.quiesce(1'000'000);
                    MachineSnapshot s = snapshotMachine(mm);
                    if (!s.coherenceErrors.empty())
                        return job.name + ": " + s.coherenceErrors[0];
                    int64_t got = tagged::toInt(s.memory[loop.count].data);
                    if (got != job.expected) {
                        return job.name + ": counter " +
                               std::to_string(got) + ", expected " +
                               std::to_string(job.expected);
                    }
                    return "";
                });
            return r;
        }

        Assembler as;
        rt::Runtime runtime;
        timed(r.span[Emit], [&] { runtime.emit(as); });
        mult::CompileOptions copts;
        copts.futures = mult::CompileOptions::FutureMode::Lazy;
        mult::Compiler compiler(as, copts);
        timed(r.span[Compile], [&] { compiler.compileSource(job.source); });
        Program prog;
        timed(r.span[Assemble], [&] { prog = as.finish(); });

        if (job.kind == Job::Kind::Alewife) {
            AlewifeParams p = alewifeParams(job, seed, eng);
            std::unique_ptr<AlewifeMachine> m;
            timed(r.span[Construct], [&] {
                m = std::make_unique<AlewifeMachine>(p, &prog);
            });
            runAndReport<AlewifeMachine>(
                m, job, eng, r,
                [&](AlewifeMachine &mm) { return multOracle(mm, job); });
        } else {
            PerfectMachineParams p;
            p.numNodes = job.nodes;
            p.wordsPerNode = job.wordsPerNode;
            p.seed = seed;
            p.cycleSkip = eng.cycleSkip;
            p.traceEvents = p.taskTrace = p.profile = eng.traced;
            std::unique_ptr<PerfectMachine> m;
            timed(r.span[Construct], [&] {
                m = std::make_unique<PerfectMachine>(p, &prog);
            });
            runAndReport<PerfectMachine>(
                m, job, eng, r,
                [&](PerfectMachine &mm) { return multOracle(mm, job); });
        }
    } catch (const SimError &e) {
        r.ok = false;
        r.error = job.name + ": " + e.what();
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = job.name + ": host exception: " + e.what();
    }
    return r;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

std::vector<workloads::Benchmark>
table3Programs()
{
    workloads::SuiteSizes sizes;
    return {workloads::makeFib(sizes), workloads::makeFactor(sizes),
            workloads::makeQueens(sizes), workloads::makeSpeech(sizes)};
}

uint32_t
hostCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The programs of one repetition of workload @p name (empty when
 *  the name is unknown). */
std::vector<Job>
workloadJobs(const std::string &name)
{
    std::vector<Job> jobs;
    if (name == "table3_perfect") {
        // The sweep bench_table3_mult runs for its lazy rows, on the
        // driver's default memory size.
        for (const workloads::Benchmark &b : table3Programs()) {
            for (uint32_t p : {1u, 4u, 16u}) {
                Job j;
                j.name = b.name + "@" + std::to_string(p);
                j.kind = Job::Kind::Perfect;
                j.source = b.source;
                j.expected = b.expected;
                j.nodes = p;
                j.maxCycles = kMaxCycles;
                jobs.push_back(j);
            }
        }
    } else if (name == "table3_alewife") {
        for (const workloads::Benchmark &b : table3Programs()) {
            Job j;
            j.name = b.name + "@alewife16";
            j.kind = Job::Kind::Alewife;
            j.source = b.source;
            j.expected = b.expected;
            j.nodes = 16;
            j.maxCycles = kMaxCycles;
            jobs.push_back(j);
        }
    } else if (name == "coherent16_mt") {
        Job j;
        j.name = "coherent16";
        j.kind = Job::Kind::Coherent;
        j.nodes = 16;
        j.coherentIters = 200;
        j.expected = int64_t(j.nodes) * j.coherentIters;
        j.wordsPerNode = 1u << 16;
        j.hostThreads = std::min(4u, hostCores());
        j.maxCycles = kMaxCycles;
        jobs.push_back(j);
    }
    return jobs;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** {"key":number,...} */
void
writeObject(std::ostream &os, const std::map<std::string, double> &m)
{
    const char *sep = "";
    os << '{';
    for (const auto &[k, v] : m) {
        os << sep;
        json::writeString(os, k);
        os << ':';
        json::writeNumber(os, v);
        sep = ",";
    }
    os << '}';
}

std::string
hexDigest(uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)d);
    return buf;
}

/** One repetition: every program of the workload, in order. */
struct Rep
{
    double wall = 0;
    double span[kNumPhases] = {};
    double jsonBytes = 0;
    double imageMb = 0;
    uint32_t hostThreads = 1;
    std::map<std::string, double> counters;     ///< summed over jobs
    std::vector<uint64_t> digests;              ///< per job
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

uint64_t
repDigest(const Rep &rep)
{
    Digest d;
    for (uint64_t x : rep.digests)
        d.addU64(x);
    return d.value();
}

/** Run one repetition; @p first (when given) is the repetition every
 *  job's stats digest must reproduce. */
Rep
runRep(const std::vector<Job> &jobs, uint64_t seed, const Rep *first,
       std::vector<std::string> &errors)
{
    Rep rep;
    auto t0 = Clock::now();
    for (size_t i = 0; i < jobs.size(); ++i) {
        RunResult r = runJob(jobs[i], seed, Engine{});
        ++rep.attempted;
        if (r.ok && first && r.digest != first->digests[i]) {
            r.ok = false;
            r.error = jobs[i].name + ": stats digest " +
                      hexDigest(r.digest) + " differs from the first "
                      "repetition's " + hexDigest(first->digests[i]);
        }
        if (!r.ok) {
            ++rep.failed;
            if (errors.size() < 10)
                errors.push_back(r.error);
        }
        for (int p = 0; p < kNumPhases; ++p)
            rep.span[p] += r.span[p];
        rep.jsonBytes += r.jsonBytes;
        rep.imageMb += r.imageMb;
        rep.hostThreads = std::max(rep.hostThreads, r.hostThreads);
        for (const auto &[k, v] : r.counters)
            rep.counters[k] += v;
        rep.digests.push_back(r.digest);
    }
    rep.wall = secondsSince(t0);
    return rep;
}

/** The repetition's counters plus its "stats_digest". */
void
writeCounters(std::ostream &os, const Rep &rep)
{
    std::ostringstream counters;
    writeObject(counters, rep.counters);
    std::string text = counters.str();
    text.pop_back();
    os << text << (rep.counters.empty() ? "" : ",")
       << "\"stats_digest\":\"" << hexDigest(repDigest(rep)) << "\"}";
}

/**
 * The traced pass: per job, an untraced baseline, a traced run with
 * its writers, and the engine ablations, each of which must
 * reproduce the baseline's stats digest.
 */
std::map<std::string, double>
tracedPass(const std::vector<Job> &jobs, uint64_t seed,
           uint64_t &attempted, uint64_t &failed,
           std::vector<std::string> &errors)
{
    double base = 0, traced = 0, noskip = 0, onethread = 0;
    // Every key, so a plane a machine kind lacks reads 0.
    std::map<std::string, double> out;
    for (const char *k : {"trace.", "coherence.txn_", "task.", "profile."}) {
        out[std::string(k) + "write_s"] = 0;
        out[std::string(k) + "bytes"] = 0;
    }
    bool threaded = false;
    auto check = [&](const RunResult &r, const RunResult &ref,
                     const char *what) {
        ++attempted;
        std::string err = r.error;
        if (r.ok && r.digest != ref.digest) {
            err = std::string(what) + " run's stats digest " +
                  hexDigest(r.digest) + " differs from the baseline's " +
                  hexDigest(ref.digest);
        }
        if (!err.empty()) {
            ++failed;
            if (errors.size() < 10)
                errors.push_back(err);
        }
    };
    for (const Job &job : jobs) {
        RunResult b = runJob(job, seed, Engine{});
        check(b, b, "baseline");
        base += b.span[Run];

        RunResult t = runJob(job, seed, Engine{.traced = true});
        check(t, b, "traced");
        traced += t.span[Run];
        for (const auto &[k, v] : t.traced)
            out[k] += v;

        RunResult s = runJob(job, seed, Engine{.cycleSkip = false});
        check(s, b, "skip-off");
        noskip += s.span[Run];

        if (job.hostThreads > 1) {
            threaded = true;
            RunResult one = runJob(job, seed, Engine{.hostThreads = 1});
            check(one, b, "one-thread");
            onethread += one.span[Run];
        }
    }
    auto over_base = [&](double x) { return base > 0 ? x / base : 0.0; };
    out["trace.run_overhead"] = over_base(traced);
    out["machine.skip_speedup"] = over_base(noskip);
    // 0 marks a workload that runs on one host thread (no ablation).
    out["machine.thread_speedup"] = threaded ? over_base(onethread) : 0.0;
    return out;
}

void
writeFingerprint(std::ostream &os, uint64_t seed, uint32_t host_threads)
{
#if defined(__clang__)
    const char *compiler = "clang++";
#elif defined(__GNUC__)
    const char *compiler = "g++";
#else
    const char *compiler = "unknown";
#endif
    os << "{\"nproc\":" << hostCores() << ",\"compiler\":";
    json::writeString(os, compiler);
    os << ",\"compiler_version\":";
    json::writeString(os, __VERSION__);
    os << ",\"build_type\":";
    json::writeString(os, PERFBENCH_BUILD_TYPE);
    os << ",\"host_threads\":" << host_threads << ",\"seed\":" << seed
       << "}";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux reports KiB
}

int
runWorkload(const std::string &name, uint64_t seed, double seconds,
            bool trace)
{
    std::vector<Job> jobs = workloadJobs(name);
    if (jobs.empty()) {
        std::fprintf(stderr, "april_perfbench: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }

    std::vector<std::string> errors;
    std::vector<Rep> reps;
    auto start = Clock::now();
    // At least three repetitions, so the median is of more than one
    // sample, unless repetitions are so slow that three would outlast
    // three times the budget.
    auto more = [&] {
        double t = secondsSince(start);
        return t < seconds || (reps.size() < 3 && t < 3 * seconds);
    };
    while (more())
        reps.push_back(runRep(jobs, seed, reps.empty() ? nullptr
                                                       : &reps.front(),
                              errors));
    const double rss = peakRssMb();

    uint64_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
    }

    // The recorded counters are taken at the default seed; a traced run
    // at another seed compares a repetition at that seed instead.
    std::optional<Rep> reference;
    std::map<std::string, double> traced;
    if (trace) {
        if (seed != kDefaultSeed) {
            std::vector<std::string> ignored;
            reference = runRep(jobs, kDefaultSeed, nullptr, ignored);
        }
        traced = tracedPass(jobs, seed, attempted, failed, errors);
    }

    std::ostream &os = std::cout;
    os << "{\"workload\":";
    json::writeString(os, name);
    os << ",\"fingerprint\":";
    writeFingerprint(os, seed, reps.front().hostThreads);
    os << ",\"peak_rss_mb\":";
    json::writeNumber(os, rss);
    os << ",\"reps\":[";
    for (size_t i = 0; i < reps.size(); ++i) {
        Rep &r = reps[i];
        std::map<std::string, double> spans;
        for (int p = 0; p < kNumPhases; ++p)
            spans[kPhaseNames[p]] = r.span[p];
        os << (i ? "," : "") << "{\"wall_s\":";
        json::writeNumber(os, r.wall);
        os << ",\"spans\":";
        writeObject(os, spans);
        os << ",\"sim_cycles\":";
        json::writeNumber(os, r.counters["sim_cycles"]);
        os << ",\"digest\":\"" << hexDigest(repDigest(r)) << "\"}";
    }
    os << "],\"stats.json_bytes\":";
    json::writeNumber(os, reps.front().jsonBytes);
    os << ",\"mem.image_mb\":";
    json::writeNumber(os, reps.front().imageMb);
    os << ",\"counters\":";
    writeCounters(os, reps.front());
    if (reference) {
        os << ",\"reference_counters\":";
        writeCounters(os, *reference);
    }
    if (trace) {
        os << ",\"traced\":";
        writeObject(os, traced);
    }
    os << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i) {
        os << (i ? "," : "");
        json::writeString(os, errors[i]);
    }
    os << "]}" << std::endl;
    return 0;
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/**
 * 1. One table3_alewife program run phase by phase (as the timed loop
 *    does) and through runMultProgram must give byte-identical stats
 *    JSON: the benchmark times the program the driver runs.
 * 2. A wrong oracle value and a too-small halt budget must each be
 *    counted as a failed run, not crash the harness.
 */
int
selfTest()
{
    int bad = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("self-test: %s: %s\n", ok ? "ok" : "FAILED",
                    what.c_str());
        bad += ok ? 0 : 1;
    };

    const Job job = workloadJobs("table3_alewife").front();
    RunResult phased = runJob(job, kDefaultSeed, Engine{});
    expect(phased.ok, "phase-by-phase run of " + job.name +
                          " passes its oracle " + phased.error);

    DriverOptions opts = DriverOptions::april(
        mult::CompileOptions::FutureMode::Lazy, job.nodes);
    opts.alewife = true;
    opts.netDim = 2;
    opts.netRadix = 4;
    opts.wordsPerNode = job.wordsPerNode;
    opts.hostThreads = job.hostThreads;
    opts.seed = kDefaultSeed;
    opts.maxCycles = job.maxCycles;
    DriverResult d = runMultProgram(job.source, opts);
    expect(d.statsJson == phased.statsJson,
           "stats JSON of " + job.name + " matches runMultProgram (" +
               std::to_string(phased.statsJson.size()) + " vs " +
               std::to_string(d.statsJson.size()) + " bytes)");

    std::vector<std::string> errors;
    Job wrong = job;
    wrong.expected += 1;
    Rep rep = runRep({wrong}, kDefaultSeed, nullptr, errors);
    expect(rep.attempted == 1 && rep.failed == 1,
           "a wrong oracle value counts as one failed run");

    Job starved = job;
    starved.maxCycles = 1000;
    rep = runRep({starved}, kDefaultSeed, nullptr, errors);
    expect(rep.attempted == 1 && rep.failed == 1,
           "a missed halt budget counts as one failed run");
    for (const std::string &e : errors)
        std::printf("self-test:   (expected failure) %s\n", e.c_str());

    std::printf("self-test: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: april_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace]\n"
                 "       april_perfbench --self-test\n"
                 "workloads: table3_perfect table3_alewife "
                 "coherent16_mt\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            trace = true;
        } else if (a == "--self-test") {
            self_test = true;
        } else {
            usage();
            return 2;
        }
    }
    QuietScope quiet;
    if (self_test)
        return selfTest();
    if (workload.empty()) {
        usage();
        return 2;
    }
    return runWorkload(workload, seed, seconds, trace);
}
