// cbs end-to-end benchmark. Runs one seeded workload against cbs's public
// API for a fixed wall-clock time and prints every metric by name with its
// unit; the last line of stdout is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//   cbs_perfbench --workload resonant_assay|static_assay|yield_study
//                 --seed N --seconds S --trace 0|1
//                 [--record FILE] [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the traced run: spans around every call into a layer, kernel replays,
// reconciliation and the determinism checks; it reports the per-layer rows
// of all three workloads (the named workload gets most of the time).
// Normally started through run.py, which builds it and strips CBS_* from
// the environment so every workload runs with the program's defaults.
//
// The thread pool has min(4, nproc - 1) workers: parallel_for's caller
// runs tasks too, so the pooled workloads use at most nproc threads.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

// The operations run in slices of kSliceSeconds. After each slice the host
// control kernel runs once and set-ups repeat for about kSetupSliceSeconds,
// so set-up samples come from the whole run: the host's speed changes in
// stretches of tens to hundreds of ms, and samples taken in one stretch
// would read one of its states. setup_s is the median of the samples. A
// sample is the mean of a batch of set-ups lasting about
// kSetupBatchSeconds, so microsecond set-ups are not read at the clock's
// resolution.
constexpr double kSliceSeconds = 1.0;
constexpr double kSetupSliceSeconds = 0.05;
constexpr double kSetupBatchSeconds = 2e-3;
constexpr std::size_t kTracedSetupReps = 3;

struct Options {
    Kind workload = Kind::resonant_assay;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string record;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

std::size_t nproc() { return std::max(1U, std::thread::hardware_concurrency()); }
std::size_t pool_size() { return std::min<std::size_t>(4, nproc() - 1); }

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "cbs_perfbench: " << why
              << "\nusage: cbs_perfbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--record FILE] [--git-sha SHA] [--source-digest HEX]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                const auto k = parse_kind(v);
                if (!k) usage("unknown workload '" + v + "'");
                o.workload = *k;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
                have_seconds = o.seconds > 0.0 && o.seconds <= 600.0;
            } else if (a == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                o.trace = v == "1";
                have_trace = true;
            } else if (a == "--record") {
                o.record = v;
            } else if (a == "--git-sha") {
                o.git_sha = v;
            } else if (a == "--source-digest") {
                o.source_digest = v;
            } else {
                usage("unknown option " + a);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds (0 < S <= 600) and --trace are required");
    }
    return o;
}

/// Every CBS_* variable in the environment, as NAME=value.
std::vector<std::string> cbs_env() {
    std::vector<std::string> out;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::string_view(*e).starts_with("CBS_")) out.emplace_back(*e);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string quoted(std::string_view s) { return "\"" + cbs::json::escape(s) + "\""; }

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the launcher's memory from before exec.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string context_json(const Options& o, const std::vector<std::string>& env) {
    std::ostringstream s;
    s << "{\"workload\": " << quoted(kind_name(o.workload)) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << number(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"git_sha\": " << quoted(o.git_sha)
      << ", \"source_digest\": " << quoted(o.source_digest)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"flags\": " << quoted(PERFBENCH_FLAGS) << ", \"cbs_env\": [";
    for (std::size_t i = 0; i < env.size(); ++i) s << (i ? ", " : "") << quoted(env[i]);
    s << "], \"nproc\": " << nproc() << ", \"pool_size\": " << pool_size() << "}";
    return s.str();
}

struct Outcome {
    Metrics metrics;  ///< the rows BENCHMARK.json lists for this mode
    Metrics extra;    ///< further rows, printed and recorded only
    FailureLedger failures;
    std::vector<double> op_s;  ///< per-operation wall times (recorded only)
    std::vector<Span> spans;   ///< the named workload's traced pass (recorded only)
};

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

/// CPU time of the calling thread.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Steal and total jiffies of the whole machine (first line of
/// /proc/stat); {0, 0} when unreadable.
struct CpuJiffies {
    double steal = 0.0;
    double total = 0.0;
};
CpuJiffies cpu_jiffies() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuJiffies j;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8 && stat; ++field) {
        double v = 0.0;
        stat >> v;
        j.total += v;
        if (field == 7) j.steal = v;
    }
    return stat && cpu == "cpu" ? j : CpuJiffies{};
}

/// Wall time of a fixed kernel that touches no cbs code (xorshift draws
/// through a two-pole filter into a 32 KiB buffer, the shape of the signal
/// chains): a host speed control, so a slower host shows apart from a
/// slower program.
double host_ref_s() {
    static std::vector<double> buf(4096);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double y1 = 0.0, y2 = 0.0;
    for (int rep = 0; rep < 1000; ++rep) {
        for (double& b : buf) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const double u = static_cast<double>(x >> 11) * 0x1p-53 - 0.5;
            const double y = u + 1.6 * y1 - 0.8 * y2;
            y2 = y1;
            y1 = y;
            b = 0.5 * b + y;
        }
    }
    const double s = seconds_between(t0, Clock::now());
    volatile double sink = buf[x % buf.size()];
    (void)sink;
    return s;
}

/// Runs `w` until `seconds` of wall time passed (at least `min_ops`
/// operations); returns the per-operation wall times and, when `cpu_s` is
/// given, the calling thread's CPU time per operation.
std::vector<double> run_ops(Workload& w, Tracer& tracer, FailureLedger& failures,
                            Digest& digest, double seconds, std::size_t min_ops,
                            std::size_t max_ops = SIZE_MAX,
                            std::vector<double>* cpu_s = nullptr) {
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.size() < max_ops &&
           (times.size() < min_ops || seconds_between(start, Clock::now()) < seconds)) {
        tracer.set_op(times.size());
        failures.begin_op();
        const double c0 = cpu_s ? thread_cpu_s() : 0.0;
        const auto t0 = Clock::now();
        w.op(tracer, failures, digest);
        times.push_back(seconds_between(t0, Clock::now()));
        if (cpu_s) cpu_s->push_back(thread_cpu_s() - c0);
        failures.end_op();
    }
    return times;
}

Outcome measure(const Options& o) {
    Outcome out;
    Tracer off(false);
    // One set-up sample is the mean over `n` set-ups into `w`, each timed
    // alone; the previous workload in `w` is torn down outside the timed
    // region.
    const auto setup_batch = [&](std::unique_ptr<Workload>& w, std::size_t n) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            w.reset();
            const auto t0 = Clock::now();
            w = make_workload(o.workload, o.seed, pool_size());
            w->setup(off);
            total += seconds_between(t0, Clock::now());
        }
        return total / static_cast<double>(n);
    };
    // The operations run on `w`; size the set-up batches from the fastest
    // of the three warm-up set-ups that make it.
    std::unique_ptr<Workload> w;
    const double warm = std::min({setup_batch(w, 1), setup_batch(w, 1), setup_batch(w, 1)});
    const auto batch_size = static_cast<std::size_t>(
        std::clamp(std::ceil(kSetupBatchSeconds / warm), 1.0, 10000.0));

    std::vector<double> times, cpu, host_ref, setup_s;
    Digest digest;
    const std::size_t min_ops = std::max<std::size_t>(11, w->min_ops());
    const CpuJiffies j0 = cpu_jiffies();
    const auto start = Clock::now();
    host_ref.push_back(host_ref_s());
    while (times.size() < min_ops || seconds_between(start, Clock::now()) < o.seconds) {
        const double left = o.seconds - seconds_between(start, Clock::now());
        const auto slice = run_ops(*w, off, out.failures, digest,
                                   std::min(kSliceSeconds, left), 1, SIZE_MAX, &cpu);
        times.insert(times.end(), slice.begin(), slice.end());
        host_ref.push_back(host_ref_s());
        // Set-up samples between the slices, on a spare workload that is
        // gone again before the next slice.
        std::unique_ptr<Workload> spare;
        for (double total = 0.0; total < kSetupSliceSeconds;) {
            setup_s.push_back(setup_batch(spare, batch_size));
            total += setup_s.back() * static_cast<double>(batch_size);
        }
    }
    const CpuJiffies j1 = cpu_jiffies();

    const double busy = sum(times);
    const Tail tail = tail_percentile(times);
    out.metrics["setup_s"] = {median(setup_s), "s"};
    out.metrics["ops_per_s"] = {static_cast<double>(times.size()) / busy, "1/s"};
    out.metrics["op_p50_ms"] = {1e3 * median(times), "ms"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out.extra[std::string(w->work_metric())] = {w->work() / busy, std::string(w->work_unit())};
    w->extra_rows(out.extra);
    out.extra["op_tail_ms"] = {1e3 * tail.value, "ms"};
    out.extra["op_tail_percentile"] = {tail.percentile, "%"};
    out.extra["op_tail_beyond"] = {static_cast<double>(tail.beyond), "count"};
    out.extra["ops"] = {static_cast<double>(times.size()), "count"};
    out.extra["setup_samples"] = {static_cast<double>(setup_s.size()), "count"};
    out.extra["setup_batch"] = {static_cast<double>(batch_size), "count"};
    // Host drift controls: main-thread CPU time per operation (equals the
    // wall time on a single-threaded workload unless the host takes the
    // CPU away), the machine's steal share during the operations and the
    // fixed host kernel's time.
    out.extra["op_cpu_p50_ms"] = {1e3 * median(cpu), "ms"};
    if (j1.total > j0.total) {
        out.extra["host_steal_frac"] = {(j1.steal - j0.steal) / (j1.total - j0.total), "ratio"};
    }
    out.extra["host_ref_ms"] = {1e3 * median(host_ref), "ms"};
    out.op_s = times;
    return out;
}

/// The traced procedure for one workload within `budget` seconds: traced
/// set-ups, an untraced and a traced pass over the same operations (same
/// seed twice must give identical outputs; their wall-time ratio is the
/// tracing cost), a pass on a second seed, the pool-vs-serial checks and
/// the per-layer rows with kernel replays.
void trace_workload(Kind kind, const Options& o, double budget,
                    bool primary, Outcome& out) {
    Tracer off(false);
    Tracer setup_tracer(true);
    std::unique_ptr<Workload> a;
    for (std::size_t r = 0; r < kTracedSetupReps; ++r) {
        a.reset();
        a = make_workload(kind, o.seed, pool_size());
        a->setup(setup_tracer);
    }
    Digest digest_a;
    const auto times_a = run_ops(*a, off, out.failures, digest_a, 0.3 * budget, a->min_ops());
    a.reset();

    auto b = make_workload(kind, o.seed, pool_size());
    b->setup(off);
    Tracer op_tracer(true);
    Digest digest_b;
    const auto times_b =
        run_ops(*b, op_tracer, out.failures, digest_b, 0.0, times_a.size(), times_a.size());
    out.failures.begin_op();
    out.failures.check(digest_a.value() == digest_b.value(),
                       std::string(kind_name(kind)) +
                           ": the same seed twice gave different outputs");
    out.failures.end_op();

    {
        auto c = make_workload(kind, mix_seed(o.seed, 0x5ec0d), pool_size());
        c->setup(off);
        Digest digest_c;
        run_ops(*c, off, out.failures, digest_c, 0.1 * budget, c->min_ops());
    }

    b->pool_checks(out.failures, out.metrics);
    b->extra_rows(out.extra);
    b->layer_rows(self_times(setup_tracer.spans()), kTracedSetupReps,
                  self_times(op_tracer.spans()), times_b.size(), 0.2 * budget, out.metrics);
    if (primary) {
        out.metrics["obs.trace_overhead_frac"] = {sum(times_b) / sum(times_a) - 1.0, "ratio"};
        out.spans = op_tracer.spans();
    }
    out.extra[std::string(kind_name(kind)) + ".traced_ops"] = {
        static_cast<double>(times_b.size()), "count"};
}

Outcome trace(const Options& o) {
    Outcome out;
    // Every traced run reports every layer row: the named workload gets 60 %
    // of the time, the other two a short pass each.
    trace_workload(o.workload, o, 0.6 * o.seconds, true, out);
    for (const Kind k : kAllKinds) {
        if (k != o.workload) trace_workload(k, o, 0.2 * o.seconds, false, out);
    }
    return out;
}

std::string metrics_json(const Metrics& m) {
    std::ostringstream s;
    s << "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
        s << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << number(metric.value)
          << ", \"unit\": " << quoted(metric.unit) << "}";
        first = false;
    }
    s << "}";
    return s.str();
}

void print_rows(const char* title, const Metrics& m) {
    std::cout << title << "\n";
    for (const auto& [name, metric] : m) {
        std::printf("  %-32s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    }
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const Options o = parse(argc, argv);
    const auto env = cbs_env();
    if (!env.empty()) {
        std::cerr << "cbs_perfbench: workloads run with program defaults; unset";
        for (const auto& e : env) std::cerr << ' ' << e;
        std::cerr << '\n';
        return 2;
    }
    const std::string context = context_json(o, env);
    std::cout << "context " << context << std::endl;

    Outcome out;
    try {
        out = o.trace ? trace(o) : measure(o);
    } catch (const std::exception& e) {
        std::cerr << "cbs_perfbench: " << e.what() << '\n';
        return 1;
    }

    bool finite = true;
    for (const auto& [name, metric] : out.metrics) finite = finite && std::isfinite(metric.value);
    const bool correct = finite && out.failures.failed() == 0;
    out.extra["fail_frac"] = {out.failures.fail_frac(), "failed/attempted"};
    print_rows(o.trace ? "per-layer rows:" : "end-to-end metrics:", out.metrics);
    print_rows("also recorded:", out.extra);
    for (const auto& msg : out.failures.messages()) std::cout << "FAILED: " << msg << "\n";

    const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(out.failures.attempted()) +
                               ", \"failed\": " + std::to_string(out.failures.failed()) +
                               ", \"metrics\": " + metrics_json(out.metrics) + "}";
    if (!o.record.empty()) {
        std::ofstream f(o.record);
        f << "{\"context\": " << context << ", \"result\": " << result
          << ", \"extra\": " << metrics_json(out.extra) << ", \"op_ms\": [";
        for (std::size_t i = 0; i < out.op_s.size(); ++i) {
            f << (i ? ", " : "") << number(1e3 * out.op_s[i]);
        }
        f << "], \"spans\": [";
        for (std::size_t i = 0; i < out.spans.size(); ++i) {
            const Span& sp = out.spans[i];
            f << (i ? ", " : "") << "[" << quoted(sp.name) << ", " << number(sp.start_s) << ", "
              << number(sp.end_s) << ", " << sp.parent << ", " << sp.op << "]";
        }
        f << "]}\n";
        if (!f) std::cerr << "cbs_perfbench: could not write " << o.record << '\n';
    }
    std::cout << result << std::endl;
    return 0;
}
