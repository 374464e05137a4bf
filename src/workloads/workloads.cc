#include "workloads/workloads.hh"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "sim/logging.hh"
#include "workloads/kernels.hh"

namespace wlcache {
namespace workloads {

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> table = {
        // --- MediaBench-class (paper order) ---
        { "adpcmdecode", "Media", 6, runAdpcmDecode },
        { "adpcmencode", "Media", 6, runAdpcmEncode },
        { "epic", "Media", 14, runEpic },
        { "g721decode", "Media", 10, runG721Decode },
        { "g721encode", "Media", 10, runG721Encode },
        { "gsmdecode", "Media", 12, runGsmDecode },
        { "gsmencode", "Media", 14, runGsmEncode },
        { "jpegdecode", "Media", 16, runJpegDecode },
        { "jpegencode", "Media", 16, runJpegEncode },
        { "mpeg2decode", "Media", 18, runMpeg2Decode },
        { "mpeg2encode", "Media", 20, runMpeg2Encode },
        { "pegwitdecrypt", "Media", 8, runPegwitDecrypt },
        { "sha", "Media", 6, runSha },
        { "susancorners", "Media", 10, runSusanCorners },
        { "susanedges", "Media", 10, runSusanEdges },
        // --- MiBench-class ---
        { "basicmath", "MiBench", 8, runBasicmath },
        { "qsort", "MiBench", 6, runQsort },
        { "dijkstra", "MiBench", 6, runDijkstra },
        { "FFT", "MiBench", 10, runFft },
        { "FFT_i", "MiBench", 10, runFftInverse },
        { "patricia", "MiBench", 8, runPatricia },
        { "rijndael_d", "MiBench", 12, runRijndaelDecrypt },
        { "rijndael_e", "MiBench", 12, runRijndaelEncrypt },
    };
    return table;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::uint64_t
BuiltTrace::totalInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &ev : events)
        n += ev.computeGap + 1;
    return n;
}

double
BuiltTrace::storeFraction() const
{
    if (events.empty())
        return 0.0;
    std::uint64_t stores = 0;
    for (const auto &ev : events)
        if (ev.op == MemOp::Store)
            ++stores;
    return static_cast<double>(stores) /
        static_cast<double>(events.size());
}

namespace {

using TraceKey = std::tuple<std::string, unsigned, std::uint64_t>;

/** One cache slot: built once, by whichever caller gets there first. */
struct CachedTrace
{
    std::once_flag built;
    std::unique_ptr<BuiltTrace> trace;
};

/**
 * Process-wide trace cache, shared by every runner worker thread.
 * The mutex guards only the map; a kernel runs outside it, under its
 * slot's once-latch, so a lookup never waits for another key's build
 * and concurrent callers of one key wait for its single build. The
 * map's node-based storage keeps slots (and the BuiltTrace references
 * handed out) stable across inserts, and a built trace is immutable
 * afterwards, so readers need no lock.
 */
std::mutex trace_cache_mutex;

std::map<TraceKey, CachedTrace> &
traceCache()
{
    static std::map<TraceKey, CachedTrace> cache;
    return cache;
}

std::unique_ptr<BuiltTrace>
buildTrace(const WorkloadInfo &info, unsigned scale, std::uint64_t seed)
{
    GuestEnv env(seed);
    info.run(env, scale);
    env.finish();

    auto built = std::make_unique<BuiltTrace>();
    built->name = info.name;
    built->info = &info;
    built->seed = seed;
    built->scale = scale;
    built->image_base = env.dataBase();
    built->events = std::move(env).trace();
    built->initial_image = std::move(env).initialImage();
    built->final_image = std::move(env).finalImage();
    wlc_assert(!built->events.empty(), "workload '%s' recorded nothing",
               info.name);
    return built;
}

} // anonymous namespace

const BuiltTrace &
getTrace(const std::string &name, unsigned scale, std::uint64_t seed)
{
    wlc_assert(scale >= 1);
    const WorkloadInfo *info = findWorkload(name);
    if (!info)
        fatal("unknown workload '%s'", name.c_str());

    CachedTrace *slot = nullptr;
    {
        const std::lock_guard<std::mutex> lock(trace_cache_mutex);
        slot = &traceCache()[TraceKey{ name, scale, seed }];
    }
    std::call_once(slot->built, [&] {
        slot->trace = buildTrace(*info, scale, seed);
    });
    return *slot->trace;
}

void
clearTraceCache()
{
    const std::lock_guard<std::mutex> lock(trace_cache_mutex);
    traceCache().clear();
}

} // namespace workloads
} // namespace wlcache
