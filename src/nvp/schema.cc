#include "nvp/schema.hh"

#include <algorithm>
#include <tuple>
#include <type_traits>

#include "nvp/experiment.hh"
#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

template <class E, const char *(*Name)(E),
          bool (*Parse)(const std::string &, E &)>
constexpr EnumCodec
codec(const char *what, const char *valid)
{
    return {
        what, valid,
        [](const void *f) { return Name(*static_cast<const E *>(f)); },
        [](const std::string &s, void *f) {
            return Parse(s, *static_cast<E *>(f));
        },
        [](const void *f) {
            return static_cast<unsigned>(*static_cast<const E *>(f));
        },
        [](void *f, unsigned v) { *static_cast<E *>(f) = static_cast<E>(v); },
    };
}

/** The codec of enum type @p E; every enum a table holds has one. */
template <class E>
constexpr EnumCodec kCodec = {};

template <>
constexpr EnumCodec kCodec<DesignKind> =
    codec<DesignKind, designKindName, designKindFromName>("design",
                                                          nullptr);
template <>
constexpr EnumCodec kCodec<energy::TraceKind> =
    codec<energy::TraceKind, energy::traceKindName,
          energy::traceKindFromName>("power trace", nullptr);
template <>
constexpr EnumCodec kCodec<StepMode> =
    codec<StepMode, stepModeName, stepModeFromName>(
        "step mode", "percycle|skip_ahead");
template <>
constexpr EnumCodec kCodec<cache::ReplPolicy> =
    codec<cache::ReplPolicy, cache::replPolicyName,
          cache::replPolicyFromName>("replacement policy", "lru|fifo");
template <>
constexpr EnumCodec kCodec<mem::NvmModel> =
    codec<mem::NvmModel, mem::nvmModelName, mem::nvmModelFromName>(
        "NVM model", "legacy|banked");
template <>
constexpr EnumCodec kCodec<mem::NvmWearScheme> =
    codec<mem::NvmWearScheme, mem::nvmWearSchemeName,
          mem::nvmWearSchemeFromName>("wear scheme", "none|rotate");

template <class T>
constexpr FieldKind
kindOf()
{
    using telemetry::IntervalRollup;
    if constexpr (std::is_same_v<T, bool>)
        return FieldKind::Bool;
    else if constexpr (std::is_same_v<T, unsigned>)
        return FieldKind::Unsigned;
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        return FieldKind::U64;
    else if constexpr (std::is_same_v<T, double>)
        return FieldKind::Double;
    else if constexpr (std::is_same_v<T, std::string>)
        return FieldKind::String;
    else if constexpr (std::is_enum_v<T>)
        return FieldKind::Enum;
    else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>)
        return FieldKind::U64List;
    else if constexpr (std::is_same_v<T, energy::EnergyMeter>)
        return FieldKind::Meter;
    else if constexpr (std::is_same_v<T, std::vector<IntervalRollup>>)
        return FieldKind::Rollups;
    else
        static_assert(sizeof(T) == 0, "no FieldKind for this type");
}

template <class M>
struct MemberOf;

template <class C, class T>
struct MemberOf<T C::*>
{
    using Class = C;
    using Type = T;
};

/** Follow a member-pointer path (record.*a.*b...) from @p record. */
template <auto First, auto... Rest>
void *
walk(void *record)
{
    using C = typename MemberOf<decltype(First)>::Class;
    auto &m = static_cast<C *>(record)->*First;
    if constexpr (sizeof...(Rest) == 0)
        return &m;
    else
        return walk<Rest...>(&m);
}

/**
 * The row for the member at the end of @p Path; a non-empty @p help
 * makes it a sweep parameter.
 */
template <auto... Path>
Field
row(std::string key, std::string help = {}, double min = 0.0,
    bool (*check)(double, std::string &) = nullptr)
{
    using T = typename MemberOf<std::tuple_element_t<
        sizeof...(Path) - 1, std::tuple<decltype(Path)...>>>::Type;
    Field f;
    f.key = std::move(key);
    f.kind = kindOf<T>();
    f.locate = walk<Path...>;
    if constexpr (std::is_enum_v<T>) {
        static_assert(kCodec<T>.what, "enum without codec");
        f.codec = &kCodec<T>;
    }
    f.help = std::move(help);
    f.min = min;
    f.check = check;
    return f;
}

/** A row's key: @p key when given, else the member name. */
const char *
partKey(const char *member, const char *key = nullptr)
{
    return key ? key : member;
}

// Rows keyed by member name: R::M as "M", SystemConfig::G::M as "G.M".
#define WLC_ROW(R, M, ...) row<&R::M>(#M __VA_OPT__(, ) __VA_ARGS__)
#define WLC_KNOB(G, M, ...)                                             \
    row<&SystemConfig::G, &decltype(SystemConfig::G)::M>(             \
        #G "." #M __VA_OPT__(, ) __VA_ARGS__)
// A counter of the component stats struct RunResult::P, keyed "M"
// unless a key is given.
#define WLC_PART(P, M, ...)                                             \
    row<&RunResult::P, &decltype(RunResult::P)::M>(                   \
        partKey(#M __VA_OPT__(, ) __VA_ARGS__))

/**
 * The CacheParams sub-table, shared by "dcache.*" and "icache.*".
 * Both sweep their size; @p sweep_geometry also opens associativity,
 * line size and replacement policy to sweeps.
 */
template <auto Cache>
void
addCacheFields(FieldTable &t, const std::string &prefix,
               const std::string &label, bool sweep_geometry)
{
    auto geo = [&](const char *help) {
        return sweep_geometry ? label + " " + help : std::string();
    };
#define WLC_CACHE(M, ...)                                               \
    t.push_back(row<Cache, &cache::CacheParams::M>(                    \
        prefix + "." #M __VA_OPT__(, ) __VA_ARGS__))
    WLC_CACHE(size_bytes, label + " size in bytes", 1);
    WLC_CACHE(assoc, geo("associativity"), 1);
    WLC_CACHE(line_bytes, geo("line size in bytes"), 1);
    WLC_CACHE(repl, geo("replacement policy: lru|fifo"));
    WLC_CACHE(hit_latency);
    WLC_CACHE(write_hit_latency);
    WLC_CACHE(miss_lookup_latency);
    WLC_CACHE(access_energy_read);
    WLC_CACHE(access_energy_write);
    WLC_CACHE(line_fill_energy);
    WLC_CACHE(line_read_energy);
    WLC_CACHE(leakage_watts);
    WLC_CACHE(lru_update_energy);
#undef WLC_CACHE
}

bool
checkWatermark(double v, std::string &why)
{
    if (v > 0.0 && v < 1.0)
        return true;
    why = "compaction_watermark must be in (0, 1)";
    return false;
}

} // anonymous namespace

const FieldTable &
configFields()
{
    using C = SystemConfig;
    static const FieldTable rows = [] {
        FieldTable t = { WLC_ROW(C, design), WLC_ROW(C, step_mode) };
        addCacheFields<&C::dcache>(t, "dcache", "L1 D-cache", true);
        addCacheFields<&C::icache>(t, "icache", "L1 I-cache", false);
        const Field rest[] = {
            WLC_KNOB(nvsram, backup_full),
            WLC_KNOB(nvsram, backup_line_energy),
            WLC_KNOB(nvsram, restore_line_energy),
            WLC_KNOB(nvsram, backup_line_latency),
            WLC_KNOB(nvsram, restore_line_latency),
            WLC_KNOB(nvsram_practical, migrate_line_energy),
            WLC_KNOB(nvsram_practical, migrate_line_latency),
            WLC_KNOB(replay, persist_queue_depth),
            WLC_KNOB(replay, region_events),
            WLC_KNOB(replay, commit_marker_addr),
            WLC_KNOB(wt_buffer, entries),
            WLC_KNOB(wt_buffer, cam_search_latency),
            WLC_KNOB(wt_buffer, cam_search_energy),
            WLC_KNOB(wt_buffer, buffer_leakage_watts),
            WLC_KNOB(wl, dq_size, "WL-Cache DirtyQueue slots", 1),
            WLC_KNOB(wl, maxline, "WL-Cache dirty-line bound (maxline)", 1),
            WLC_KNOB(wl, waterline_gap,
                     "WL-Cache waterline gap (waterline = maxline - gap)"),
            WLC_KNOB(wl, dq_repl, "DirtyQueue replacement policy: lru|fifo"),
            WLC_KNOB(wl, dq_access_energy),
            WLC_KNOB(wl, dq_leakage_watts),
            WLC_KNOB(wl, dq_lru_search_energy),
            WLC_KNOB(wl, eager_evict_cleanup),
            WLC_KNOB(wl, dq_cam_search_energy),
            WLC_KNOB(adaptive, enabled,
                     "boot-time adaptive maxline management"),
            WLC_KNOB(adaptive, delta),
            WLC_KNOB(adaptive, maxline_min, "adaptive maxline lower bound",
                     1),
            WLC_KNOB(adaptive, maxline_max, "adaptive maxline upper bound",
                     1),
            WLC_KNOB(adaptive, timer_resolution_s),
            WLC_ROW(C, wl_dynamic,
                    "WL-Cache opportunistic dynamic adaptation"),
            WLC_KNOB(nvm, size_bytes),
            WLC_KNOB(nvm, banks, "NVM bank count (beat-interleaved)", 1),
            WLC_KNOB(nvm, t_rcd),
            WLC_KNOB(nvm, t_cl),
            WLC_KNOB(nvm, t_burst),
            WLC_KNOB(nvm, t_wr),
            WLC_KNOB(nvm, t_wtr),
            WLC_KNOB(nvm, read_energy_per_byte),
            WLC_KNOB(nvm, write_energy_per_byte),
            WLC_KNOB(nvm, activate_energy),
            WLC_KNOB(nvm, model, "NVM timing model: legacy|banked"),
            WLC_KNOB(nvm, queue_depth,
                     "per-bank request queue depth (banked model)", 1),
            WLC_KNOB(nvm, row_bytes, "NVM row-buffer size in bytes", 1),
            WLC_KNOB(nvm, write_verify_retries),
            WLC_KNOB(nvm, track_wear, "track per-line NVM write counts"),
            WLC_KNOB(nvm, wear_line_bytes),
            WLC_KNOB(nvm, endurance_writes,
                     "per-line write-cycle budget (lifetime headroom "
                     "baseline)",
                     1),
            WLC_KNOB(nvm, wear_scheme,
                     "wear-leveling address rotation: none|rotate"),
            WLC_KNOB(nvm, rotate_period_writes,
                     "writes between wear-rotation steps", 1),
            WLC_KNOB(nvm, hybrid_lines,
                     "STT-RAM hybrid fast-region slots (0 disables)"),
            WLC_KNOB(nvm, hybrid_promote_writes,
                     "writes to a line before hybrid promotion", 1),
            WLC_KNOB(nvm, hybrid_access_latency),
            WLC_KNOB(nvm, hybrid_read_energy_per_byte),
            WLC_KNOB(nvm, hybrid_write_energy_per_byte),
            WLC_KNOB(log, region_lines,
                     "WL-Log journal region size in record slots", 8),
            WLC_KNOB(log, segment_bytes,
                     "WL-Log compaction-segment size in bytes", 1),
            WLC_KNOB(log, compaction_watermark,
                     "mapped-line fraction that triggers WL-Log compaction",
                     0, checkWatermark),
            WLC_KNOB(core, compute_energy_per_insn),
            WLC_KNOB(core, leakage_watts),
            WLC_KNOB(platform, capacitance_f, "storage capacitor in farads",
                     1.0e-12),
            WLC_KNOB(platform, vmin),
            WLC_KNOB(platform, vmax),
            WLC_KNOB(platform, von, "restore (boot) voltage"),
            WLC_KNOB(platform, vbackup, "JIT-checkpoint voltage threshold"),
            WLC_KNOB(platform, harvest_efficiency),
            WLC_KNOB(platform, wl_vbackup_base),
            WLC_KNOB(platform, wl_vbackup_step),
            WLC_KNOB(platform, wl_von_base),
            WLC_KNOB(platform, wl_von_step),
            WLC_KNOB(platform, wl_threshold_anchor),
            WLC_KNOB(platform, nvff_energy_per_byte),
            WLC_KNOB(platform, nvff_restore_energy_per_byte),
            WLC_KNOB(platform, reboot_latency_cycles),
            WLC_ROW(C, validate_consistency),
            WLC_ROW(C, inject_checkpoint_skip),
            WLC_ROW(C, inject_register_skip),
            WLC_ROW(C, check_load_values),
            WLC_ROW(C, max_outages, "give up after this many power failures",
                    1),
            WLC_ROW(C, max_interval_rollups),
            WLC_ROW(C, forced_outage_cycles),
        };
        t.insert(t.end(), std::begin(rest), std::end(rest));
        return t;
    }();
    return rows;
}

const FieldTable &
specFields()
{
    using S = ExperimentSpec;
    static const FieldTable rows = {
        WLC_ROW(S, workload),
        WLC_ROW(S, scale, "workload input scale factor (>= 1)", 1),
        WLC_ROW(S, workload_seed, "workload input seed"),
        WLC_ROW(S, power),
        WLC_ROW(S, power_seed, "power trace seed"),
        WLC_ROW(S, no_failure),
    };
    return rows;
}

const FieldTable &
resultFields()
{
    using R = RunResult;
    static const FieldTable rows = [] {
        FieldTable t;
        auto group = [&t](const std::string &name,
                          std::initializer_list<Field> fields) {
            for (Field f : fields) {
                f.group = name;
                t.push_back(std::move(f));
            }
        };
        Field stats = row<&R::stats_json>("stats");
        stats.kind = FieldKind::JsonText;
        group("", {
            WLC_ROW(R, workload),
            WLC_ROW(R, design),
            WLC_ROW(R, completed),
            WLC_ROW(R, on_cycles),
            WLC_ROW(R, off_seconds),
            WLC_ROW(R, total_seconds),
            WLC_ROW(R, instructions),
            WLC_ROW(R, trace_events),
            WLC_ROW(R, replayed_events),
            WLC_ROW(R, outages),
            WLC_ROW(R, reserve_violations),
            row<&R::meter>("energy_j"),
            WLC_ROW(R, nvm_writes),
            WLC_ROW(R, nvm_bytes_written),
            WLC_ROW(R, nvm_reads),
        });
        group("nvm_device", {
            WLC_PART(nvm_device, bank_conflicts),
            WLC_PART(nvm_device, queue_stall_cycles),
            WLC_PART(nvm_device, turnaround_stall_cycles),
            WLC_PART(nvm_device, wear_max),
            WLC_PART(nvm_device, wear_lines_touched),
            WLC_PART(nvm_device, lifetime_headroom),
            WLC_PART(nvm_device, write_p99_latency),
            WLC_PART(nvm_device, row_hits),
            WLC_PART(nvm_device, row_misses),
        });
        group("nvm_log", {
            WLC_PART(nvm_log, appends, "appended_records"),
            WLC_PART(nvm_log, append_bytes, "appended_bytes"),
            WLC_PART(nvm_log, replays),
            WLC_PART(nvm_log, replay_records, "replayed_records"),
            WLC_PART(nvm_log, replay_bytes, "replayed_bytes"),
            WLC_PART(nvm_log, compactions),
            WLC_PART(nvm_log, compacted_lines),
            WLC_PART(nvm_log, compacted_bytes),
            WLC_PART(nvm_log, live_lines),
        });
        group("", {
            WLC_ROW(R, dcache_load_hit_rate),
            WLC_ROW(R, dcache_store_hit_rate),
            WLC_ROW(R, store_stall_cycles),
        });
        group("wl", {
            WLC_PART(wl, reconfigurations),
            WLC_PART(wl, maxline_min_seen),
            WLC_PART(wl, maxline_max_seen),
            WLC_PART(wl, prediction_accuracy),
            WLC_PART(wl, avg_dirty_at_ckpt),
            WLC_PART(wl, writebacks_per_on_period),
            WLC_PART(wl, dyn_maxline_raises),
        });
        group("oracle", {
            WLC_ROW(R, consistency_checks),
            WLC_ROW(R, consistency_violations),
            WLC_ROW(R, load_value_mismatches),
            WLC_ROW(R, final_state_correct),
        });
        group("verify", {
            WLC_ROW(R, forced_outages),
            WLC_ROW(R, register_restore_mismatches),
            WLC_ROW(R, divergence),
            WLC_ROW(R, has_first_divergence),
            WLC_ROW(R, first_divergence_kind),
            WLC_ROW(R, first_divergence_addr),
            WLC_ROW(R, first_divergence_cycle),
            WLC_ROW(R, first_divergence_outage),
            WLC_ROW(R, final_state_digest),
        });
        group("", {
            stats,
            WLC_ROW(R, intervals),
            WLC_ROW(R, intervals_dropped),
        });
        return t;
    }();
    return rows;
}

const std::vector<const Field *> &
resultFieldsJsonOrder()
{
    // Both formats predate the table and order three things
    // differently. Snapshots and result caches persist both orders,
    // so they are reproduced here, in one place:
    //   - JSON writes nvm_reads before nvm_bytes_written;
    //   - JSON writes intervals_dropped before intervals;
    //   - JSON writes the meter last ("energy_j"); RES writes it
    //     right after reserve_violations.
    static const std::vector<const Field *> order = [] {
        std::vector<const Field *> v;
        for (const Field &f : resultFields())
            v.push_back(&f);
        auto at = [&v](const char *key) {
            return std::find_if(v.begin(), v.end(),
                                [key](auto *f) { return f->key == key; });
        };
        std::iter_swap(at("nvm_bytes_written"), at("nvm_reads"));
        std::iter_swap(at("intervals"), at("intervals_dropped"));
        const auto meter = at("energy_j");
        std::rotate(meter, meter + 1, v.end());
        return v;
    }();
    return order;
}

const FieldTable &
rollupFields()
{
    using I = telemetry::IntervalRollup;
    static const FieldTable rows = {
        WLC_ROW(I, index),
        WLC_ROW(I, start_cycle),
        WLC_ROW(I, end_cycle),
        WLC_ROW(I, instructions),
        WLC_ROW(I, nvm_writes),
        WLC_ROW(I, cleans),
        WLC_ROW(I, dirty_high_water),
        WLC_ROW(I, checkpoint_j),
        WLC_ROW(I, harvested_j),
    };
    return rows;
}

#undef WLC_ROW
#undef WLC_KNOB

const Field &
fieldByKey(const FieldTable &fields, const std::string &key)
{
    for (const Field &f : fields)
        if (f.key == key)
            return f;
    panic("no field '%s'", key.c_str());
}

void
dumpFields(std::ostream &os, const FieldTable &fields, const void *record)
{
    for (const Field &f : fields) {
        os << f.key << '=';
        switch (f.kind) {
          case FieldKind::Unsigned:
            os << f.ref<unsigned>(record);
            break;
          case FieldKind::U64:
            os << f.ref<std::uint64_t>(record);
            break;
          case FieldKind::Double:
            os << util::fmtExact(f.ref<double>(record));
            break;
          case FieldKind::Bool:
            os << (f.ref<bool>(record) ? 1 : 0);
            break;
          case FieldKind::String:
            os << f.ref<std::string>(record);
            break;
          case FieldKind::Enum:
            os << f.codec->name(f.at(record));
            break;
          case FieldKind::U64List: {
            const auto &list = f.ref<std::vector<std::uint64_t>>(record);
            for (std::size_t i = 0; i < list.size(); ++i)
                os << (i ? "," : "") << list[i];
            break;
          }
          default:
            panic("field '%s' has no key text", f.key.c_str());
        }
        os << '\n';
    }
}

} // namespace nvp
} // namespace wlcache
