/**
 * @file
 * One ordered field table per persisted record. Every format that
 * reads or writes one of these records loops over its table instead
 * of naming fields by hand:
 *   - configFields() and specFields(): the `key=value` text that spec
 *     keys and snapshot compat keys hash, and the sweep parameters of
 *     explore/sweep_spec (the rows with help text);
 *   - resultFields(): the snapshot "RES " section and the run-record
 *     JSON.
 * Row order is byte order: rows never move, and a new row needs the
 * matching version bump (kResultSchemaVersion, kRunRecordVersion,
 * SystemSnapshot::kFormatVersion).
 *
 * A result group may live in a component's own stats struct that
 * RunResult embeds (mem::NvmDeviceStats as nvm_device,
 * mem::NvmJournalStats as nvm_log, cache::WlRunStats as wl): its rows
 * point into the struct, and the component adds a counter by adding a
 * member and a row.
 */

#ifndef WLCACHE_NVP_SCHEMA_HH
#define WLCACHE_NVP_SCHEMA_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace wlcache {
namespace nvp {

/** Value type of a row; fixes how every format encodes it. */
enum class FieldKind : std::uint8_t
{
    Unsigned,  //!< unsigned (32-bit).
    U64,       //!< std::uint64_t, also Cycle, Addr and std::size_t.
    Double,
    Bool,
    String,
    Enum,      //!< Named enum, see EnumCodec.
    U64List,   //!< std::vector<std::uint64_t>.
    JsonText,  //!< std::string holding one compact JSON object.
    Meter,     //!< energy::EnergyMeter.
    Rollups,   //!< std::vector<telemetry::IntervalRollup>.
};

/** Names of one enum type, type-erased over the enum's storage. */
struct EnumCodec
{
    const char *what;   //!< What the names denote ("NVM model").
    const char *valid;  //!< Accepted names for diagnostics, or null.
    const char *(*name)(const void *field);
    /** Store the value named @p text at @p field; false if unknown. */
    bool (*parse)(const std::string &text, void *field);
    unsigned (*index)(const void *field);
    void (*setIndex)(void *field, unsigned value);
};

/** One row: a record member, its persisted key and its kind. */
struct Field
{
    std::string key;
    FieldKind kind = FieldKind::U64;
    /** The member's address inside a record of the table's type. */
    void *(*locate)(void *record) = nullptr;
    const EnumCodec *codec = nullptr;  //!< Enum rows only.

    // Input records (configFields, specFields): a row with help text
    // is a sweep parameter, accepting values >= min that pass check.
    std::string help;
    double min = 0.0;
    bool (*check)(double v, std::string &why) = nullptr;

    /** RunResult rows: enclosing JSON object, empty at top level. */
    std::string group;

    void *at(void *record) const { return locate(record); }

    const void *
    at(const void *record) const
    {
        return locate(const_cast<void *>(record));
    }

    template <class T>
    T &
    ref(void *record) const
    {
        return *static_cast<T *>(at(record));
    }

    template <class T>
    const T &
    ref(const void *record) const
    {
        return *static_cast<const T *>(at(record));
    }
};

using FieldTable = std::vector<Field>;

/** SystemConfig rows in config-dump order. */
const FieldTable &configFields();

/** ExperimentSpec rows in spec-key order (design and tweak excluded). */
const FieldTable &specFields();

/** The row of @p fields keyed @p key (panics when there is none). */
const Field &fieldByKey(const FieldTable &fields, const std::string &key);

/** RunResult rows in "RES " snapshot order. */
const FieldTable &resultFields();

/** The same rows in run-record JSON order (see schema.cc). */
const std::vector<const Field *> &resultFieldsJsonOrder();

/** telemetry::IntervalRollup rows (elements of a Rollups field). */
const FieldTable &rollupFields();

/**
 * Write one `key=value` line per row of @p fields for @p record: the
 * canonical text cache keys hash. Integers in decimal, doubles with
 * 17 significant digits, bools as 0/1, enums by name, lists
 * comma-separated.
 */
void dumpFields(std::ostream &os, const FieldTable &fields,
                const void *record);

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SCHEMA_HH
