#include "nvp/run_json.hh"

#include <cmath>
#include <sstream>

#include "nvp/schema.hh"
#include "sim/logging.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

std::string
num(double v)
{
    // JSON has no Inf/NaN literal: "%.17g" would print "inf" and the
    // strict reader would reject the record forever after (a poisoned
    // cache entry). Clamp non-finite values to 0 — every producer is
    // expected to have guarded its ratios already, this is the last
    // line of defence.
    return util::fmtExact(std::isfinite(v) ? v : 0.0);
}

/** Write the JSON value of field @p f of @p record. */
void
writeValue(std::ostream &os, const Field &f, const void *record)
{
    switch (f.kind) {
      case FieldKind::Unsigned:
        os << f.ref<unsigned>(record);
        return;
      case FieldKind::U64:
        os << f.ref<std::uint64_t>(record);
        return;
      case FieldKind::Double:
        os << num(f.ref<double>(record));
        return;
      case FieldKind::Bool:
        os << (f.ref<bool>(record) ? "true" : "false");
        return;
      case FieldKind::String:
        os << '"' << util::jsonEscape(f.ref<std::string>(record)) << '"';
        return;
      case FieldKind::Enum:
        os << '"' << f.codec->name(f.at(record)) << '"';
        return;
      case FieldKind::JsonText: {
        // Embedded verbatim: always a compact JSON object
        // (StatGroup::dumpJson or "{}"), so splicing it in keeps the
        // record well-formed and the reader round-trips it exactly.
        const std::string &text = f.ref<std::string>(record);
        os << (text.empty() ? "{}" : text);
        return;
      }
      case FieldKind::Rollups: {
        const auto &rollups =
            f.ref<std::vector<telemetry::IntervalRollup>>(record);
        os << '[';
        for (std::size_t i = 0; i < rollups.size(); ++i) {
            const char *sep = i ? ",\n    {" : "\n    {";
            for (const Field &rf : rollupFields()) {
                os << sep << '"' << rf.key << "\":";
                writeValue(os, rf, &rollups[i]);
                sep = ",";
            }
            os << '}';
        }
        os << (rollups.empty() ? "]" : "\n  ]");
        return;
      }
      case FieldKind::Meter: {
        const auto &meter = f.ref<energy::EnergyMeter>(record);
        os << "{\n";
        for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories;
             ++c) {
            const auto cat = static_cast<energy::EnergyCategory>(c);
            os << "    \"" << energy::energyCategoryName(cat)
               << "\": " << num(meter.get(cat)) << ",\n";
        }
        os << "    \"total\": " << num(meter.total()) << "\n  }";
        return;
      }
      case FieldKind::U64List:
        break;
    }
    panic("field '%s' has no JSON encoding", f.key.c_str());
}

bool
fail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

/** Read @p obj[f.key] into @p record; strict about presence and type. */
bool
readValue(const util::JsonValue &obj, const Field &f, void *record,
          std::string *err)
{
    using K = util::JsonValue::Kind;
    K want = K::Number;
    const char *what = "number";
    switch (f.kind) {
      case FieldKind::Bool:
        want = K::Bool, what = "bool";
        break;
      case FieldKind::String:
      case FieldKind::Enum:
        want = K::String, what = "string";
        break;
      case FieldKind::JsonText:
      case FieldKind::Meter:
        want = K::Object, what = "object";
        break;
      case FieldKind::Rollups:
        want = K::Array, what = "array";
        break;
      default:
        break;
    }
    const util::JsonValue *v = obj.get(f.key);
    if (!v || v->kind() != want)
        return fail(err, std::string("missing ") + what + " '" + f.key +
                             "'");

    switch (f.kind) {
      case FieldKind::Unsigned:
        f.ref<unsigned>(record) = static_cast<unsigned>(v->asU64());
        return true;
      case FieldKind::U64:
        f.ref<std::uint64_t>(record) = v->asU64();
        return true;
      case FieldKind::Double:
        f.ref<double>(record) = v->asDouble();
        return true;
      case FieldKind::Bool:
        f.ref<bool>(record) = v->asBool();
        return true;
      case FieldKind::String:
        f.ref<std::string>(record) = v->asString();
        return true;
      case FieldKind::Enum:
        return f.codec->parse(v->asString(), f.at(record)) ||
               fail(err, std::string("unknown ") + f.codec->what + " '" +
                             v->asString() + "'");
      case FieldKind::JsonText: {
        std::ostringstream compact;
        util::writeJsonCompact(compact, *v);
        f.ref<std::string>(record) = compact.str();
        return true;
      }
      case FieldKind::Rollups: {
        auto &rollups =
            f.ref<std::vector<telemetry::IntervalRollup>>(record);
        for (const util::JsonValue &e : v->items()) {
            if (!e.isObject())
                return fail(err, "'" + f.key + "' element is not an object");
            rollups.emplace_back();
            for (const Field &rf : rollupFields())
                if (!readValue(e, rf, &rollups.back(), err))
                    return false;
        }
        return true;
      }
      case FieldKind::Meter:
        for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories;
             ++c) {
            const auto cat = static_cast<energy::EnergyCategory>(c);
            const char *name = energy::energyCategoryName(cat);
            const util::JsonValue *j = v->get(name);
            if (!j || !j->isNumber())
                return fail(err, std::string("missing number '") + name +
                                     "'");
            f.ref<energy::EnergyMeter>(record).add(cat, j->asDouble());
        }
        return true;
      case FieldKind::U64List:
        break;
    }
    panic("field '%s' has no JSON encoding", f.key.c_str());
}

} // anonymous namespace

void
writeRunResultJson(std::ostream &os, const RunResult &r)
{
    os << "{\n  \"record_version\": " << kRunRecordVersion;
    std::string group;
    for (const Field *f : resultFieldsJsonOrder()) {
        if (f->group != group && !group.empty())
            os << "\n  }";
        os << ",\n";
        if (f->group != group && !f->group.empty())
            os << "  \"" << f->group << "\": {\n";
        group = f->group;
        os << (group.empty() ? "  \"" : "    \"") << f->key << "\": ";
        writeValue(os, *f, &r);
    }
    if (!group.empty())
        os << "\n  }";
    os << "\n}\n";
}

bool
readRunResultJson(std::istream &is, RunResult &out, std::string *err)
{
    std::ostringstream buf;
    buf << is.rdbuf();

    util::JsonValue root;
    if (!util::parseJson(buf.str(), root, err))
        return false;
    if (!root.isObject())
        return fail(err, "record is not a JSON object");

    // Version gate first: a record written by a different binary
    // generation is a cache miss, not a parse attempt.
    const util::JsonValue *version = root.get("record_version");
    if (!version || !version->isNumber())
        return fail(err, "missing number 'record_version'");
    if (version->asU64() != kRunRecordVersion) {
        return fail(err, "record_version " +
                             std::to_string(version->asU64()) +
                             " != expected " +
                             std::to_string(kRunRecordVersion));
    }

    RunResult r;
    for (const Field *f : resultFieldsJsonOrder()) {
        const util::JsonValue *obj =
            f->group.empty() ? &root : root.get(f->group);
        if (!obj || !obj->isObject())
            return fail(err, "missing object '" + f->group + "'");
        if (!readValue(*obj, *f, &r, err))
            return false;
    }
    out = std::move(r);
    return true;
}

} // namespace nvp
} // namespace wlcache
