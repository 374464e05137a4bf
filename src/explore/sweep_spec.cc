#include "explore/sweep_spec.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "explore/objectives.hh"
#include "mem/device/tech_profile.hh"
#include "nvp/schema.hh"
#include "sim/logging.hh"
#include "util/json.hh"
#include "util/strings.hh"
#include "workloads/workloads.hh"

namespace wlcache {
namespace explore {

std::string
ParamValue::display() const
{
    switch (kind) {
      case Kind::Number:
      case Kind::String:
        return text;
      case Kind::Bool:
        return b ? "true" : "false";
    }
    panic("unknown ParamValue kind");
}

ParamValue
numValue(double v)
{
    ParamValue out;
    out.kind = ParamValue::Kind::Number;
    out.num = v;
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1.0e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%g", v);
    out.text = buf;
    return out;
}

ParamValue
strValue(std::string s)
{
    ParamValue out;
    out.kind = ParamValue::Kind::String;
    out.text = std::move(s);
    return out;
}

ParamValue
boolValue(bool b)
{
    ParamValue out;
    out.kind = ParamValue::Kind::Bool;
    out.b = b;
    return out;
}

namespace {

/** Largest value an `unsigned` destination holds. */
constexpr double kMaxUnsigned = 4294967295.0;
/** Largest integer a double still represents exactly (2^53). */
constexpr double kMaxExactInteger = 9007199254740992.0;

using PV = ParamValue;
using Spec = nvp::ExperimentSpec;

/** Store @p what as the diagnostic (when wanted); always false. */
bool
fail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

/**
 * One registered sweep parameter: a row of nvp::specFields() or
 * nvp::configFields() with help text, or one of the hand-written
 * parameters that take names (design, workload, power) or apply a
 * preset (nvm.tech).
 */
struct ParamDef
{
    std::string name;
    std::string help;
    PV::Kind type = PV::Kind::Number;
    /** Sets the experiment spec (else the resolved SystemConfig). */
    bool on_spec = false;
    /** The table row this parameter sets... */
    const nvp::Field *field = nullptr;
    /** ...or the hand-written setter; false on an unknown name. */
    bool (*apply)(void *record, const PV &v) = nullptr;
    /** Names: the valid ones and what they denote, for diagnostics. */
    std::string valid = {};
    std::string what = {};
};

/** Set row @p f of @p record from a value of the row's kind. */
bool
applyField(const nvp::Field &f, void *record, const PV &v)
{
    switch (f.kind) {
      case nvp::FieldKind::Unsigned:
        f.ref<unsigned>(record) = static_cast<unsigned>(v.num);
        return true;
      case nvp::FieldKind::U64:
        f.ref<std::uint64_t>(record) = static_cast<std::uint64_t>(v.num);
        return true;
      case nvp::FieldKind::Double:
        f.ref<double>(record) = v.num;
        return true;
      case nvp::FieldKind::Bool:
        f.ref<bool>(record) = v.b;
        return true;
      case nvp::FieldKind::Enum:
        return f.codec->parse(v.text, f.at(record));
      default:
        panic("field '%s' cannot be swept", f.key.c_str());
    }
}

/** Set @p v on @p record: the spec when def.on_spec, else the config. */
bool
applyParam(const ParamDef &def, void *record, const PV &v)
{
    return def.apply ? def.apply(record, v)
                     : applyField(*def.field, record, v);
}

Spec &
asSpec(void *record)
{
    return *static_cast<Spec *>(record);
}

const std::vector<ParamDef> &
paramDefs()
{
    static const std::vector<ParamDef> defs = [] {
        const std::string designs = util::join(nvp::designShortNames(), "|");
        const std::string powers = util::join(nvp::powerShortNames(), "|");
        std::vector<ParamDef> d = {
            { .name = "design",
              .help = "cache design: " + designs,
              .type = PV::Kind::String,
              .on_spec = true,
              .apply =
                  [](void *r, const PV &v) {
                      return nvp::designFromShortName(v.text,
                                                      asSpec(r).design);
                  },
              .valid = designs,
              .what = "design" },
            { .name = "workload",
              .help = "benchmark kernel name (e.g. sha, qsort, FFT)",
              .type = PV::Kind::String,
              .on_spec = true,
              .apply =
                  [](void *r, const PV &v) {
                      asSpec(r).workload = v.text;
                      return workloads::findWorkload(v.text) != nullptr;
                  },
              .what = "workload" },
            { .name = "power",
              .help = "ambient environment: " + powers + " (infinite power)",
              .type = PV::Kind::String,
              .on_spec = true,
              .apply =
                  [](void *r, const PV &v) {
                      return nvp::powerFromShortName(v.text, asSpec(r).power,
                                                     asSpec(r).no_failure);
                  },
              .valid = powers,
              .what = "power trace" },
            { .name = "nvm.tech",
              .help = "NVM technology profile: reram|stt-ram|fram|flash "
                      "(sets timing, energy, endurance, verify retries)",
              .type = PV::Kind::String,
              .apply =
                  [](void *r, const PV &v) {
                      const mem::NvmTechProfile *p =
                          mem::findTechProfile(v.text);
                      if (p)
                          mem::applyTechProfile(
                              static_cast<nvp::SystemConfig *>(r)->nvm, *p);
                      return p != nullptr;
                  },
              .valid = "reram|stt-ram|fram|flash",
              .what = "NVM technology" },
        };
        auto addTable = [&d](const nvp::FieldTable &rows, bool on_spec) {
            for (const nvp::Field &f : rows) {
                if (f.help.empty())
                    continue;
                ParamDef p;
                p.name = f.key;
                p.help = f.help;
                p.on_spec = on_spec;
                p.field = &f;
                if (f.kind == nvp::FieldKind::Bool)
                    p.type = PV::Kind::Bool;
                if (f.kind == nvp::FieldKind::Enum) {
                    p.type = PV::Kind::String;
                    p.what = f.codec->what;
                    p.valid = f.codec->valid;
                }
                d.push_back(std::move(p));
            }
        };
        addTable(nvp::specFields(), true);
        addTable(nvp::configFields(), false);
        return d;
    }();
    return defs;
}

const ParamDef *
findParam(const std::string &name)
{
    for (const auto &d : paramDefs())
        if (name == d.name)
            return &d;
    return nullptr;
}

const char *
kindName(ParamValue::Kind k)
{
    switch (k) {
      case ParamValue::Kind::Number: return "a number";
      case ParamValue::Kind::String: return "a string";
      case ParamValue::Kind::Bool:   return "a boolean";
    }
    return "?";
}

/**
 * Validate @p v against @p def. @p path names the JSON location for
 * the diagnostic.
 */
bool
checkValue(const ParamDef &def, const ParamValue &v,
           const std::string &path, std::string *err)
{
    auto reject = [&](const std::string &why) {
        return fail(err, path + ": " + why);
    };
    const std::string param = "parameter '" + def.name + "'";
    if (v.kind != def.type)
        return reject(param + " wants " + kindName(def.type) + ", got " +
                      kindName(v.kind));
    if (v.kind == ParamValue::Kind::String) {
        // Names are checked by applying them to a scratch record.
        Spec spec;
        nvp::SystemConfig cfg;
        if (applyParam(def, def.on_spec ? static_cast<void *>(&spec) : &cfg,
                       v))
            return true;
        return reject("unknown " + def.what + " '" + v.text + "'" +
                      (def.valid.empty() ? "" : " (valid: " + def.valid +
                                                    ")"));
    }
    if (v.kind != ParamValue::Kind::Number)
        return true;
    // Integers must fit their destination exactly: no fraction, no
    // wrap past an unsigned, no rounding past 2^53 for 64-bit fields.
    const nvp::Field &f = *def.field;
    const bool integral = f.kind == nvp::FieldKind::Unsigned ||
                          f.kind == nvp::FieldKind::U64;
    const double max = f.kind == nvp::FieldKind::Unsigned ? kMaxUnsigned
                       : integral ? kMaxExactInteger
                                  : HUGE_VAL;
    if (integral && v.num != std::floor(v.num))
        return reject(param + " wants an integer, got " + v.text);
    if (v.num < f.min)
        return reject(param + " wants a value >= " + numValue(f.min).text +
                      ", got " + v.text);
    if (v.num > max)
        return reject(param + " wants a value <= " + util::fmtExact(max) +
                      ", got " + v.text);
    std::string why;
    if (f.check && !f.check(v.num, why))
        return reject(why);
    return true;
}

bool
scalarFromJson(const util::JsonValue &jv, ParamValue &out,
               const std::string &path, std::string *err)
{
    switch (jv.kind()) {
      case util::JsonValue::Kind::Number:
        out.kind = ParamValue::Kind::Number;
        out.num = jv.asDouble();
        out.text = jv.numberToken();
        return true;
      case util::JsonValue::Kind::String:
        out.kind = ParamValue::Kind::String;
        out.text = jv.asString();
        return true;
      case util::JsonValue::Kind::Bool:
        out.kind = ParamValue::Kind::Bool;
        out.b = jv.asBool();
        return true;
      default:
        return fail(err, path + ": expected a scalar "
                         "(number, string, or boolean)");
    }
}

/** Parse one {param: value, ...} object into ordered bindings. */
bool
parseBindings(const util::JsonValue &obj,
              std::vector<ParamBinding> &out, const std::string &path,
              std::string *err)
{
    if (!obj.isObject())
        return fail(err, path + ": expected an object of parameter values");
    for (const auto &[key, jv] : obj.members()) {
        const std::string vpath = path + "." + key;
        const ParamDef *def = findParam(key);
        if (!def)
            return fail(err, vpath + ": unknown parameter '" + key + "'");
        if (findBinding(out, key))
            return fail(err, vpath + ": duplicate parameter '" + key + "'");
        ParamValue v;
        if (!scalarFromJson(jv, v, vpath, err))
            return false;
        if (!checkValue(*def, v, vpath, err))
            return false;
        out.emplace_back(key, v);
    }
    return true;
}

} // anonymous namespace

bool
parseSweepSpec(const std::string &json_text, SweepSpec &out,
               std::string *err)
{
    util::JsonValue root;
    std::string jerr;
    if (!util::parseJson(json_text, root, &jerr))
        return fail(err, "$: not valid JSON: " + jerr);
    if (!root.isObject())
        return fail(err, "$: sweep spec must be a JSON object");

    SweepSpec spec;
    for (const auto &[key, jv] : root.members()) {
        const std::string path = "$." + key;
        if (key == "name") {
            if (!jv.isString())
                return fail(err, path + ": expected a string");
            spec.name = jv.asString();
        } else if (key == "base") {
            if (!parseBindings(jv, spec.base, path, err))
                return false;
        } else if (key == "axes") {
            if (!jv.isArray())
                return fail(err, path + ": expected an array of axes");
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                const auto &aj = jv.items()[i];
                const std::string apath =
                    path + "[" + std::to_string(i) + "]";
                if (!aj.isObject())
                    return fail(err, apath + ": expected an axis object "
                                     "{param, values}");
                Axis axis;
                const ParamDef *def = nullptr;
                for (const auto &[akey, av] : aj.members()) {
                    if (akey == "param") {
                        if (!av.isString())
                            return fail(err, apath + ".param: expected a "
                                             "string");
                        axis.param = av.asString();
                        def = findParam(axis.param);
                        if (!def)
                            return fail(err, apath +
                                             ".param: unknown parameter '" +
                                             axis.param + "'");
                    } else if (akey == "values") {
                        if (!av.isArray() || av.items().empty())
                            return fail(err, apath + ".values: expected a "
                                             "non-empty array");
                        if (axis.param.empty())
                            return fail(err, apath + ": 'param' must come "
                                             "before 'values'");
                        for (std::size_t k = 0; k < av.items().size();
                             ++k) {
                            const std::string vpath =
                                apath + ".values[" +
                                std::to_string(k) + "]";
                            ParamValue v;
                            if (!scalarFromJson(av.items()[k], v,
                                                vpath, err))
                                return false;
                            if (!checkValue(*def, v, vpath, err))
                                return false;
                            axis.values.push_back(std::move(v));
                        }
                    } else {
                        return fail(err, apath + "." + akey +
                                         ": unknown axis key");
                    }
                }
                if (axis.param.empty() || axis.values.empty())
                    return fail(err, apath +
                                     ": axis needs 'param' and 'values'");
                if (findBinding(spec.base, axis.param))
                    return fail(err, apath + ".param: '" + axis.param +
                                     "' already bound in $.base");
                for (const auto &other : spec.axes) {
                    if (other.param == axis.param)
                        return fail(err, apath + ".param: duplicate axis "
                                         "over '" + axis.param + "'");
                }
                spec.axes.push_back(std::move(axis));
            }
        } else if (key == "points") {
            if (!jv.isArray())
                return fail(err, path + ": expected an array of point "
                                 "objects");
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                std::vector<ParamBinding> bindings;
                if (!parseBindings(jv.items()[i], bindings,
                                   path + "[" + std::to_string(i) +
                                       "]",
                                   err))
                    return false;
                spec.points.push_back(std::move(bindings));
            }
        } else if (key == "derived") {
            if (!jv.isArray())
                return fail(err, path + ": expected an array of derived "
                                 "parameters");
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                const auto &dj = jv.items()[i];
                const std::string dpath =
                    path + "[" + std::to_string(i) + "]";
                if (!dj.isObject())
                    return fail(err, dpath + ": expected an object "
                                     "{param, source, mul?, add?}");
                DerivedParam d;
                for (const auto &[dkey, dv] : dj.members()) {
                    if (dkey == "param" || dkey == "source") {
                        if (!dv.isString())
                            return fail(err, dpath + "." + dkey +
                                             ": expected a string");
                        if (!findParam(dv.asString()))
                            return fail(err, dpath + "." + dkey +
                                             ": unknown parameter '" +
                                             dv.asString() + "'");
                        (dkey == "param" ? d.param : d.source) =
                            dv.asString();
                    } else if (dkey == "mul" || dkey == "add") {
                        if (!dv.isNumber())
                            return fail(err, dpath + "." + dkey +
                                             ": expected a number");
                        (dkey == "mul" ? d.mul : d.add) =
                            dv.asDouble();
                    } else {
                        return fail(err, dpath + "." + dkey +
                                         ": unknown derived key");
                    }
                }
                if (d.param.empty() || d.source.empty())
                    return fail(err, dpath + ": derived parameter needs "
                                     "'param' and 'source'");
                spec.derived.push_back(std::move(d));
            }
        } else if (key == "objectives") {
            if (!jv.isArray())
                return fail(err, path + ": expected an array of objective "
                                 "names");
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                if (!jv.items()[i].isString())
                    return fail(err, path + "[" + std::to_string(i) +
                                     "]: expected a string");
                spec.objectives.push_back(jv.items()[i].asString());
            }
        } else {
            return fail(err, path + ": unknown sweep-spec key");
        }
    }

    // Cross-checks the per-key loops above cannot do.
    for (std::size_t i = 0; i < spec.objectives.size(); ++i) {
        std::string why;
        if (!checkObjective(spec.objectives[i], &why))
            return fail(err, "$.objectives[" + std::to_string(i) +
                             "]: " + why);
    }
    for (std::size_t i = 0; i < spec.derived.size(); ++i) {
        const auto &d = spec.derived[i];
        const std::string dpath = "$.derived[" + std::to_string(i) +
                                  "]";
        const ParamDef *target = findParam(d.param);
        if (target->type != ParamValue::Kind::Number &&
            (d.mul != 1.0 || d.add != 0.0))
            return fail(err, dpath + ": mul/add need a numeric target, "
                             "but '" + d.param + "' is not a number");
        if (findBinding(spec.base, d.param))
            return fail(err, dpath + ".param: '" + d.param +
                             "' already bound in $.base");
        for (const auto &axis : spec.axes) {
            if (axis.param == d.param)
                return fail(err, dpath + ".param: '" + d.param +
                                 "' already swept by an axis");
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.derived[j].param == d.param)
                return fail(err, dpath + ".param: duplicate derived "
                                 "parameter '" + d.param + "'");
        }
        bool source_in_axes = false;
        for (const auto &axis : spec.axes)
            source_in_axes |= axis.param == d.source;
        if (!source_in_axes && !findBinding(spec.base, d.source))
            return fail(err, dpath + ".source: '" + d.source +
                             "' is neither a base parameter nor an axis");
        for (std::size_t p = 0; p < spec.points.size(); ++p) {
            if (findBinding(spec.points[p], d.param))
                return fail(err, "$.points[" + std::to_string(p) + "]." +
                                 d.param + ": derived parameter cannot be "
                                 "bound explicitly");
            if (!findBinding(spec.base, d.source) &&
                !findBinding(spec.points[p], d.source))
                return fail(err, "$.points[" + std::to_string(p) +
                                 "]: derived source '" + d.source +
                                 "' is not bound for this point");
        }
    }

    out = std::move(spec);
    return true;
}

const ParamValue *
findBinding(const std::vector<ParamBinding> &bindings,
            const std::string &name)
{
    for (auto it = bindings.rbegin(); it != bindings.rend(); ++it)
        if (it->first == name)
            return &it->second;
    return nullptr;
}

namespace {

/** Finish one point: derived params, id, and the runnable spec. */
bool
finishPoint(const SweepSpec &spec,
            std::vector<ParamBinding> bindings,
            std::size_t id_begin, DesignPoint &out, std::string *err)
{
    for (const auto &d : spec.derived) {
        const ParamValue *src = findBinding(bindings, d.source);
        if (!src)
            return fail(err, "derived parameter '" + d.param +
                             "': source '" + d.source + "' is unbound");
        ParamValue v = src->kind == ParamValue::Kind::Number
                           ? numValue(src->num * d.mul + d.add)
                           : *src;
        const ParamDef *def = findParam(d.param);
        if (!checkValue(*def, v, "derived '" + d.param + "'", err))
            return false;
        bindings.emplace_back(d.param, std::move(v));
    }

    // Id from the point-specific bindings (base is shared).
    std::string id;
    for (std::size_t i = id_begin; i < bindings.size(); ++i) {
        if (!id.empty())
            id += ';';
        id += bindings[i].first + "=" + bindings[i].second.display();
    }
    if (id.empty())
        id = "base";

    // Build the experiment: spec-level params applied directly,
    // config-level params through the tweak hook (resolved after the
    // design preset, so the content-addressed key sees their effect).
    nvp::ExperimentSpec es;
    std::vector<ParamBinding> cfg_bindings;
    for (const auto &[name, value] : bindings) {
        const ParamDef *def = findParam(name);
        wlc_assert(def != nullptr, "unvalidated parameter '%s'",
                   name.c_str());
        if (def->on_spec)
            applyParam(*def, &es, value);
        else
            cfg_bindings.emplace_back(name, value);
    }
    if (!cfg_bindings.empty()) {
        es.tweak = [cfg_bindings](nvp::SystemConfig &cfg) {
            for (const auto &[name, value] : cfg_bindings)
                applyParam(*findParam(name), &cfg, value);
        };
    }

    // A WL geometry the simulator cannot run fails here, naming the
    // point, rather than as a panic mid-run.
    std::string why;
    if (!nvp::checkWlGeometry(nvp::resolveConfig(es), why))
        return fail(err, "point '" + id + "': " + why);

    out.id = std::move(id);
    out.params = std::move(bindings);
    out.spec = std::move(es);
    return true;
}

} // anonymous namespace

bool
expandPoints(const SweepSpec &spec, std::vector<DesignPoint> &out,
             std::string *err)
{
    std::vector<DesignPoint> points;

    // Cartesian product, first axis slowest.
    std::size_t total = spec.axes.empty() && spec.points.empty() ? 1
                                                                 : 0;
    if (!spec.axes.empty()) {
        total = 1;
        for (const auto &axis : spec.axes)
            total *= axis.values.size();
    }
    std::vector<std::size_t> idx(spec.axes.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
        std::vector<ParamBinding> bindings = spec.base;
        const std::size_t id_begin = bindings.size();
        for (std::size_t a = 0; a < spec.axes.size(); ++a)
            bindings.emplace_back(spec.axes[a].param,
                                  spec.axes[a].values[idx[a]]);
        DesignPoint p;
        if (!finishPoint(spec, std::move(bindings), id_begin, p, err))
            return false;
        points.push_back(std::move(p));
        for (std::size_t a = spec.axes.size(); a-- > 0;) {
            if (++idx[a] < spec.axes[a].values.size())
                break;
            idx[a] = 0;
        }
    }

    // Explicit points, appended after the product.
    for (const auto &extra : spec.points) {
        std::vector<ParamBinding> bindings = spec.base;
        const std::size_t id_begin = bindings.size();
        for (const auto &b : extra)
            bindings.push_back(b);
        DesignPoint p;
        if (!finishPoint(spec, std::move(bindings), id_begin, p, err))
            return false;
        points.push_back(std::move(p));
    }

    out = std::move(points);
    return true;
}

std::vector<std::pair<std::string, std::string>>
listParams()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &d : paramDefs())
        out.emplace_back(d.name, d.help);
    return out;
}

bool
isKnownParam(const std::string &name)
{
    return findParam(name) != nullptr;
}

} // namespace explore
} // namespace wlcache
