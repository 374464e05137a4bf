/**
 * @file
 * Declarative design-space sweep specifications. A SweepSpec names a
 * region of the (design x configuration x workload x environment)
 * space as a JSON document — base parameters shared by every point,
 * cartesian-product axes, explicit extra points, and derived
 * constraints (linear functions of another parameter, e.g. keeping
 * the I-cache size locked to the D-cache size across a size sweep).
 * expandPoints() turns the spec into concrete ExperimentSpecs ready
 * for the runner; every parameter goes through a central registry so
 * a sweep axis, a base entry, and a derived target all validate the
 * same way and produce the same content-addressed cache keys. An
 * optional "fleet" block evaluates every point on N nodes instead of
 * one (FleetBlock).
 */

#ifndef WLCACHE_EXPLORE_SWEEP_SPEC_HH
#define WLCACHE_EXPLORE_SWEEP_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nvp/experiment.hh"

namespace wlcache {
namespace explore {

/** One sweep-parameter value: a number, a string, or a boolean. */
struct ParamValue
{
    enum class Kind
    {
        Number,
        String,
        Bool,
    };

    Kind kind = Kind::Number;
    double num = 0.0;     //!< Numeric payload (Kind::Number).
    std::string text;     //!< String payload, or the number's token.
    bool b = false;       //!< Boolean payload (Kind::Bool).

    /** Render for point ids / CSV (number token text verbatim). */
    std::string display() const;
};

/** Numeric value; the token is formatted deterministically. */
ParamValue numValue(double v);
/** String value (design/workload/policy names). */
ParamValue strValue(std::string s);
/** Boolean value. */
ParamValue boolValue(bool b);

/** A named parameter binding. */
using ParamBinding = std::pair<std::string, ParamValue>;

/** The latest binding of @p name (later bindings override earlier
 *  ones, e.g. an explicit point over base), or null. */
const ParamValue *findBinding(const std::vector<ParamBinding> &bindings,
                              const std::string &name);

/** One cartesian-product dimension. */
struct Axis
{
    std::string param;
    std::vector<ParamValue> values;
};

/**
 * A parameter computed from another parameter of the same point:
 * value = source * mul + add for numeric sources; a verbatim copy
 * for string/bool sources (mul/add must stay at identity).
 */
struct DerivedParam
{
    std::string param;
    std::string source;
    double mul = 1.0;
    double add = 0.0;
};

/** One fleet workload-mix entry: @c weight nodes out of every cycle
 *  of the mix run @c workload. */
struct MixEntry
{
    std::string workload;
    unsigned weight = 1;
};

/**
 * The "fleet" block: evaluate every design point on N intermittently
 * powered nodes sharing one ambient environment. Node n runs the
 * point's experiment with `power_node` = n and `power_jitter` set (a
 * node-seeded gain on the shared trace, see energy::deriveNodeTrace)
 * and its mix-assigned workload, so each node run is an ordinary
 * content-addressed single-node job. The fleet_* objectives reduce a
 * point's node results.
 */
struct FleetBlock
{
    unsigned nodes = 1; //!< Node count (1..4096).
    /** Per-node power-gain spread handed to deriveNodeTrace(); 0
     *  gives every node the identical base trace. */
    double jitter = 0.25;
    /** fleet_deadline_miss budget: a node meets the deadline when it
     *  completes within this many cycles of wall-clock (0 = completion
     *  alone). */
    std::uint64_t deadline_cycles = 0;
    /** Workload mix; empty keeps the point's own workload. */
    std::vector<MixEntry> mix;

    /** The mix as a node→workload pattern: entries repeat by weight
     *  and node i runs pattern[i % len] (empty when mix is). */
    std::vector<std::string> workloadPattern() const;
};

/** A full declarative sweep. */
struct SweepSpec
{
    std::string name = "sweep";

    /** Parameters shared by every point (applied first). */
    std::vector<ParamBinding> base;
    /** Cartesian axes; the first axis varies slowest. */
    std::vector<Axis> axes;
    /** Explicit extra points (bindings on top of base). */
    std::vector<std::vector<ParamBinding>> points;
    /** Derived constraints, applied after base/axis/point bindings. */
    std::vector<DerivedParam> derived;

    /**
     * Objective names (see objectives.hh); may be empty. Fleet
     * objectives with a fleet block, per-run objectives without.
     */
    std::vector<std::string> objectives;

    /** Evaluate every point across a fleet of nodes. */
    std::optional<FleetBlock> fleet;
};

/** One fully-resolved point of the expanded space. */
struct DesignPoint
{
    /**
     * Stable identifier: the point's axis/explicit/derived bindings
     * as "param=value" joined with ';' (base parameters are shared
     * by construction and omitted). Used for labels, reports, and
     * deterministic tie-breaking.
     */
    std::string id;
    /** Every binding in application order (base first). */
    std::vector<ParamBinding> params;
    /** Ready-to-run experiment (tweak hook applies config bindings). */
    nvp::ExperimentSpec spec;
};

/**
 * Parse a JSON sweep-spec document. Strict: unknown keys, unknown
 * parameter, workload and objective names, type mismatches, and
 * malformed structure are all rejected with a diagnostic naming the
 * offending JSON path (e.g. "$.axes[1].values[0]: parameter
 * 'wl.maxline' wants a number", "$.fleet.mix[0].workload: unknown
 * workload 'x'").
 *
 * @return true on success; false leaves @p out untouched and fills
 *         @p err (when given) with the one-line diagnostic.
 */
bool parseSweepSpec(const std::string &json_text, SweepSpec &out,
                    std::string *err = nullptr);

/**
 * Expand @p spec into concrete points: the cartesian product of the
 * axes (first axis slowest) followed by the explicit points, each
 * with base bindings applied first and derived parameters last.
 * An empty axes list with no explicit points yields the single base
 * point.
 *
 * @return true on success; false fills @p err, naming the point:
 *         a derived value out of range, or a WL geometry the
 *         simulator cannot run (nvp::checkWlGeometry).
 */
bool expandPoints(const SweepSpec &spec,
                  std::vector<DesignPoint> &out,
                  std::string *err = nullptr);

/**
 * Names of every parameter the registry knows, with a short help
 * string each — the `--list-params` output.
 */
std::vector<std::pair<std::string, std::string>> listParams();

/** True when @p name is a registered sweep parameter. */
bool isKnownParam(const std::string &name);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_SWEEP_SPEC_HH
