/**
 * @file
 * Content-addressed identity for experiments. An ExperimentSpec's
 * `tweak` hook is an opaque callable, so the key hashes the *effect*
 * of the spec instead of its fields: the fully resolved SystemConfig
 * (preset + tweak applied) plus the workload/power inputs and a
 * schema version. Two specs share a key exactly when the simulator
 * cannot tell them apart, which is the property the result cache
 * needs.
 */

#ifndef WLCACHE_RUNNER_SPEC_KEY_HH
#define WLCACHE_RUNNER_SPEC_KEY_HH

#include <string>

#include "nvp/experiment.hh"

namespace wlcache {
namespace runner {

/**
 * Result-record schema version. Bump when RunResult serialization,
 * SystemConfig fields, or simulator semantics change so stale cache
 * entries miss instead of resurfacing. Kept in lockstep with
 * nvp::kRunRecordVersion (the serialized record carries that version
 * explicitly, so even a hand-copied old record is rejected).
 *
 * History: 1 = PR-1; 2 = verification campaigns (forced outages,
 * register differential, per-run divergence record and digest);
 * 3 = telemetry (stats tree + interval rollups in run records,
 * max_interval_rollups in the config key); 4 = energy-math fixes
 * (harvester phase rebase, capacitor rail clamping) changed every
 * numeric result, plus deterministic snapshots; 5 = integer-attojoule
 * energy arithmetic (every accumulated joule quantized) plus the
 * step_mode config key line; 6 = banked NVM device model (timing
 * model, wear, hybrid region config keys); 7 = WL-Log design and
 * the log.* journal config keys plus run-record v5 fields; 8 = the
 * power_node/power_jitter spec lines of per-node derived traces. The
 * derivation is gone; specKeyText() writes both lines as the fixed
 * text "power_node=0"/"power_jitter=0" until the next bump (8 -> 9).
 */
constexpr unsigned kResultSchemaVersion = 8;

/**
 * Canonical text describing everything that determines a run's
 * outcome (hashed to form the cache key; also useful for debugging
 * key mismatches).
 */
std::string specKeyText(const nvp::ExperimentSpec &spec);

/** 128-bit FNV-1a digest of @p text, as 32 lowercase hex digits. */
std::string hashKeyText(const std::string &text);

/** Cache key for @p spec: hashKeyText(specKeyText(spec)). */
std::string specKey(const nvp::ExperimentSpec &spec);

} // namespace runner
} // namespace wlcache

#endif // WLCACHE_RUNNER_SPEC_KEY_HH
