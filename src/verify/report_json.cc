#include <ostream>

#include "util/strings.hh"
#include "verify/campaign.hh"

namespace wlcache {
namespace verify {

namespace {

const char *
boolStr(bool b)
{
    return b ? "true" : "false";
}

} // anonymous namespace

void
writeCampaignReportJson(std::ostream &os, const CampaignReport &r)
{
    os << "{\n";
    os << "  \"report_version\": 2,\n";
    os << "  \"workload\": \"" << util::jsonEscape(r.workload) << "\",\n";
    os << "  \"design\": \"" << util::jsonEscape(r.design) << "\",\n";

    os << "  \"golden\": {\n";
    os << "    \"clean\": " << boolStr(r.golden_clean) << ",\n";
    os << "    \"completed\": " << boolStr(r.golden.completed)
       << ",\n";
    os << "    \"on_cycles\": " << r.golden.on_cycles << ",\n";
    os << "    \"outages\": " << r.golden.outages << ",\n";
    os << "    \"nvm_writes\": " << r.golden.nvm_writes << ",\n";
    os << "    \"final_state_correct\": "
       << boolStr(r.golden.final_state_correct) << ",\n";
    os << "    \"final_state_digest\": \""
       << util::jsonEscape(r.golden.final_state_digest) << "\"\n  },\n";

    os << "  \"summary\": {\n";
    os << "    \"points\": " << r.points.size() << ",\n";
    os << "    \"clean\": " << r.num_clean << ",\n";
    os << "    \"divergent\": " << r.num_divergent << ",\n";
    os << "    \"incomplete\": " << r.num_incomplete << ",\n";
    os << "    \"not_reached\": " << r.num_not_reached << "\n  },\n";

    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        const PointResult &p = r.points[i];
        os << "    {\"point\": " << p.point << ", \"verdict\": \""
           << verdictName(p.verdict) << "\", \"completed\": "
           << boolStr(p.completed) << ", \"outages\": " << p.outages
           << ", \"forced_outages\": " << p.forced_outages
           << ", \"consistency_violations\": "
           << p.consistency_violations
           << ", \"load_value_mismatches\": "
           << p.load_value_mismatches
           << ", \"register_restore_mismatches\": "
           << p.register_restore_mismatches
           << ", \"final_state_correct\": "
           << boolStr(p.final_state_correct)
           << ", \"final_state_digest\": \""
           << util::jsonEscape(p.final_state_digest) << "\"";
        if (p.has_first_divergence) {
            os << ", \"first_divergence\": {\"kind\": \""
               << util::jsonEscape(p.first_divergence_kind)
               << "\", \"addr\": " << p.first_divergence_addr
               << ", \"cycle\": " << p.first_divergence_cycle
               << ", \"outage\": "
               << p.first_divergence_outage << "}";
        } else {
            os << ", \"first_divergence\": null";
        }
        os << '}' << (i + 1 < r.points.size() ? ",\n" : "\n");
    }
    os << "  ],\n";

    if (r.has_divergence_window) {
        os << "  \"divergence_window\": {\n";
        os << "    \"point\": " << r.divergence_window_point << ",\n";
        os << "    \"schema_version\": "
           << telemetry::kTimelineSchemaVersion << ",\n";
        os << "    \"events\": [\n";
        for (std::size_t i = 0; i < r.divergence_window.size(); ++i) {
            const telemetry::TimelineEvent &e = r.divergence_window[i];
            os << "      {\"seq\": " << e.seq << ", \"cycle\": "
               << e.cycle << ", \"type\": \""
               << telemetry::eventTypeName(e.type) << "\", \"track\": \""
               << telemetry::trackName(telemetry::eventTrack(e.type))
               << "\", \"comp\": \"" << util::jsonEscape(e.comp)
               << "\", \"a0\": " << e.a0 << ", \"a1\": " << e.a1
               << ", \"v\": " << util::fmtExact(e.v) << '}'
               << (i + 1 < r.divergence_window.size() ? ",\n" : "\n");
        }
        os << "    ]\n  },\n";
    } else {
        os << "  \"divergence_window\": null,\n";
    }

    if (r.bisect.ran) {
        os << "  \"bisect\": {\n";
        os << "    \"clean_low\": " << r.bisect.clean_low << ",\n";
        os << "    \"first_fail\": " << r.bisect.first_fail << ",\n";
        os << "    \"minimal_fail\": " << r.bisect.minimal_fail
           << ",\n";
        os << "    \"probes\": " << r.bisect.probes << "\n  },\n";
    } else {
        os << "  \"bisect\": null,\n";
    }

    os << "  \"runner\": {\n";
    os << "    \"runs\": " << r.runs << ",\n";
    os << "    \"cache_hits\": " << r.cache_hits << ",\n";
    os << "    \"executed\": " << r.executed << "\n  }\n";
    os << "}\n";
}

} // namespace verify
} // namespace wlcache
