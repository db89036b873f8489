// Flat JSON snapshot of the registry: counters, gauges, histograms, and
// stage aggregates, sorted by name. Pairs with write_chrome_trace (span.h)
// which dumps the per-event timeline.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace w4k::obs {

class MetricsRegistry;

void write_json_snapshot(std::ostream& os, const MetricsRegistry& reg);

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included). Shared by the exporters, the bench manifest writer and the
// campaign shard rows.
void append_json_escaped(std::string& out, std::string_view s);

// `v` printed with "%.17g", which round-trips every finite double exactly
// and, unlike operator<<, ignores stream state. The one formatter behind
// every byte-stable number: golden reports, campaign rows and summaries,
// scenario and fault-plan text.
std::string number_text(double v);

// number_text as a JSON number; JSON has no inf/nan, so those print as 0.
// Shared by the exporters and the manifest writer.
std::string json_number(double v);

}  // namespace w4k::obs
