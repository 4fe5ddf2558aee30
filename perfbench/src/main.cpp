// freqbench: the libfreq benchmark binary.
//
//   freqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Prints context lines, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). Exits 1 when any answer fails its
// check against the exact counter, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage(const char* why) {
    std::fprintf(stderr, "freqbench: %s\nusage: freqbench --workload <", why);
    const auto names = perfbench::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", names[i].c_str());
    }
    std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, trace_file;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            trace = val == "1";
            if (val != "0" && val != "1") {
                return usage("--trace takes 0 or 1");
            }
        } else if (arg == "--trace-file") {
            trace_file = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0') {
            return usage(("malformed number " + val).c_str());
        }
    }
    const perfbench::workload_config* cfg = perfbench::find_workload(workload);
    if (cfg == nullptr) {
        return usage(("unknown workload '" + workload + "'").c_str());
    }
    if (!(seconds > 0.0)) {
        return usage("--seconds must be positive");
    }

    perfbench::run_result r;
    try {
        r = perfbench::run_workload(*cfg, seed, seconds, trace, trace_file);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "freqbench: %s failed: %s\n", workload.c_str(), e.what());
        return 3;
    }

    for (const auto& line : r.lines) {
        std::printf("%s\n", line.c_str());
    }
    for (const auto& [name, m] : r.metrics) {
        std::printf("%-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::string info = "{\"workload\": \"" + workload + "\", \"seed\": " + std::to_string(seed);
    for (const auto& [key, json] : r.info) {
        info += ", \"" + key + "\": " + json;
    }
    std::printf("info %s}\n", info.c_str());

    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        // JSON has no NaN; a layer figure with no base (0/0) reads as 0.
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        line += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return r.correct ? 0 : 1;
}
