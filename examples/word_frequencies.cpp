/// Frequent words with real-valued weights — the tf-idf motivation of §1.2.
/// Streams (word, tf-idf) pairs from synthetic "documents" through the
/// string sketch and reports the highest-scoring terms with their
/// spellings; then replays the same stream through the *sharded engine*
/// (fingerprints on the ring hot path, per-shard spelling dictionaries) to
/// show both ingestion paths agree.
///
///   build/examples/word_frequencies

#include <cstdio>
#include <string>
#include <vector>

#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "random/xoshiro.h"
#include "random/zipf.h"

int main() {
    using namespace freq;

    // Vocabulary: common words get high term frequency but low idf; topical
    // words appear rarely but score high when they do.
    const std::vector<std::pair<std::string, double>> vocabulary = {
        {"the", 0.01},     {"of", 0.01},        {"stream", 1.2},   {"packet", 1.5},
        {"sketch", 2.8},   {"heavy", 1.9},      {"hitter", 2.4},   {"misra", 3.5},
        {"gries", 3.5},    {"quantile", 2.2},   {"merge", 1.7},    {"counter", 1.1},
        {"entropy", 2.6},  {"weighted", 1.4},   {"median", 2.0},   {"datasketch", 3.1},
    };

    string_frequent_items<double> sketch(64, /*seed=*/5);
    xoshiro256ss rng(7);
    zipf_distribution word_pick(vocabulary.size(), 0.9);

    // Stream 500k weighted word occurrences; also pour in long-tail noise
    // words so the sketch must actually evict.
    for (int i = 0; i < 500'000; ++i) {
        if (rng.below(100) < 70) {
            const auto& [word, idf] = vocabulary[word_pick(rng) - 1];
            const double tf = 1.0 + static_cast<double>(rng.below(5));
            sketch.update(word, tf * idf);
        } else {
            sketch.update("noise_" + std::to_string(rng.below(200'000)), 0.05);
        }
    }

    std::printf("processed %.0f total tf-idf mass; max error %.2f\n\n",
                sketch.total_weight(), sketch.maximum_error());
    std::printf("%-14s %12s %12s %12s\n", "term", "estimate", "lower", "upper");
    const auto rows = sketch.frequent_items(error_type::no_false_positives);
    for (std::size_t i = 0; i < std::min<std::size_t>(10, rows.size()); ++i) {
        std::printf("%-14s %12.1f %12.1f %12.1f\n", rows[i].item.c_str(), rows[i].estimate,
                    rows[i].lower_bound, rows[i].upper_bound);
    }

    // The same workload through the sharded engine: producers fingerprint
    // words onto the ring hot path, each shard keeps the spelling slice for
    // its key sub-space, and the merged snapshot reports spelled terms.
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 5};
    stream_engine<std::uint64_t, double, string_frequent_items<double>> engine(cfg);
    {
        auto producer = engine.make_producer();
        xoshiro256ss replay(7);
        zipf_distribution pick(vocabulary.size(), 0.9);
        for (int i = 0; i < 500'000; ++i) {
            if (replay.below(100) < 70) {
                const auto& [word, idf] = vocabulary[pick(replay) - 1];
                producer.push(std::string_view(word),
                              (1.0 + static_cast<double>(replay.below(5))) * idf);
            } else {
                producer.push(std::string_view("noise_" + std::to_string(replay.below(200'000))),
                              0.05);
            }
        }
    }
    engine.flush();
    const auto snap = engine.snapshot();
    const auto st = engine.stats();
    std::printf("\nsharded engine (2 shards): N=%.0f, %llu updates applied, "
                "%llu spellings stored\n",
                snap.total_weight(),
                static_cast<unsigned long long>(st.updates_applied),
                static_cast<unsigned long long>(st.spellings_applied));
    const auto top = snap.top_items(5);
    for (const auto& r : top) {
        std::printf("  %-14s %12.1f\n", r.item.c_str(), r.estimate);
    }
    return 0;
}
