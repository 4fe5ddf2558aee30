// The façade factory: the one translation unit that includes api/builder.h,
// whose builder and restore_summary instantiate every summary type the
// library offers (the slowest file of the build by far).

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "api/builder.h"
#include "bench.h"

namespace perfbench {

freq::summarizer make_ingest_summarizer(const workload_config& cfg, std::uint64_t seed) {
    freq::builder b;
    b.max_counters(k).counts().seed(seed);
    if (cfg.shards > 0) {
        b.sharded(cfg.shards);
        if (cfg.snapshot_us > 0) {
            b.snapshot_every(std::chrono::microseconds(cfg.snapshot_us));
        }
    }
    return b.build();
}

freq::summarizer make_aggregate(std::uint64_t seed) {
    return freq::builder().max_counters(k).counts().seed(seed).build();
}

freq::summarizer restore(const freq::summary_bytes& bytes) {
    return freq::restore_summary(bytes);
}

namespace {

/// A summary that ignores every update. Behind the library's own standalone
/// feeder it leaves exactly the façade's per-push work: feeder::push, the
/// feeder's virtual push, the summary's virtual update and the telemetry
/// add. Nothing else is ever called on it.
class null_summary final : public freq::detail::summarizer_impl {
public:
    const freq::summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return false; }
    void update(std::uint64_t, double) override {}
    void update(std::string_view, double) override {}
    void update(std::span<const freq::update64>) override {}
    std::unique_ptr<freq::detail::feeder_impl> make_feeder() override {
        return std::make_unique<freq::detail::standalone_feeder>(this);
    }
    void flush() override {}
    void tick(std::uint64_t) override {}
    std::uint64_t now() const override { return 0; }
    double estimate(std::uint64_t) const override { return 0.0; }
    double estimate(std::string_view) const override { return 0.0; }
    double lower_bound(std::uint64_t) const override { return 0.0; }
    double lower_bound(std::string_view) const override { return 0.0; }
    double upper_bound(std::uint64_t) const override { return 0.0; }
    double upper_bound(std::string_view) const override { return 0.0; }
    double total_weight() const override { return 0.0; }
    double maximum_error() const override { return 0.0; }
    std::uint32_t num_counters() const override { return 0; }
    std::uint32_t capacity() const override { return 0; }
    std::size_t memory_bytes() const override { return 0; }
    freq::result_set frequent_items(freq::error_mode, double) const override { return {}; }
    freq::result_set top_items(std::size_t) const override { return {}; }
    freq::summary_bytes save() override {
        throw std::logic_error("null_summary holds nothing to save");
    }
    void merge_from(const freq::detail::summarizer_impl&) override {}
    std::unique_ptr<freq::detail::summarizer_impl> snapshot() const override {
        return std::make_unique<null_summary>();
    }
    std::string to_string() const override { return "null_summary"; }

private:
    freq::summary_descriptor desc_;
};

}  // namespace

freq::summarizer null_sink() { return freq::summarizer(std::make_unique<null_summary>()); }

}  // namespace perfbench
