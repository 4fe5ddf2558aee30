#ifndef FREQ_ENGINE_SNAPSHOT_SERVICE_H
#define FREQ_ENGINE_SNAPSHOT_SERVICE_H

/// \file snapshot_service.h
/// The async snapshot publisher: moves the engine's read copies off the
/// query path. An unpublished engine read (stream_engine::view()) copies
/// every shard on the caller's thread. The snapshot_service refreshes a
/// view once per publish interval on its own background thread — for the
/// engine a partitioned_view whose pooled per-shard copies are re-copied
/// only when their shard changed, with no merge — and publishes it into one
/// of two alternating buffers; readers acquire() the current buffer in a
/// handful of atomic operations, so point queries and heavy-hitter reports
/// cost a pointer chase, and their staleness is bounded by the publish
/// interval.
///
/// Publication protocol (double-buffered, refcounted):
///
///         refresh()                publish              acquire()
///   shards ───────► back buffer ──────────► published ───────────► readers
///                   (epoch e+1)    atomic     buffer               (refcount)
///                                  pointer    (epoch e)
///                                  swap
///
///  * Two buffers alternate in steady state: the publisher refreshes the
///    spare buffer, stamps it with a monotonically increasing epoch and a
///    publish timestamp, then swaps the published pointer. A buffer is
///    reused only once no reader still holds it (its refcount is zero);
///    when a long-held view pins the spare, the publisher allocates a
///    fresh buffer instead of skipping or blocking (stats().pool_grows),
///    so a publish — in particular the synchronous republish behind
///    flush()/advance_epoch() — ALWAYS lands. The pool never exceeds the
///    number of concurrently-held views plus two.
///  * acquire() is a load + refcount increment + validating re-load. It
///    retries only when a publish lands in that window (at most one publish
///    per interval), so readers are wait-free in steady state and lock-free
///    under a concurrent publish. Reads of the sketch happen only after the
///    validating load, which synchronizes with the publishing store, so a
///    view is always complete and consistent — never torn.
///  * A published_snapshot is a move-only RAII view: it pins its buffer
///    (refcount) and the buffer storage (shared_ptr), exposes the published
///    view plus the epoch / publish-time / policy-clock metadata, and
///    releases the pin on destruction. Holding a view indefinitely never
///    corrupts anything — it only keeps one pool buffer out of rotation.
///
/// Lifetime-policy coordination: the engine never copies a shard while
/// advance_epoch() is ticking, so every published view holds its shards at
/// one logical clock; advance_epoch() then republishes synchronously, and
/// stream_engine::flush() republishes too, giving flush-then-read the same
/// "everything pushed is visible" meaning it has with unpublished reads.
///
/// Failures: a fold that throws on the publisher thread (bad_alloc while
/// copying a shard, say) publishes nothing — the last good view stays
/// published — and the exception is kept and rethrown by the next
/// publish_now(), so stream_engine::flush(), advance_epoch() and
/// publish_snapshot_now() report it. The periodic publisher keeps running.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "obs/pipeline_metrics.h"

namespace freq {

/// Aggregate counters of one snapshot_service (monotonic for the life of
/// the service; stream_engine::snapshot_stats() additionally accumulates
/// them across service restarts, so the engine-level view is monotonic for
/// the life of the *engine* — see stream_engine.h).
struct snapshot_service_stats {
    std::uint64_t publishes = 0;   ///< buffers published (epoch high-water mark)
    std::uint64_t pool_grows = 0;  ///< buffers allocated because held views pinned the spares
    std::uint64_t acquires = 0;    ///< views handed out
    std::uint64_t acquire_retries = 0;  ///< acquire() restarts due to a racing publish
    std::uint64_t coalesced_publishes = 0;  ///< publish_now() calls satisfied by another caller's fold

    /// Component-wise sum — used by stream_engine to fold a finished
    /// service's totals into its accumulated base.
    snapshot_service_stats& operator+=(const snapshot_service_stats& o) noexcept {
        publishes += o.publishes;
        pool_grows += o.pool_grows;
        acquires += o.acquires;
        acquire_retries += o.acquire_retries;
        coalesced_publishes += o.coalesced_publishes;
        return *this;
    }
};

namespace detail {

/// One publication buffer of the pool.
template <typename Sketch>
struct snapshot_buffer {
    Sketch sketch;
    std::uint64_t epoch = 0;  ///< publish sequence number (0 = never published)
    std::uint64_t policy_clock = 0;  ///< sketch's lifetime clock at publish
    std::chrono::steady_clock::time_point publish_time{};
    std::atomic<std::uint64_t> refs{0};  ///< live published_snapshot views

    explicit snapshot_buffer(Sketch s) : sketch(std::move(s)) {}
};

/// The buffer pool lives behind a shared_ptr so views outlive service
/// teardown. Two buffers in steady state; grows (under the publish mutex)
/// only while long-held views pin spares. The vector itself is touched
/// only by the serialized publisher — readers hold raw buffer pointers,
/// which stay stable because buffers are individually heap-allocated and
/// never freed before the pool dies.
template <typename Sketch>
struct snapshot_buffers {
    std::vector<std::unique_ptr<snapshot_buffer<Sketch>>> pool;
};

/// Lifetime clock of a published value: now() for windowed cores and
/// partitioned views, policy().now() for fading cores, 0 for plain.
template <typename Sketch>
std::uint64_t snapshot_clock(const Sketch& s) {
    if constexpr (requires { s.now(); }) {
        return s.now();
    } else if constexpr (requires { s.policy().now(); }) {
        return s.policy().now();
    } else {
        return 0;
    }
}

}  // namespace detail

/// A pinned, consistent, epoch-tagged view of one published fold. Move-only
/// RAII: destruction releases the buffer for reuse by the publisher. Cheap
/// to acquire and hold briefly; holding one across publish intervals makes
/// the publisher allocate around it (stats().pool_grows) but is always safe.
template <typename Sketch>
class published_snapshot {
public:
    published_snapshot(published_snapshot&& other) noexcept
        : storage_(std::move(other.storage_)), buf_(std::exchange(other.buf_, nullptr)) {}
    published_snapshot& operator=(published_snapshot&& other) noexcept {
        if (this != &other) {
            release();
            storage_ = std::move(other.storage_);
            buf_ = std::exchange(other.buf_, nullptr);
        }
        return *this;
    }
    published_snapshot(const published_snapshot&) = delete;
    published_snapshot& operator=(const published_snapshot&) = delete;
    ~published_snapshot() { release(); }

    /// The published value this view pins. Immutable while the view is alive.
    const Sketch& sketch() const noexcept { return buf_->sketch; }
    const Sketch& operator*() const noexcept { return buf_->sketch; }
    const Sketch* operator->() const noexcept { return &buf_->sketch; }

    /// Publish sequence number: strictly increasing across publishes, >= 1.
    std::uint64_t epoch() const noexcept { return buf_->epoch; }

    /// The lifetime-policy clock of the published value (decay steps for
    /// fading, window epoch for windowed, 0 for plain).
    std::uint64_t policy_clock() const noexcept { return buf_->policy_clock; }

    std::chrono::steady_clock::time_point publish_time() const noexcept {
        return buf_->publish_time;
    }

    /// How stale this view is right now. Bounded by the publish interval
    /// plus one refresh while the service is running.
    std::chrono::steady_clock::duration age() const {
        return std::chrono::steady_clock::now() - buf_->publish_time;
    }

private:
    template <typename S>
    friend class snapshot_service;

    published_snapshot(std::shared_ptr<detail::snapshot_buffers<Sketch>> storage,
                       detail::snapshot_buffer<Sketch>* buf)
        : storage_(std::move(storage)), buf_(buf) {}

    void release() noexcept {
        if (buf_ != nullptr) {
            buf_->refs.fetch_sub(1, std::memory_order_acq_rel);
            buf_ = nullptr;
        }
        storage_.reset();
    }

    std::shared_ptr<detail::snapshot_buffers<Sketch>> storage_;
    detail::snapshot_buffer<Sketch>* buf_ = nullptr;
};

/// The background publisher. Templated on the published type and fed by a
/// fold callback (for stream_engine: [&engine] { return engine.view(); }),
/// so the same service publishes plain, fading and windowed views — and
/// tests can drive it from any snapshot source.
template <typename Sketch>
class snapshot_service {
public:
    using fold_fn = std::function<Sketch()>;
    using fold_into_fn = std::function<void(Sketch&)>;
    using view = published_snapshot<Sketch>;

    /// Starts the publisher thread and synchronously publishes epoch 1, so
    /// acquire() is valid from the moment the constructor returns.
    /// \param fold      produces one consistent fold (called on the
    ///                  publisher thread and inside publish_now callers).
    /// \param interval  target publish period; staleness of any acquired
    ///                  view is bounded by interval + one fold duration.
    /// \param fold_into optional allocation-free form: refreshes an
    ///                  existing value in place, letting the publisher
    ///                  reuse its pooled buffers' storage instead of
    ///                  building a fresh value per publish (the engine
    ///                  re-copies dirty shards into a pooled view). Must
    ///                  produce the same result as \p fold; used whenever
    ///                  a recyclable buffer exists, with \p fold covering
    ///                  first publishes and pool growth.
    snapshot_service(fold_fn fold, std::chrono::microseconds interval,
                     fold_into_fn fold_into = nullptr)
        : fold_(std::move(fold)), fold_into_(std::move(fold_into)), interval_(interval) {
        FREQ_REQUIRE(fold_ != nullptr, "snapshot_service needs a fold callback");
        FREQ_REQUIRE(interval_.count() > 0, "snapshot publish interval must be positive");
        Sketch first = fold_();
        Sketch second = first;  // both steady-state buffers start as valid folds
        buffers_ = std::make_shared<detail::snapshot_buffers<Sketch>>();
        buffers_->pool.push_back(
            std::make_unique<detail::snapshot_buffer<Sketch>>(std::move(first)));
        buffers_->pool.push_back(
            std::make_unique<detail::snapshot_buffer<Sketch>>(std::move(second)));
        // Publish the first buffer as epoch 1 (its fold already happened).
        detail::snapshot_buffer<Sketch>& head = *buffers_->pool.front();
        head.epoch = 1;
        head.policy_clock = detail::snapshot_clock(head.sketch);
        head.publish_time = std::chrono::steady_clock::now();
        published_.store(&head, std::memory_order_seq_cst);
        published_epoch_.store(1, std::memory_order_release);
        publishes_.store(1, std::memory_order_relaxed);
        last_publish_ns_.store(obs::now_ns(), std::memory_order_relaxed);
        obs::pipeline().snapshot_publishes.add(1);
        // Derived staleness gauge: evaluated at registry collect() time.
        // One series per live service, disambiguated by an instance label;
        // the RAII handle retires the callback before last_publish_ns_ dies.
        static std::atomic<std::uint64_t> next_instance{1};
        age_gauge_ = obs::registry::global().register_callback_gauge(
            "freq_snapshot_age_ns", "Age of the published cached view, nanoseconds",
            {{"instance",
              std::to_string(next_instance.fetch_add(1, std::memory_order_relaxed))}},
            [this] {
                return static_cast<double>(
                    obs::now_ns() - last_publish_ns_.load(std::memory_order_relaxed));
            });
        publisher_ = std::thread([this] { publisher_loop(); });
    }

    snapshot_service(const snapshot_service&) = delete;
    snapshot_service& operator=(const snapshot_service&) = delete;

    ~snapshot_service() { stop(); }

    /// Stops the publisher thread. Idempotent; outstanding views stay valid
    /// (they pin the buffer storage) but go permanently stale.
    void stop() {
        bool expected = false;
        if (stopping_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
            // Take the wake mutex before notifying: without it the notify
            // can land between the publisher's predicate check and its
            // sleep, get lost, and leave teardown waiting a full interval.
            { std::lock_guard<std::mutex> lock(wake_mutex_); }
            wake_.notify_all();
        }
        if (publisher_.joinable()) {
            publisher_.join();
        }
    }

    /// Wait-free in steady state: pins and returns the currently published
    /// view. Retries (bounded by publish frequency) only when a publish
    /// swaps the pointer mid-acquire.
    view acquire() const {
        acquires_.fetch_add(1, std::memory_order_relaxed);
        obs::pipeline().snapshot_acquires.add(1);
        for (;;) {
            detail::snapshot_buffer<Sketch>* buf = published_.load(std::memory_order_seq_cst);
            buf->refs.fetch_add(1, std::memory_order_seq_cst);
            if (published_.load(std::memory_order_seq_cst) == buf) {
                // The validating load saw buf still published, so the
                // publisher cannot have been overwriting it: reuse requires
                // unpublishing first and observing refs == 0 afterwards.
                return view(buffers_, buf);
            }
            buf->refs.fetch_sub(1, std::memory_order_acq_rel);
            acquire_retries_.fetch_add(1, std::memory_order_relaxed);
            obs::pipeline().snapshot_acquire_retries.add(1);
        }
    }

    /// Epoch of the currently published view (>= 1). Tracked in its own
    /// atomic: dereferencing the published buffer without pinning it would
    /// race the publisher recycling that buffer.
    std::uint64_t epoch() const noexcept {
        return published_epoch_.load(std::memory_order_acquire);
    }

    /// Synchronous publish on the caller's thread: after this returns, the
    /// published view reflects a fold that *started after this call was
    /// entered* — so the next acquire() observes everything the caller made
    /// visible (e.g. an engine flush) before calling. Always lands, even
    /// when held views pin every spare (the pool grows instead of
    /// skipping). Serialized with the periodic publisher; returns the
    /// satisfying epoch.
    ///
    /// Concurrent callers coalesce: while one caller's fold-and-swap is in
    /// flight, callers that entered before that fold started simply wait
    /// for it and adopt its epoch instead of each folding again — N
    /// simultaneous publish_now() calls cost one or two folds, not N
    /// (stats().coalesced_publishes counts the riders).
    ///
    /// Rethrows, once, an exception the periodic publisher caught since the
    /// last publish_now(); the call after that publishes afresh.
    std::uint64_t publish_now() {
        const std::uint64_t entered = folds_started_.load(std::memory_order_acquire);
        std::lock_guard<std::mutex> lock(publish_mutex_);
        if (publisher_failure_ != nullptr) {
            std::rethrow_exception(std::exchange(publisher_failure_, nullptr));
        }
        if (folds_landed_ > entered) {
            // A fold began after we entered and — since cycles complete
            // under the mutex we now hold — its publish already landed.
            // Everything visible before our entry was visible to that fold.
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            obs::pipeline().snapshot_coalesced_publishes.add(1);
            return published_epoch_.load(std::memory_order_acquire);
        }
        return publish_cycle_locked();
    }

    std::chrono::microseconds interval() const noexcept { return interval_; }

    snapshot_service_stats stats() const noexcept {
        snapshot_service_stats st;
        st.publishes = publishes_.load(std::memory_order_relaxed);
        st.pool_grows = grows_.load(std::memory_order_relaxed);
        st.acquires = acquires_.load(std::memory_order_relaxed);
        st.acquire_retries = acquire_retries_.load(std::memory_order_relaxed);
        st.coalesced_publishes = coalesced_.load(std::memory_order_relaxed);
        return st;
    }

private:
    void publisher_loop() {
        std::unique_lock<std::mutex> lock(wake_mutex_);
        while (!stopping_.load(std::memory_order_acquire)) {
            wake_.wait_for(lock, interval_,
                           [this] { return stopping_.load(std::memory_order_acquire); });
            if (stopping_.load(std::memory_order_acquire)) {
                return;
            }
            lock.unlock();
            publish_cycle_guarded();
            lock.lock();
        }
    }

    /// One periodic fold-and-swap. A throwing fold swaps nothing, so the
    /// last good view stays published; the first such exception is kept for
    /// publish_now() instead of escaping the thread (std::terminate).
    void publish_cycle_guarded() {
        std::lock_guard<std::mutex> lock(publish_mutex_);
        try {
            publish_cycle_locked();
        } catch (...) {
            if (publisher_failure_ == nullptr) {
                publisher_failure_ = std::current_exception();
            }
        }
    }

    /// The body of a cycle; requires publish_mutex_ held.
    std::uint64_t publish_cycle_locked() {
        obs::scoped_timer timer(obs::pipeline().snapshot_publish_latency_ns);
        // Announce the fold before running it: publish_now() riders that
        // entered earlier may adopt this cycle's result once it lands.
        const std::uint64_t ticket = folds_started_.fetch_add(1, std::memory_order_acq_rel) + 1;
        detail::snapshot_buffer<Sketch>* front =
            published_.load(std::memory_order_seq_cst);
        // A spare buffer is safe to overwrite once its refcount reads zero
        // *after* it was unpublished: no reader can re-pin it, because
        // acquire() validates against the published pointer. When every
        // spare is pinned by a held view, grow the pool instead of
        // skipping — a publish (and so flush()'s / advance_epoch()'s
        // synchronous republish guarantee) must always land.
        detail::snapshot_buffer<Sketch>* back = nullptr;
        for (const auto& b : buffers_->pool) {
            if (b.get() != front && b->refs.load(std::memory_order_seq_cst) == 0) {
                back = b.get();
                break;
            }
        }
        if (back != nullptr && fold_into_ != nullptr) {
            // Reuse the spare buffer's sketch storage: the fold-into form
            // copy-assigns into its existing backing arrays, so a
            // steady-state publish performs no heap allocation.
            fold_into_(back->sketch);
        } else {
            Sketch folded = fold_();
            if (back == nullptr) {
                buffers_->pool.push_back(
                    std::make_unique<detail::snapshot_buffer<Sketch>>(std::move(folded)));
                back = buffers_->pool.back().get();
                grows_.fetch_add(1, std::memory_order_relaxed);
                obs::pipeline().snapshot_pool_grows.add(1);
            } else {
                back->sketch = std::move(folded);
            }
        }
        back->epoch = front->epoch + 1;  // safe: only the serialized publisher writes epochs
        back->policy_clock = detail::snapshot_clock(back->sketch);
        back->publish_time = std::chrono::steady_clock::now();
        published_.store(back, std::memory_order_seq_cst);
        published_epoch_.store(back->epoch, std::memory_order_release);
        folds_landed_ = ticket;
        publishes_.fetch_add(1, std::memory_order_relaxed);
        last_publish_ns_.store(obs::now_ns(), std::memory_order_relaxed);
        obs::pipeline().snapshot_publishes.add(1);
        return back->epoch;
    }

    fold_fn fold_;
    fold_into_fn fold_into_;  ///< optional allocation-free fold (see ctor)
    std::chrono::microseconds interval_;
    std::shared_ptr<detail::snapshot_buffers<Sketch>> buffers_;
    std::atomic<detail::snapshot_buffer<Sketch>*> published_{nullptr};
    std::atomic<std::uint64_t> published_epoch_{0};

    std::mutex publish_mutex_;  ///< serializes publish cycles (loop vs. publish_now)
    std::uint64_t folds_landed_ = 0;  ///< ticket of the last cycle that published (publish_mutex_)
    std::exception_ptr publisher_failure_;  ///< caught on the publisher thread (publish_mutex_)
    std::thread publisher_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    std::atomic<bool> stopping_{false};

    std::atomic<std::uint64_t> publishes_{0};
    std::atomic<std::uint64_t> grows_{0};
    std::atomic<std::uint64_t> folds_started_{0};  ///< cycles begun (coalescing marker)
    std::atomic<std::uint64_t> coalesced_{0};
    mutable std::atomic<std::uint64_t> acquires_{0};
    mutable std::atomic<std::uint64_t> acquire_retries_{0};

    std::atomic<std::int64_t> last_publish_ns_{0};  ///< steady-clock ns of the last publish
    // Declared last: destroyed first, so the staleness callback (which
    // reads last_publish_ns_) is retired before any member it touches.
    obs::callback_gauge_handle age_gauge_;
};

}  // namespace freq

#endif  // FREQ_ENGINE_SNAPSHOT_SERVICE_H
