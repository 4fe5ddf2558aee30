// Heap-allocation counting for traced runs. Only the throwing scalar
// operator new is replaced: the library's array and nothrow forms forward
// to it, and the default operator delete (std::free) still matches, so no
// replacement delete exists for -Wmismatched-new-delete to flag. Aligned
// allocations are not counted; the library makes them only when it
// constructs rings and shards, outside every timed phase.

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};
}  // namespace

namespace perfbench {

void alloc_counting(bool on) { counting.store(on, std::memory_order_relaxed); }

std::uint64_t alloc_count() { return allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) {
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    for (;;) {
        if (void* p = std::malloc(n != 0 ? n : 1)) {
            return p;
        }
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr) {
            throw std::bad_alloc();
        }
        handler();
    }
}
