/**
 * @file
 * Test-only global heap-allocation counter.
 *
 * tests/alloc_tracker.cpp replaces the global operator new/delete
 * family with counting wrappers (linked into the test binary only —
 * the library itself is untouched). AllocationProbe snapshots the
 * counter so a test can assert that a code region performed zero heap
 * allocations: the "allocation-free in steady state" contract of the
 * *Into paths (attention forwardInto, VitEncoder forwardInto/forwardRaggedInto)
 * becomes a failing test instead of a comment.
 *
 * Counting is process-global and thread-safe (relaxed atomics); a
 * probe around a region that runs pool workers counts their
 * allocations too, which is exactly what the steady-state contract
 * demands.
 */

#ifndef VITALITY_TESTS_ALLOC_TRACKER_H
#define VITALITY_TESTS_ALLOC_TRACKER_H

#include <cstdint>

namespace vitality {
namespace testing {

/** Allocations (any operator new) observed since process start. */
uint64_t allocationCount();

/** Deallocations (any operator delete with a non-null pointer). */
uint64_t deallocationCount();

/** Asserting "no allocations happened here" around a region. */
class AllocationProbe
{
  public:
    AllocationProbe() : start_(allocationCount()) {}

    /** Allocations since this probe was constructed. */
    uint64_t allocations() const { return allocationCount() - start_; }

  private:
    uint64_t start_;
};

} // namespace testing
} // namespace vitality

#endif // VITALITY_TESTS_ALLOC_TRACKER_H
