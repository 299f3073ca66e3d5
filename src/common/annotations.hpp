// Clang Thread Safety Analysis annotations, portable across compilers.
//
// The bit-identity guarantee (manifests identical at any --jobs, including
// after SIGKILL and a --journal re-run) rests on locking discipline: every
// mutable datum shared across pool workers is guarded by exactly one
// mutex, and every access happens with that mutex held.  TSan can only
// confirm this for schedules it happens to observe; Clang's Thread Safety
// Analysis (-Wthread-safety) proves the lock/data association at compile
// time for *all* schedules — provided the association is written down.
// These macros write it down.
//
// Usage (the full how-to lives in docs/static-analysis.md):
//
//   class Account {
//     void deposit(double amount) GT_EXCLUDES(mutex_);
//    private:
//     Mutex mutex_;
//     double balance_ GT_GUARDED_BY(mutex_);
//   };
//
// Under Clang every macro expands to the corresponding attribute and
// -Werror=thread-safety (enabled in all presets and the CI thread-safety
// job) turns a missed lock into a build break.  Under GCC they expand to
// nothing, so the annotations are zero-cost and the build is unchanged —
// gt-lint rule GT007 keeps GCC-only contributors honest between Clang CI
// runs by requiring GT_GUARDED_BY in every mutex-bearing class.
//
// The annotated primitives that make these macros useful (gridtrust::Mutex,
// MutexLock, CondVar, ...) live in "common/sync.hpp"; std::mutex itself
// cannot participate because libstdc++ ships without capability
// attributes.
#pragma once

// clang-format off
#if defined(__has_attribute)
#define GT_HAS_THREAD_ATTRIBUTE_(x) __has_attribute(x)
#else
#define GT_HAS_THREAD_ATTRIBUTE_(x) 0
#endif

#if GT_HAS_THREAD_ATTRIBUTE_(capability)
#define GT_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GT_THREAD_ANNOTATION_(x)  // no-op: GCC and pre-TSA Clang
#endif
// clang-format on

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define GT_CAPABILITY(x) GT_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define GT_SCOPED_CAPABILITY GT_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define GT_GUARDED_BY(x) GT_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define GT_PT_GUARDED_BY(x) GT_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function precondition: caller already holds the capability (exclusive /
/// shared).  The function does not release it.
#define GT_REQUIRES(...) GT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define GT_REQUIRES_SHARED(...) \
  GT_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define GT_ACQUIRE(...) GT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define GT_ACQUIRE_SHARED(...) \
  GT_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases a capability the caller held on entry.
#define GT_RELEASE(...) GT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define GT_RELEASE_SHARED(...) \
  GT_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability only when returning `value`.
#define GT_TRY_ACQUIRE(...) \
  GT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must be called *without* the capability held (it acquires the
/// lock itself; calling with it held would self-deadlock).
#define GT_EXCLUDES(...) GT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. callbacks invoked under a caller's lock).
#define GT_ASSERT_CAPABILITY(x) GT_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the given capability.
#define GT_RETURN_CAPABILITY(x) GT_THREAD_ANNOTATION_(lock_returned(x))

/// Lock-ordering declarations for deadlock detection.
#define GT_ACQUIRED_BEFORE(...) \
  GT_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define GT_ACQUIRED_AFTER(...) \
  GT_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Escape hatch: disables the analysis for one function.  Use only with a
/// comment explaining why the analysis cannot see the invariant (the
/// acceptance bar is "no blanket escapes, targeted ones carry a reason").
#define GT_NO_THREAD_SAFETY_ANALYSIS \
  GT_THREAD_ANNOTATION_(no_thread_safety_analysis)
