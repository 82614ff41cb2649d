#ifndef QSP_UTIL_THREAD_ANNOTATIONS_H_
#define QSP_UTIL_THREAD_ANNOTATIONS_H_

/// Portable wrappers over Clang's thread-safety-analysis attributes
/// (DESIGN.md §9). Under Clang with -Wthread-safety the annotations turn
/// lock discipline into a compile-time check: a member declared
/// QSP_GUARDED_BY(mu_) may only be touched while mu_ is held, a function
/// declared QSP_REQUIRES(mu_) may only be called with mu_ held, and so
/// on. Under GCC and MSVC every macro expands to nothing, so annotated
/// headers stay portable.
///
/// The project annotates every mutex-protected structure (the qsp::exec
/// thread pool, the obs metric types, the MergeContext memo shards, the
/// channel-cost memo); new mutexes must arrive with annotations. Only a
/// local Clang build checks them: CMakeLists.txt adds -Wthread-safety
/// under Clang alone, and every CI job builds with GCC. The lock check CI
/// runs is ThreadSanitizer over the whole test suite (the
/// thread-sanitize job), which reports data races and lock-order
/// inversions on every path a test drives.
///
/// Escape hatch: QSP_NO_THREAD_SAFETY_ANALYSIS on a function disables the
/// analysis for its body. Reserve it for patterns the analysis cannot
/// follow (lock handoff between scopes, test-only lock poking) and leave
/// a comment saying why, per the suppression policy in DESIGN.md §9.

#if defined(__clang__) && (!defined(SWIG))
#define QSP_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define QSP_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Documents that a data member is protected by the given capability
/// (almost always a mutex member of the same class).
#define QSP_GUARDED_BY(x) QSP_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Documents that the *pointee* of a pointer member is protected by the
/// given capability (the pointer itself may be read freely).
#define QSP_PT_GUARDED_BY(x) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Declares that callers must hold the capability when calling the
/// function (and still hold it when the function returns).
#define QSP_REQUIRES(...) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// Declares that the function acquires the capability and does not
/// release it before returning.
#define QSP_ACQUIRE(...) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// Declares that the function releases the capability (which the caller
/// must hold on entry).
#define QSP_RELEASE(...) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the capability (the function
/// acquires it itself — annotating public entry points with this catches
/// self-deadlock at compile time).
#define QSP_EXCLUDES(...) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Marks a type as a capability so it can appear in the macros above
/// with a nicer diagnostic name ("mutex 'mu_'").
#define QSP_CAPABILITY(x) QSP_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Marks an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define QSP_SCOPED_CAPABILITY \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Declares the function's return value is protected by the capability.
#define QSP_RETURN_CAPABILITY(x) \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Turns the analysis off for one function. Suppression of last resort;
/// justify with a comment (DESIGN.md §9).
#define QSP_NO_THREAD_SAFETY_ANALYSIS \
  QSP_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // QSP_UTIL_THREAD_ANNOTATIONS_H_
