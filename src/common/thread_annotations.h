// Clang Thread Safety Analysis annotation macros (DESIGN.md §12).
//
// These macros attach compile-time capability declarations to mutexes, the
// data they guard, and the functions that acquire or require them. Under
// clang with -Wthread-safety (enabled for all Clang builds in the top-level
// CMakeLists.txt, and an error under the default ULOAD_WERROR=ON) the
// analysis proves, per translation unit, that
//
//   * every access to a GUARDED_BY(mu) field happens with mu held,
//   * every call to a REQUIRES(mu) function happens with mu held,
//   * ACQUIRE/RELEASE functions change the held-capability set as declared,
//   * EXCLUDES(mu) functions are never entered with mu already held
//     (self-deadlock), and
//   * a SCOPED_CAPABILITY object (MutexLock) releases what it acquired.
//
// Under GCC (which has no such analysis) every macro expands to nothing, so
// annotations never change codegen or runtime behavior — the same binary is
// produced with or without them. The negative-compilation harness in
// tests/negative_compile/ proves the analysis actually fires on violations;
// scripts/check.sh --static-analysis and the clang CI job gate on it.
//
// The macro set mirrors the canonical mutex.h example from the Clang
// Thread Safety Analysis documentation, which is the dialect the analysis
// is tested against upstream.
#ifndef ULOAD_COMMON_THREAD_ANNOTATIONS_H_
#define ULOAD_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ULOAD_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef ULOAD_THREAD_ANNOTATION_
#define ULOAD_THREAD_ANNOTATION_(x)  // no-op: GCC and pre-capability clang
#endif

// Declares a class to be a capability ("mutex" names the capability kind in
// diagnostics).
#define CAPABILITY(x) ULOAD_THREAD_ANNOTATION_(capability(x))

// Declares an RAII class whose constructor acquires a capability and whose
// destructor releases it (MutexLock).
#define SCOPED_CAPABILITY ULOAD_THREAD_ANNOTATION_(scoped_lockable)

// Data members: may only be read or written while holding the capability.
#define GUARDED_BY(x) ULOAD_THREAD_ANNOTATION_(guarded_by(x))
// Pointer members: the pointed-to data requires the capability (the pointer
// itself does not).
#define PT_GUARDED_BY(x) ULOAD_THREAD_ANNOTATION_(pt_guarded_by(x))

// Functions: the caller must hold the capability when calling (and still
// holds it after the call returns).
#define REQUIRES(...) \
  ULOAD_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  ULOAD_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// Functions: acquire the capability on entry / release it on return.
#define ACQUIRE(...) ULOAD_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  ULOAD_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) ULOAD_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  ULOAD_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

// Functions: acquire the capability only when returning `b` (TryLock).
#define TRY_ACQUIRE(b, ...) \
  ULOAD_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

// Functions: must NOT be entered with the capability held (the function
// acquires it itself; catches self-deadlock at compile time).
#define EXCLUDES(...) ULOAD_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Functions: return a reference to the named capability (Mutex accessors).
#define RETURN_CAPABILITY(x) ULOAD_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for code the analysis cannot model. Deliberately unused in
// the annotated layers (engine, server, executor) — the
// static-analysis acceptance bar is zero inline suppressions there; it
// exists for the Mutex wrapper internals only.
#define NO_THREAD_SAFETY_ANALYSIS \
  ULOAD_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // ULOAD_COMMON_THREAD_ANNOTATIONS_H_
