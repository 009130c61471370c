/**
 * @file
 * Thread-safe compiled-model cache. Sweeps evaluate the same
 * (MANN shape, Manna configuration) pair at many step counts, seeds,
 * and cluster parameters; compilation is deterministic, so each
 * distinct pair needs to be compiled exactly once per process. The
 * cache is keyed by the stable fingerprints of both configuration
 * structs and hands out shared ownership so concurrent sweep jobs can
 * hold a model while the cache retains it.
 *
 * Concurrent misses on the same key compile once: the first caller
 * publishes a future the rest wait on.
 *
 * The cache may be bounded (setCompileCacheCapacity(), wired to the
 * cache_entries= knob / MANNA_CACHE_ENTRIES): past the cap, the
 * least-recently-used *ready* entry is evicted — an entry still being
 * compiled is never dropped, so in-flight waiters are unaffected.
 * Evicted models referenced by callers stay alive through their
 * shared_ptrs; only the cache's own reference goes away.
 *
 * The cache lives in memory only. Compiling a Table-2 model takes
 * well under a millisecond, so there is nothing to gain from keeping
 * compiled models across processes.
 */

#ifndef MANNA_COMPILER_COMPILE_CACHE_HH
#define MANNA_COMPILER_COMPILE_CACHE_HH

#include <cstddef>
#include <memory>

#include "compiler/compiler.hh"

namespace manna::compiler
{

/**
 * Compile via the process-wide cache. Returns a shared handle; the
 * caller must keep it alive for as long as anything (e.g. a sim::Chip)
 * references the model.
 */
std::shared_ptr<const CompiledModel>
compileCached(const mann::MannConfig &mann,
              const arch::MannaConfig &arch);

/** Number of distinct models currently cached. */
std::size_t compileCacheSize();

/** Cache hits / misses / LRU evictions since process start (or the
 * last reset). */
std::size_t compileCacheHits();
std::size_t compileCacheMisses();
std::size_t compileCacheEvictions();

/** Bound the cache to @p entries models (0 = unbounded, the
 * default). Shrinking below the current size evicts in LRU order
 * immediately. */
void setCompileCacheCapacity(std::size_t entries);

/** Currently configured capacity (0 = unbounded). */
std::size_t compileCacheCapacity();

/** Drop every cached model and zero the hit/miss/eviction counters
 * (capacity is kept). Models still referenced by callers stay alive
 * through their shared_ptrs. */
void clearCompileCache();

} // namespace manna::compiler

#endif // MANNA_COMPILER_COMPILE_CACHE_HH
