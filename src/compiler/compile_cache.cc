#include "compile_cache.hh"

#include <future>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/event_log.hh"
#include "common/strutil.hh"

namespace manna::compiler
{

namespace
{

struct CacheKey
{
    std::uint64_t mannFp;
    std::uint64_t archFp;

    bool operator==(const CacheKey &o) const
    {
        return mannFp == o.mannFp && archFp == o.archFp;
    }
};

struct CacheKeyHash
{
    std::size_t operator()(const CacheKey &k) const
    {
        // The fingerprints are already well-mixed FNV-1a values.
        return static_cast<std::size_t>(k.mannFp ^
                                        (k.archFp * 0x9e3779b97f4a7c15ull));
    }
};

struct CacheEntry
{
    std::shared_future<std::shared_ptr<const CompiledModel>> future;
    /** Position in Cache::lru; only ready (resolved) entries are
     * linked there — an entry still compiling is pinned. */
    std::list<CacheKey>::iterator lruPos;
    bool ready = false;
};

struct Cache
{
    std::mutex mu;
    std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> entries;
    /** Ready entries, most-recently-used first. */
    std::list<CacheKey> lru;
    std::size_t capacity = 0; ///< 0 = unbounded
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;

    /** Evict LRU ready entries until within capacity. mu held. */
    void
    enforceCapacity()
    {
        if (capacity == 0)
            return;
        while (entries.size() > capacity && !lru.empty()) {
            const CacheKey victim = lru.back();
            lru.pop_back();
            entries.erase(victim);
            ++evictions;
        }
    }

    /** Move a ready entry to the MRU end (or link it for the first
     * time once its compile resolved). mu held. */
    void
    touch(const CacheKey &key, CacheEntry &entry)
    {
        if (entry.ready)
            lru.erase(entry.lruPos);
        lru.push_front(key);
        entry.lruPos = lru.begin();
        entry.ready = true;
    }
};

Cache &
cache()
{
    static Cache c;
    return c;
}

} // namespace

std::shared_ptr<const CompiledModel>
compileCached(const mann::MannConfig &mann, const arch::MannaConfig &arch)
{
    const CacheKey key{mann.fingerprint(), arch.fingerprint()};
    Cache &c = cache();

    std::promise<std::shared_ptr<const CompiledModel>> promise;
    std::shared_future<std::shared_ptr<const CompiledModel>> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        auto it = c.entries.find(key);
        if (it != c.entries.end()) {
            ++c.hits;
            if (it->second.ready)
                c.touch(key, it->second);
            future = it->second.future;
        } else {
            ++c.misses;
            owner = true;
            future = promise.get_future().share();
            CacheEntry entry;
            entry.future = future;
            c.entries.emplace(key, std::move(entry));
        }
    }
    // Outside the cache lock: tracing must never serialize compiles.
    if (events::enabled())
        events::instant(
            owner ? "compile.cache.miss" : "compile.cache.hit",
            strformat("mann_fp=0x%016llx arch_fp=0x%016llx",
                      static_cast<unsigned long long>(key.mannFp),
                      static_cast<unsigned long long>(key.archFp)));

    if (owner) {
        // Compile outside the lock so independent keys proceed in
        // parallel; waiters on this key block on the future instead.
        // A failed compile (ConfigError/AssemblyError) propagates to
        // every waiter through the future and the poisoned entry is
        // dropped, so nothing deadlocks and the error stays
        // recoverable per sweep job.
        try {
            events::Span span("compile.model");
            auto model =
                std::make_shared<const CompiledModel>(compile(mann, arch));
            span.end();
            promise.set_value(std::move(model));
            std::lock_guard<std::mutex> lock(c.mu);
            if (auto it = c.entries.find(key);
                it != c.entries.end()) {
                c.touch(key, it->second);
                c.enforceCapacity();
            }
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(c.mu);
            c.entries.erase(key);
        }
    }
    return future.get();
}

std::size_t
compileCacheSize()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.entries.size();
}

std::size_t
compileCacheHits()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.hits;
}

std::size_t
compileCacheMisses()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.misses;
}

std::size_t
compileCacheEvictions()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.evictions;
}

void
setCompileCacheCapacity(std::size_t entries)
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.capacity = entries;
    c.enforceCapacity();
}

std::size_t
compileCacheCapacity()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.capacity;
}

void
clearCompileCache()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.entries.clear();
    c.lru.clear();
    c.hits = 0;
    c.misses = 0;
    c.evictions = 0;
}

} // namespace manna::compiler
