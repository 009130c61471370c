#include "trace.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/strutil.hh"

namespace manna::sim
{

TraceLane
laneOf(isa::Opcode op)
{
    // Indexed by isa::OpClass; control and comm ops occupy no engine.
    static constexpr TraceLane kClassLane[] = {
        TraceLane::Compute, TraceLane::MatDma,  TraceLane::VecDma,
        TraceLane::Compute, TraceLane::Compute, TraceLane::Sfu,
        TraceLane::Compute,
    };
    static_assert(std::size(kClassLane) ==
                  static_cast<std::size_t>(isa::OpClass::NumClasses));
    return kClassLane[static_cast<std::size_t>(isa::opInfo(op).cls)];
}

const char *
toString(TraceLane lane)
{
    static constexpr const char *kNames[] = {"compute", "sfu", "mat_dma",
                                             "vec_dma"};
    static_assert(std::size(kNames) == kNumLanes);
    return kNames[static_cast<std::size_t>(lane)];
}

const char *
toString(StallReason reason)
{
    static constexpr const char *kNames[] = {
        "issue", "ctrl",    "fence",      "drain",
        "dma",   "compute", "sfu_serial", "bank_conflict",
    };
    static_assert(std::size(kNames) == kNumStallReasons);
    return kNames[static_cast<std::size_t>(reason)];
}

StallReason
producerStall(TraceLane lane)
{
    static constexpr StallReason kProducer[] = {
        StallReason::Compute, StallReason::SfuSerial, StallReason::Dma,
        StallReason::Dma};
    static_assert(std::size(kProducer) == kNumLanes);
    return kProducer[static_cast<std::size_t>(lane)];
}

TraceLogger::TraceLogger(std::size_t maxEntries)
    : maxEntries_(maxEntries)
{
    entries_.reserve(std::min<std::size_t>(maxEntries, 4096));
}

void
TraceLogger::record(std::size_t tile, Cycle issue, Cycle horizon,
                    Cycle start, Cycle end, const isa::Instruction &inst)
{
    if (entries_.size() >= maxEntries_) {
        ++dropped_;
        return;
    }
    entries_.push_back(
        {tile, issue, horizon, start, end, inst.op, inst.toString()});
}

void
TraceLogger::clear()
{
    entries_.clear();
    dropped_ = 0;
}

std::string
TraceLogger::render(std::size_t limit) const
{
    std::string out;
    const std::size_t n = std::min(limit, entries_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEntry &e = entries_[i];
        out += strformat("t%-3zu @%-10llu (=>%-10llu) %s\n", e.tile,
                         static_cast<unsigned long long>(e.issue),
                         static_cast<unsigned long long>(e.horizon),
                         e.text.c_str());
    }
    if (entries_.size() > n)
        out += strformat("... %zu more entries\n", entries_.size() - n);
    if (dropped_ > 0)
        out += strformat("... %zu entries dropped at capacity\n",
                         dropped_);
    return out;
}

std::string
TraceLogger::renderChromeTrace() const
{
    // Sort an index by (start, tile, lane) so the event stream is
    // timestamp-ordered regardless of the interleaving the simulator
    // happened to record in.
    std::vector<std::size_t> order(entries_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return entries_[a].start < entries_[b].start;
                     });

    // Tiles (pids) and lanes (tids) that actually appear, for the
    // naming metadata.
    std::vector<std::size_t> tiles;
    for (const TraceEntry &e : entries_)
        tiles.push_back(e.tile);
    std::sort(tiles.begin(), tiles.end());
    tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());

    static constexpr TraceLane kLanes[] = {
        TraceLane::Compute, TraceLane::Sfu, TraceLane::MatDma,
        TraceLane::VecDma};

    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    out += strformat("\"tool\":\"manna-sim\",\"droppedEntries\":%zu},",
                     dropped_);
    out += "\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        if (!first)
            out += ",";
        first = false;
        out += "\n" + ev;
    };
    for (std::size_t tile : tiles) {
        emit(strformat("{\"ph\":\"M\",\"pid\":%zu,\"tid\":0,"
                       "\"name\":\"process_name\","
                       "\"args\":{\"name\":\"tile %zu\"}}",
                       tile, tile));
        for (TraceLane lane : kLanes)
            emit(strformat("{\"ph\":\"M\",\"pid\":%zu,\"tid\":%d,"
                           "\"name\":\"thread_name\","
                           "\"args\":{\"name\":\"%s\"}}",
                           tile, static_cast<int>(lane),
                           toString(lane)));
    }
    for (std::size_t i : order) {
        const TraceEntry &e = entries_[i];
        const Cycle dur = e.end > e.start ? e.end - e.start : 1;
        emit(strformat(
            "{\"ph\":\"X\",\"pid\":%zu,\"tid\":%d,"
            "\"ts\":%llu,\"dur\":%llu,"
            "\"name\":\"%s\",\"cat\":\"%s\","
            "\"args\":{\"text\":\"%s\",\"issue\":%llu,"
            "\"horizon\":%llu}}",
            e.tile, static_cast<int>(laneOf(e.op)),
            static_cast<unsigned long long>(e.start),
            static_cast<unsigned long long>(dur),
            jsonEscape(isa::toString(e.op)).c_str(),
            toString(laneOf(e.op)),
            jsonEscape(e.text).c_str(),
            static_cast<unsigned long long>(e.issue),
            static_cast<unsigned long long>(e.horizon)));
    }
    out += "\n]}\n";
    return out;
}

} // namespace manna::sim
