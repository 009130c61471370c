#include "spans.hh"

#include <atomic>
#include <cstdio>

#include "common/json.hh"

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::size_t> openStack;

unsigned
threadId()
{
    static std::atomic<unsigned> next{1};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
}

} // namespace

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

std::size_t
SpanRecorder::open(const char *name, long job)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = openStack.empty() ? -1
                                   : static_cast<long>(openStack.back());
    rec.job = job;
    rec.tid = threadId();
    std::size_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        index = spans_.size();
        spans_.push_back(rec);
        spans_.back().startUs = nowUs();
    }
    openStack.push_back(index);
    return index;
}

void
SpanRecorder::close(std::size_t index)
{
    const double end = nowUs();
    openStack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].endUs = end;
}

std::vector<SpanRecord>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRecord> spans = snapshot();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.find('.'));
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": %u, "
                     "\"args\": {\"span\": %zu, \"parent\": %ld, "
                     "\"job\": %ld}}",
                     i == 0 ? "" : ",\n", manna::jsonEscape(name).c_str(),
                     manna::jsonEscape(layer).c_str(),
                     manna::jsonNumber(s.startUs).c_str(),
                     manna::jsonNumber(s.durUs()).c_str(), s.tid, i,
                     s.parent, s.job);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

std::vector<double>
selfTimesUs(const std::vector<SpanRecord> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durUs();
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durUs();
    return self;
}

} // namespace perfbench
