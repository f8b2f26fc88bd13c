#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perfbench.hh"

namespace pb
{

bool Spans::on = false;

namespace
{

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  //!< index into spans, -1 = root of its run
    uint32_t run = 0;
};

std::vector<Span> spans;
std::vector<int32_t> openStack;
uint32_t curRun = 0;

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // anonymous namespace

void
Spans::beginRun(uint32_t run)
{
    curRun = run;
    openStack.clear();
}

int32_t
Spans::open(const char *name)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.run = curRun;
    spans.push_back(std::move(s));
    int32_t idx = static_cast<int32_t>(spans.size() - 1);
    openStack.push_back(idx);
    return idx;
}

void
Spans::close(int32_t idx)
{
    spans[idx].endNs = nowNs();
    // Scopes close in LIFO order; tolerate a run switch in between.
    if (!openStack.empty() && openStack.back() == idx)
        openStack.pop_back();
}

std::map<std::string, std::vector<double>>
Spans::selfTimeByLayer(const std::vector<uint32_t> &runs)
{
    std::vector<int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;

    std::map<std::string, std::vector<double>> out;
    for (size_t r = 0; r < runs.size(); ++r) {
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.run != runs[r])
                continue;
            std::vector<double> &v = out[layerOf(s.name)];
            v.resize(runs.size(), 0.0);
            v[r] += (s.endNs - s.startNs - childNs[i]) * 1e-9;
        }
    }
    for (auto &[layer, v] : out)
        v.resize(runs.size(), 0.0);
    return out;
}

bool
Spans::writeChromeJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const int64_t base = spans.empty() ? 0 : spans.front().startNs;
    char buf[512];
    auto ts = [base](int64_t ns) { return (ns - base) / 1000.0; };

    out << "{\"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const char *line) {
        out << (first ? "" : ",\n") << line;
        first = false;
    };
    // Spans are stored in open order, which is a pre-order walk of each
    // run's span tree: close every open span that is not an ancestor
    // before opening the next one, so B/E events nest on each tid.
    std::vector<int32_t> stack;
    auto closeTop = [&] {
        const Span &s = spans[stack.back()];
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                      s.run, ts(s.endNs));
        emit(buf);
        stack.pop_back();
    };
    uint32_t lastRun = ~0u;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.run != lastRun) {
            while (!stack.empty())
                closeTop();
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"M\",\"name\":\"thread_name\","
                          "\"pid\":1,\"tid\":%u,\"args\":{\"name\":"
                          "\"run %u\"}}",
                          s.run, s.run);
            emit(buf);
            lastRun = s.run;
        }
        while (!stack.empty() && stack.back() != s.parent)
            closeTop();
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"B\",\"name\":\"%s\",\"cat\":\"%s\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"args\":"
                      "{\"span\":%zu,\"parent\":%d,\"run\":%u}}",
                      s.name.c_str(), layerOf(s.name).c_str(), s.run,
                      ts(s.startNs), i, s.parent, s.run);
        emit(buf);
        stack.push_back(static_cast<int32_t>(i));
    }
    while (!stack.empty())
        closeTop();
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace pb
